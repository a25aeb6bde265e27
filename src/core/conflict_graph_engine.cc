// Copyright (c) 2026 The ktg Authors.

#include "core/conflict_graph_engine.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <functional>
#include <memory>
#include <numeric>
#include <optional>

#include "cache/query_key.h"
#include "core/root_parallel.h"
#include "core/run_frame.h"
#include "core/topn.h"
#include "graph/bfs.h"
#include "index/khop_bitmap.h"
#include "obs/phase_timer.h"
#include "obs/query_trace.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace ktg {
namespace {

constexpr uint32_t kNoPos = ~uint32_t{0};

// Reverse degeneracy rank of the conflict graph: repeatedly remove a
// minimum-degree candidate (bucket queue, O(n + m)); core_order[i] is i's
// removal index. Branching prefers the *last*-removed candidates — the
// densest core, whose members conflict with the most others — so infeasible
// combinations are discovered near the root.
std::vector<uint32_t> DegeneracyRemovalOrder(const ConflictAdjacency& cg) {
  const auto n = static_cast<uint32_t>(cg.adj.size());
  std::vector<uint32_t> degree(n), core_order(n, 0);
  std::vector<std::vector<uint32_t>> buckets(n + 1);
  for (uint32_t i = 0; i < n; ++i) {
    degree[i] = cg.adj[i].Count();
    buckets[degree[i]].push_back(i);
  }
  std::vector<bool> removed(n, false);
  uint32_t cursor = 0;  // min possible non-empty bucket
  for (uint32_t step = 0; step < n; ++step) {
    while (cursor < buckets.size() && buckets[cursor].empty()) ++cursor;
    // Degrees only decrease, but lazily deleted entries may sit in stale
    // buckets; skip them (their live copy is in a lower bucket).
    uint32_t u = kNoPos;
    while (cursor < buckets.size()) {
      auto& b = buckets[cursor];
      while (!b.empty()) {
        const uint32_t cand = b.back();
        b.pop_back();
        if (!removed[cand] && degree[cand] == cursor) {
          u = cand;
          break;
        }
      }
      if (u != kNoPos) break;
      if (b.empty()) ++cursor;
    }
    removed[u] = true;
    core_order[u] = step;
    cg.adj[u].ForEach([&](uint32_t v) {
      if (removed[v]) return;
      --degree[v];
      buckets[degree[v]].push_back(v);
      if (degree[v] < cursor) cursor = degree[v];
    });
  }
  return core_order;
}

struct SearchState {
  const std::vector<Candidate>* cands = nullptr;
  const std::vector<Bitset>* conflicts = nullptr;
  // Per-keyword transposes: kw_pos[b] holds the candidate positions whose
  // mask covers query keyword b. The residual bound intersects these with
  // a child's surviving bitset — word-parallel reachability, no gather.
  const std::vector<Bitset>* kw_pos = nullptr;
  CoverMask all_kw_mask = 0;  // union of every candidate's mask
  const ConflictEngineOptions* options = nullptr;
  uint32_t p = 0;
  SearchStats* stats = nullptr;
  obs::QueryTrace* trace = nullptr;
  // Over a serial collector, or over the run's shared state on the
  // per-worker states of a parallel run.
  RunControls controls;

  std::vector<VertexId> members;

  void RecordTrace(obs::TraceEventKind kind, VertexId vertex, int64_t detail) {
    if (trace == nullptr) return;
    trace->Record(kind, static_cast<uint32_t>(members.size()), vertex, detail);
  }

  // Residual-coverage clamp for a child node: can the child's surviving
  // set push coverage strictly past the threshold? Counts, with early
  // exit, the keywords outside child_covered still reachable from
  // `child` — one BitIntersects per residual keyword, each a word-parallel
  // scan that stops at the first witness. Returns true when the child is
  // provably unable to beat the threshold (safe to skip: Offer rejects
  // non-improving groups when the collector is full).
  bool ResidualBoundPrunes(const Bitset& child, CoverMask child_covered,
                           int threshold) const {
    int reach = PopCount(child_covered);
    if (reach > threshold) return false;
    CoverMask residual = all_kw_mask & ~child_covered;
    while (residual != 0) {
      const int b = std::countr_zero(residual);
      residual &= residual - 1;
      if ((*kw_pos)[b].Intersects(child)) {
        if (++reach > threshold) return false;
      }
    }
    return true;
  }

  void Search(Bitset allowed, CoverMask covered) {
    if (controls.StopRequested()) return;
    ++stats->nodes_expanded;
    if (!controls.ChargeNode(stats->nodes_expanded)) return;
    if (trace != nullptr) {
      RecordTrace(obs::TraceEventKind::kExpand,
                  members.empty() ? kInvalidVertex : members.back(),
                  allowed.Count());
    }
    if (members.size() == p) {
      ++stats->groups_completed;
      RecordTrace(obs::TraceEventKind::kOffer, members.back(),
                  PopCount(covered));
      Group g;
      g.members = members;
      std::sort(g.members.begin(), g.members.end());
      g.mask = covered;
      controls.Offer(std::move(g));
      return;
    }
    const uint32_t need = p - static_cast<uint32_t>(members.size());

    // Gather the allowed positions with their VKC and the reachable union.
    std::vector<std::pair<int, uint32_t>> order;  // (-vkc, pos): sortable
    order.reserve(64);
    CoverMask reachable = covered;
    allowed.ForEach([&](uint32_t pos) {
      const Candidate& c = (*cands)[pos];
      reachable |= c.mask;
      order.emplace_back(-PopCount(NovelBits(c.mask, covered)), pos);
    });
    if (order.size() < need) return;

    const int covered_count = PopCount(covered);
    if (options->keyword_pruning && controls.Full()) {
      // Reachable-coverage ceiling (this engine always clamps).
      if (PopCount(reachable) <= controls.Threshold()) {
        ++stats->keyword_prunes;
        RecordTrace(obs::TraceEventKind::kKeywordPrune, kInvalidVertex,
                    PopCount(reachable));
        return;
      }
    }
    // VKC-descending, position-ascending order (positions are already in
    // the static root rank, so ties fall back to that rank).
    std::sort(order.begin(), order.end());

    if (options->keyword_pruning && controls.Full()) {
      int additive = covered_count;
      for (uint32_t i = 0; i < need; ++i) additive += -order[i].first;
      if (additive <= controls.Threshold()) {
        ++stats->keyword_prunes;
        RecordTrace(obs::TraceEventKind::kKeywordPrune, kInvalidVertex,
                    additive);
        return;
      }
    }

    for (size_t i = 0; i + need <= order.size(); ++i) {
      if (controls.StopRequested()) return;
      const uint32_t pos = order[i].second;
      const Candidate& v = (*cands)[pos];

      if (options->keyword_pruning && controls.Full()) {
        int bound = covered_count + (-order[i].first);
        const size_t end = std::min(order.size(), i + need);
        for (size_t j = i + 1; j < end; ++j) bound += -order[j].first;
        if (bound <= controls.Threshold()) {
          ++stats->keyword_prunes;
          RecordTrace(obs::TraceEventKind::kKeywordPrune, v.vertex, bound);
          return;  // order is VKC-descending: later children bound lower
        }
      }

      // Set-minus semantics: v leaves the shared pool, then the child pool
      // additionally drops v's conflicts — one word-wise AND-NOT kernel.
      allowed.Clear(pos);
      Bitset child = allowed;
      child.AndNotAssign((*conflicts)[pos]);

      const CoverMask child_covered = covered | v.mask;
      if (options->residual_bound && options->keyword_pruning &&
          controls.Full() &&
          ResidualBoundPrunes(child, child_covered, controls.Threshold())) {
        // The additive bound passed but the child's surviving set cannot
        // reach past the N-th coverage: skip the subtree. Not a `return` —
        // later children survive different conflict sets.
        ++stats->ub_prunes;
        RecordTrace(obs::TraceEventKind::kKeywordPrune, v.vertex,
                    -static_cast<int64_t>(pos) - 1);
        continue;
      }

      members.push_back(v.vertex);
      Search(std::move(child), child_covered);
      members.pop_back();
    }
  }
};

// Anytime warm start on the materialized conflict graph: greedy
// constructions picking the highest refreshed-VKC allowed position (ties
// to the lowest position, i.e. the static VKC/degree/id rank), where
// feasibility filtering is one AND-NOT per pick. Restart `skip` drops the
// `skip` best-ranked first picks, mirroring the greedy heuristic.
std::vector<Group> ConflictGreedySeeds(const std::vector<Candidate>& cands,
                                       const std::vector<Bitset>& adj,
                                       uint32_t p, uint32_t top_n) {
  std::vector<Group> seeds;
  const auto n = static_cast<uint32_t>(cands.size());
  if (n < p) return seeds;
  const uint32_t max_attempts = top_n + 8;
  for (uint32_t skip = 0; seeds.size() < top_n && skip < max_attempts &&
                          skip + p <= n;
       ++skip) {
    Bitset allowed(n);
    allowed.SetAll();
    // Static rank is initial-VKC descending, so the first `skip` positions
    // are the best-ranked first picks.
    for (uint32_t j = 0; j < skip; ++j) allowed.Clear(j);
    Group group;
    CoverMask covered = 0;
    while (group.members.size() < p) {
      uint32_t best = kNoPos;
      int best_vkc = -1;
      allowed.ForEach([&](uint32_t pos) {
        const int vkc = PopCount(NovelBits(cands[pos].mask, covered));
        if (vkc > best_vkc) {
          best_vkc = vkc;
          best = pos;
        }
      });
      if (best == kNoPos) break;  // pool exhausted: dead end
      allowed.Clear(best);
      allowed.AndNotAssign(adj[best]);
      group.members.push_back(cands[best].vertex);
      covered |= cands[best].mask;
    }
    if (group.members.size() < p) continue;
    std::sort(group.members.begin(), group.members.end());
    group.mask = covered;
    if (std::find(seeds.begin(), seeds.end(), group) == seeds.end()) {
      seeds.push_back(std::move(group));
    }
  }
  return seeds;
}

}  // namespace

ConflictAdjacency BuildConflictAdjacency(const Graph& graph,
                                         DistanceChecker& checker,
                                         const std::vector<Candidate>& cands,
                                         HopDistance k, ConflictBuild build,
                                         ThreadPool* pool) {
  const auto n = static_cast<uint32_t>(cands.size());
  ConflictAdjacency out;
  out.adj.assign(n, Bitset(n));

  if (build == ConflictBuild::kPairwise) {
    // Serial by contract: the checker is not required to be
    // concurrent-read-safe, and this path exists for the ablation.
    for (uint32_t i = 0; i < n; ++i) {
      for (uint32_t j = i + 1; j < n; ++j) {
        if (!checker.IsFartherThan(cands[i].vertex, cands[j].vertex, k)) {
          out.adj[i].Set(j);
          out.adj[j].Set(i);
          ++out.edges;
        }
      }
    }
    return out;
  }

  // Ball walk. Candidate-membership map over the vertex space: each ball
  // visit resolves to a candidate position in O(1).
  const uint32_t nv = graph.num_vertices();
  std::vector<uint32_t> pos_of(nv, kNoPos);
  for (uint32_t i = 0; i < n; ++i) pos_of[cands[i].vertex] = i;

  // Row construction over contiguous chunks of candidate positions: one
  // chunk inline without a pool, about four per worker with one. Each
  // chunk owns its scratch and writes only its own rows, so the edge total
  // is the only shared state.
  std::atomic<uint64_t> edges{0};
  const auto for_row_chunks =
      [&](const std::function<void(uint64_t, uint64_t)>& chunk) {
        if (pool == nullptr) {
          chunk(0, n);
          return;
        }
        const uint64_t chunks = uint64_t{4} * pool->num_threads();
        pool->ParallelFor(0, n, (n + chunks - 1) / chunks, chunk);
      };

  if (auto* bitmap = dynamic_cast<KHopBitmapChecker*>(&checker);
      bitmap != nullptr && bitmap->built_k() == k) {
    // Balls are already materialized as matrix rows: adjacency row i is
    // row(v_i) ∩ members, one AND kernel per candidate — no BFS, no
    // per-pair probes.
    Bitset members(nv);
    for (uint32_t i = 0; i < n; ++i) members.Set(cands[i].vertex);
    const size_t num_words = members.num_words();
    for_row_chunks([&](uint64_t begin, uint64_t end) {
      std::vector<uint64_t> scratch(num_words);
      uint64_t chunk_edges = 0;
      for (uint64_t i = begin; i < end; ++i) {
        const auto row = bitmap->RowWords(cands[i].vertex);
        BitAnd(scratch.data(), row.data(), members.words(), num_words);
        ForEachSetBit(scratch.data(), num_words, [&](uint32_t w) {
          const uint32_t j = pos_of[w];
          out.adj[i].Set(j);
          if (j > i) ++chunk_edges;
        });
      }
      edges.fetch_add(chunk_edges, std::memory_order_relaxed);
    });
    out.edges = edges.load(std::memory_order_relaxed);
    return out;
  }

  // One bounded BFS per candidate over the social graph: O(n · ball)
  // traversal work replaces O(n²) checker probes, and symmetry is free
  // (j ∈ ball(i) ⇔ i ∈ ball(j) on an undirected graph). Each chunk keeps
  // its own BoundedBfs (the visited scratch is stateful).
  for_row_chunks([&](uint64_t begin, uint64_t end) {
    BoundedBfs bfs(graph);
    uint64_t chunk_edges = 0;
    for (uint64_t i = begin; i < end; ++i) {
      for (const VertexId w : bfs.Ball(cands[i].vertex, k)) {
        const uint32_t j = pos_of[w];
        if (j == kNoPos) continue;
        out.adj[i].Set(j);
        if (j > i) ++chunk_edges;
      }
    }
    edges.fetch_add(chunk_edges, std::memory_order_relaxed);
  });
  out.edges = edges.load(std::memory_order_relaxed);
  return out;
}

namespace {

// The conflict engine's part of a run (see FrameSearch): the candidate
// guard, the static rank, the adjacency build, the optional degeneracy
// re-rank, then the serial or root-parallel walk.
Result<SearchOutcome> ConflictSearch(const AttributedGraph& graph,
                                     DistanceChecker& checker,
                                     const KtgQuery& query,
                                     const ConflictEngineOptions& options,
                                     std::vector<Candidate>& cands,
                                     const Stopwatch& run_watch,
                                     SearchStats* stats) {
  KTG_RETURN_IF_ERROR(
      CheckConflictCandidates(cands.size(), "conflict-graph engine"));
  {
    obs::PhaseTimer timer(&stats->phases, obs::Phase::kCandidateGen);
    std::sort(cands.begin(), cands.end(), StaticRankLess{});
  }

  const auto n = static_cast<uint32_t>(cands.size());
  const uint32_t p = query.group_size;

  // Root-parallel dispatch: one worker per first-level subtree (see
  // core/root_parallel.h). The adjacency build fans out over its own pool.
  const uint32_t num_roots = n >= p ? n - p + 1 : 0;
  const uint32_t workers = RootWorkers(options.num_threads, num_roots);

  ConflictAdjacency cg;
  SearchOutcome out;
  // The build + walk together are this engine's "search"; the build alone
  // additionally charges the kKlineFilter sub-phase — the same Theorem-3
  // work the paper's engines spread over the tree walk, paid up front. A
  // parallel walk charges its own bb_search time (the driver times it), so
  // this timer stops before the driver starts.
  obs::PhaseTimer bb_timer(&stats->phases, obs::Phase::kBbSearch);
  {
    obs::PhaseTimer timer(&stats->phases, obs::Phase::kKlineFilter);
    std::unique_ptr<ThreadPool> build_pool;
    if (workers > 1) build_pool = std::make_unique<ThreadPool>(workers);
    cg = BuildConflictAdjacency(graph.graph(), checker, cands, query.tenuity,
                                ConflictBuild::kBallWalk, build_pool.get());
    stats->kline_filtered += cg.edges;
  }
  if (options.metrics != nullptr) {
    options.metrics->counter("kernel.ballwalk.balls").Add(n);
    options.metrics->counter("kernel.conflict.edges").Add(cg.edges);
    options.metrics->gauge("kernel.dispatch.avx2")
        .Set(Avx2Active() ? 1.0 : 0.0);
  }

  if (options.degeneracy_order && n > 0) {
    // Re-rank: VKC desc stays primary (the additive bound's "later
    // children bound lower" return depends on it); within equal VKC the
    // densest-core candidates come first, replacing the degree tie-break.
    // Candidates and adjacency are permuted once so the search's
    // position-ascending tie-break is the degeneracy rank.
    const std::vector<uint32_t> core_order = DegeneracyRemovalOrder(cg);
    std::vector<uint32_t> perm(n);
    std::iota(perm.begin(), perm.end(), 0);
    std::sort(perm.begin(), perm.end(), [&](uint32_t a, uint32_t b) {
      if (cands[a].vkc != cands[b].vkc) return cands[a].vkc > cands[b].vkc;
      if (core_order[a] != core_order[b])
        return core_order[a] > core_order[b];  // last removed first
      return cands[a].vertex < cands[b].vertex;
    });
    std::vector<uint32_t> inv(n);
    for (uint32_t r = 0; r < n; ++r) inv[perm[r]] = r;
    std::vector<Candidate> new_cands(n);
    std::vector<Bitset> new_adj(n, Bitset(n));
    for (uint32_t r = 0; r < n; ++r) {
      new_cands[r] = cands[perm[r]];
      cg.adj[perm[r]].ForEach([&](uint32_t j) { new_adj[r].Set(inv[j]); });
    }
    cands = std::move(new_cands);
    cg.adj = std::move(new_adj);
  }

  // Keyword transposes for the residual bound: position bitsets per query
  // keyword, built once per run.
  std::vector<Bitset> kw_pos;
  CoverMask all_kw_mask = 0;
  if (options.residual_bound) {
    kw_pos.assign(query.num_keywords(), Bitset(n));
    for (uint32_t i = 0; i < n; ++i) {
      CoverMask m = cands[i].mask;
      all_kw_mask |= m;
      while (m != 0) {
        const int b = std::countr_zero(m);
        m &= m - 1;
        kw_pos[b].Set(i);
      }
    }
  }

  std::vector<Group> seeds;
  if (options.mode != EngineMode::kExact) {
    seeds = ConflictGreedySeeds(cands, cg.adj, p, query.top_n);
    out.seeded = seeds.size();
    stats->groups_completed += seeds.size();
  }

  const auto make_state = [&](SearchStats* state_stats) {
    SearchState st;
    st.cands = &cands;
    st.conflicts = &cg.adj;
    st.kw_pos = &kw_pos;
    st.all_kw_mask = all_kw_mask;
    st.options = &options;
    st.p = p;
    st.stats = state_stats;
    st.trace = options.trace;  // QueryTrace records are mutex-guarded
    return st;
  };

  if (workers <= 1) {
    TopNCollector collector(query.top_n);
    SearchState state = make_state(stats);
    state.controls = RunControls(options, run_watch, &collector);
    for (Group& g : seeds) collector.Offer(std::move(g));
    Bitset all(n);
    all.SetAll();
    state.Search(std::move(all), 0);
    out.complete = !state.controls.stopped();
    bb_timer.Stop();
    obs::PhaseTimer timer(&stats->phases, obs::Phase::kTopNMerge);
    out.groups = collector.Take();
    return out;
  }

  // Root i is the subtree selecting candidate i first; its pool is the
  // positions after i minus i's conflicts. Roots are in the static (VKC
  // desc) rank, so the serial root ordering is the identity.
  //
  // Root-level bounds, shared by every worker: the additive Theorem-2 sum
  // over a window of p consecutive vkcs and the reachable-coverage ceiling
  // (constant at the root). Both are non-increasing in the root index, so a
  // failure stops the claim loop.
  std::vector<int> vkc_prefix(n + 1, 0);
  CoverMask union_mask = 0;
  for (uint32_t i = 0; i < n; ++i) {
    vkc_prefix[i + 1] = vkc_prefix[i] + cands[i].vkc;
    union_mask |= cands[i].mask;
  }
  const int root_ceiling = PopCount(union_mask);

  const auto worker = [&](RootParallelShared& shared) {
    SearchStats wstats;
    SearchState st = make_state(&wstats);
    st.controls = RunControls(options, run_watch, nullptr, &shared);
    shared.ClaimRoots([&](size_t root) {
      const auto i = static_cast<uint32_t>(root);
      if (options.keyword_pruning && st.controls.Full()) {
        const int threshold = st.controls.Threshold();
        const int additive = vkc_prefix[std::min(n, i + p)] - vkc_prefix[i];
        if (root_ceiling <= threshold || additive <= threshold) {
          ++wstats.keyword_prunes;
          return RootStep::kStop;
        }
      }
      // allowed = positions after i, minus i's conflicts (the serial first
      // level reaches root i with exactly this pool).
      Bitset allowed(n);
      allowed.SetAll();
      uint64_t* words = allowed.words();
      const uint32_t full_words = (i + 1) >> 6;
      for (uint32_t w = 0; w < full_words; ++w) words[w] = 0;
      const uint32_t rem = (i + 1) & 63;
      if (rem != 0) words[full_words] &= ~((uint64_t{1} << rem) - 1);
      allowed.AndNotAssign(cg.adj[i]);

      const CoverMask child_covered = cands[i].mask;
      if (options.residual_bound && options.keyword_pruning &&
          st.controls.Full() &&
          st.ResidualBoundPrunes(allowed, child_covered,
                                 st.controls.Threshold())) {
        ++wstats.ub_prunes;
        return RootStep::kSkip;  // later roots survive other conflicts
      }
      st.members.push_back(cands[i].vertex);
      st.Search(std::move(allowed), child_covered);
      st.members.pop_back();
      return RootStep::kContinue;
    });
    return wstats;
  };
  bb_timer.Stop();
  out.groups = RunRootParallel(workers, query.top_n, num_roots, seeds, worker,
                               stats, &out.complete);
  out.parallel = true;
  return out;
}

}  // namespace

Result<KtgResult> RunKtgConflictGraph(const AttributedGraph& graph,
                                      const InvertedIndex& index,
                                      DistanceChecker& checker,
                                      const KtgQuery& query,
                                      ConflictEngineOptions options) {
  // This engine has one fixed ordering (VKC desc, degree asc), matching
  // kVkcDeg/ascending; the distinct engine tag keeps its tie-breaks from
  // aliasing KtgEngine's. Degeneracy runs reorder tie-breaks, so they
  // supply no cache key.
  std::optional<CacheKeySpec> key;
  if (!options.degeneracy_order) {
    key = CacheKeySpec{kEngineTagConflict, SortStrategy::kVkcDeg,
                       /*degree_ascending=*/true};
  }
  return RunInFrame(graph, index, checker, query, options, "conflict", key,
                    [&](std::vector<Candidate>& cands,
                        const Stopwatch& run_watch, SearchStats* stats) {
                      return ConflictSearch(graph, checker, query, options,
                                            cands, run_watch, stats);
                    });
}

}  // namespace ktg
