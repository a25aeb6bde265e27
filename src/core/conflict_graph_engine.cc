// Copyright (c) 2026 The ktg Authors.

#include "core/conflict_graph_engine.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <functional>
#include <memory>
#include <numeric>

#include "cache/ktg_cache.h"
#include "cache/query_key.h"
#include "core/obs_bridge.h"
#include "core/root_parallel.h"
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
  TopNCollector* collector = nullptr;  // serial runs only
  SearchStats* stats = nullptr;
  obs::QueryTrace* trace = nullptr;
  bool stop = false;
  // Deadline clock (mirrors KtgEngine::kTimeBudgetCheckMask): polled every
  // 64 expansions, measured from the run's entry.
  Stopwatch run_watch;

  // Set only on per-worker states of a parallel run (mirrors KtgEngine's
  // clone indirection): the run's shared top-N replaces the collector, and
  // the node budget / stop flag become run-wide.
  RootParallelShared* shared = nullptr;

  std::vector<VertexId> members;

  bool CollectorFull() {
    return shared != nullptr ? shared->topn.full() : collector->full();
  }
  int Threshold() {
    return shared != nullptr ? shared->topn.threshold()
                             : collector->threshold();
  }
  void OfferGroup(Group g) {
    if (shared != nullptr) {
      shared->topn.Offer(std::move(g));
    } else {
      collector->Offer(std::move(g));
    }
  }
  bool StopRequested() {
    if (stop) return true;
    if (shared != nullptr &&
        shared->stop.value.load(std::memory_order_relaxed)) {
      stop = true;
      return true;
    }
    return false;
  }
  void RequestStop() {
    stop = true;
    if (shared != nullptr) {
      shared->stop.value.store(true, std::memory_order_relaxed);
    }
  }

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
    if (StopRequested()) return;
    ++stats->nodes_expanded;
    if (options->max_nodes != 0) {
      // Parallel runs charge the global budget; serial runs the local count.
      const uint64_t expanded =
          shared == nullptr
              ? stats->nodes_expanded
              : shared->nodes.value.fetch_add(1, std::memory_order_relaxed) +
                    1;
      if (expanded > options->max_nodes) {
        RequestStop();
        return;
      }
    }
    if (options->time_budget_ms > 0 &&
        (stats->nodes_expanded & 0x3F) == 0 &&
        run_watch.ElapsedMillis() > options->time_budget_ms) {
      RequestStop();
      return;
    }
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
      OfferGroup(std::move(g));
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
    if (options->keyword_pruning && CollectorFull()) {
      // Reachable-coverage ceiling (this engine always clamps).
      if (PopCount(reachable) <= Threshold()) {
        ++stats->keyword_prunes;
        RecordTrace(obs::TraceEventKind::kKeywordPrune, kInvalidVertex,
                    PopCount(reachable));
        return;
      }
    }
    // VKC-descending, position-ascending order (positions are already in
    // the static root rank, so ties fall back to that rank).
    std::sort(order.begin(), order.end());

    if (options->keyword_pruning && CollectorFull()) {
      int additive = covered_count;
      for (uint32_t i = 0; i < need; ++i) additive += -order[i].first;
      if (additive <= Threshold()) {
        ++stats->keyword_prunes;
        RecordTrace(obs::TraceEventKind::kKeywordPrune, kInvalidVertex,
                    additive);
        return;
      }
    }

    for (size_t i = 0; i + need <= order.size(); ++i) {
      if (StopRequested()) return;
      const uint32_t pos = order[i].second;
      const Candidate& v = (*cands)[pos];

      if (options->keyword_pruning && CollectorFull()) {
        int bound = covered_count + (-order[i].first);
        const size_t end = std::min(order.size(), i + need);
        for (size_t j = i + 1; j < end; ++j) bound += -order[j].first;
        if (bound <= Threshold()) {
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
          CollectorFull() &&
          ResidualBoundPrunes(child, child_covered, Threshold())) {
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

Result<KtgResult> RunKtgConflictGraph(const AttributedGraph& graph,
                                      const InvertedIndex& index,
                                      DistanceChecker& checker,
                                      const KtgQuery& query,
                                      ConflictEngineOptions options) {
  KTG_RETURN_IF_ERROR(ValidateQuery(query, graph));
  Stopwatch watch;

  // Worker threads this run may use (final count is additionally clamped
  // to the root count once candidates are known).
  const uint32_t max_workers =
      options.num_threads == 1 ? 1 : ThreadPool::Resolve(options.num_threads);

  QueryKey cache_key;
  // Degeneracy runs reorder tie-breaks, so they bypass the result cache
  // (same coverage profile, possibly different representative members) —
  // as do time-budgeted runs (truncation is best-effort), non-exact
  // modes (seed groups claim collector slots first), and parallel runs
  // (worker interleaving reorders tie representatives too).
  const bool cacheable = options.cache != nullptr && options.max_nodes == 0 &&
                         options.time_budget_ms == 0 &&
                         options.mode == EngineMode::kExact &&
                         !options.degeneracy_order && max_workers == 1;
  if (cacheable) {
    // This engine has one fixed ordering (VKC desc, degree asc), matching
    // kVkcDeg/ascending; the distinct engine tag keeps its tie-breaks from
    // aliasing KtgEngine's.
    cache_key = CanonicalQueryKey(query, kEngineTagConflict,
                                  SortStrategy::kVkcDeg,
                                  /*degree_ascending=*/true);
    KtgResult cached;
    if (options.cache->LookupQuery(cache_key, graph, query, &cached,
                                   options.snapshot_epoch)) {
      cached.stats.elapsed_ms = watch.ElapsedMillis();
      cached.stats.cpu_ms = cached.stats.elapsed_ms;
      RecordSearchStats(options.metrics, cached.stats, "conflict");
      return cached;
    }
  }

  if (options.metrics != nullptr) checker.EnableDetailStats();
  const CheckerCounters checker_before = SnapshotChecker(checker);
  SearchStats stats;

  uint64_t excluded = 0;
  std::vector<Candidate> cands;
  {
    obs::PhaseTimer timer(&stats.phases, obs::Phase::kCandidateGen);
    cands = ExtractCandidates(graph, index, query, checker, &excluded);
  }
  stats.candidates = cands.size();
  if (options.max_candidates != 0 &&
      cands.size() > options.max_candidates) {
    return Status::ResourceExhausted(
        "candidate set too large for the conflict-graph engine: " +
        std::to_string(cands.size()));
  }

  {
    obs::PhaseTimer timer(&stats.phases, obs::Phase::kCandidateGen);
    // Static rank: initial VKC desc, degree asc, id asc (the KTG-VKC-DEG
    // order at the root).
    std::sort(cands.begin(), cands.end(),
              [](const Candidate& a, const Candidate& b) {
                if (a.vkc != b.vkc) return a.vkc > b.vkc;
                if (a.degree != b.degree) return a.degree < b.degree;
                return a.vertex < b.vertex;
              });
  }

  const auto n = static_cast<uint32_t>(cands.size());

  // Root upper bound for the gap report (mirrors KtgEngine::Run): the min
  // of |W_Q|, the reachable mask union, and the additive sum of the p
  // largest initial coverages. cands are sorted initial-VKC descending, so
  // the first p entries are the largest.
  int root_ub = 0;
  if (n >= query.group_size) {
    CoverMask union_mask = 0;
    int additive = 0;
    for (uint32_t i = 0; i < n; ++i) {
      union_mask |= cands[i].mask;
      if (i < query.group_size) additive += PopCount(cands[i].mask);
    }
    root_ub = std::min({static_cast<int>(query.num_keywords()),
                        PopCount(union_mask), additive});
  }

  // Root-parallel dispatch: one worker per first-level subtree (see
  // core/root_parallel.h). The adjacency build fans out over its own pool.
  const uint32_t num_roots = n >= query.group_size
                                 ? n - query.group_size + 1
                                 : 0;
  const uint32_t workers = static_cast<uint32_t>(
      std::min<uint64_t>(max_workers, std::max<uint32_t>(num_roots, 1)));

  ConflictAdjacency cg;
  size_t seeded = 0;
  bool truncated = false;
  KtgResult result;
  {
    // The build + walk together are this engine's "search"; the build alone
    // additionally charges the kKlineFilter sub-phase — the same Theorem-3
    // work the paper's engines spread over the tree walk, paid up front.
    // A parallel walk charges its own bb_search time (the driver times it),
    // so this timer stops before the driver starts.
    obs::PhaseTimer bb_timer(&stats.phases, obs::Phase::kBbSearch);
    {
      obs::PhaseTimer timer(&stats.phases, obs::Phase::kKlineFilter);
      std::unique_ptr<ThreadPool> build_pool;
      if (workers > 1) build_pool = std::make_unique<ThreadPool>(workers);
      cg = BuildConflictAdjacency(graph.graph(), checker, cands,
                                  query.tenuity, options.build,
                                  build_pool.get());
      stats.kline_filtered = cg.edges;
    }

    if (options.degeneracy_order && n > 0) {
      // Re-rank: VKC desc stays primary (the additive bound's "later
      // children bound lower" return depends on it); within equal VKC the
      // densest-core candidates come first, replacing the degree
      // tie-break. Candidates and adjacency are permuted once so the
      // search's position-ascending tie-break is the degeneracy rank.
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
        cg.adj[perm[r]].ForEach(
            [&](uint32_t j) { new_adj[r].Set(inv[j]); });
      }
      cands = std::move(new_cands);
      cg.adj = std::move(new_adj);
    }

    // Keyword transposes for the residual bound: position bitsets per
    // query keyword, built once per run.
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
      seeds = ConflictGreedySeeds(cands, cg.adj, query.group_size,
                                  query.top_n);
      seeded = seeds.size();
      stats.groups_completed += seeds.size();
    }

    const auto make_state = [&](SearchStats* state_stats) {
      SearchState st;
      st.cands = &cands;
      st.conflicts = &cg.adj;
      st.kw_pos = &kw_pos;
      st.all_kw_mask = all_kw_mask;
      st.options = &options;
      st.p = query.group_size;
      st.stats = state_stats;
      st.trace = options.trace;  // QueryTrace records are mutex-guarded
      st.run_watch = watch;      // deadline origin == the run's entry
      return st;
    };

    if (workers <= 1) {
      TopNCollector collector(query.top_n);
      SearchState state = make_state(&stats);
      state.collector = &collector;
      for (Group& g : seeds) collector.Offer(std::move(g));
      Bitset all(n);
      all.SetAll();
      state.Search(std::move(all), 0);
      truncated = state.stop;
      bb_timer.Stop();
      obs::PhaseTimer timer(&stats.phases, obs::Phase::kTopNMerge);
      result.groups = collector.Take();
    } else {
      // Root i is the subtree selecting candidate i first; its pool is the
      // positions after i minus i's conflicts. Roots are in the static
      // (VKC desc) rank, so the serial root ordering is the identity.
      //
      // Root-level bounds, shared by every worker: the additive Theorem-2
      // sum over a window of p consecutive vkcs and the reachable-coverage
      // ceiling (constant at the root). Both are non-increasing in the root
      // index, so a failure stops the claim loop.
      std::vector<int> vkc_prefix(n + 1, 0);
      CoverMask union_mask = 0;
      for (uint32_t i = 0; i < n; ++i) {
        vkc_prefix[i + 1] = vkc_prefix[i] + cands[i].vkc;
        union_mask |= cands[i].mask;
      }
      const int root_ceiling = PopCount(union_mask);
      const uint32_t p = query.group_size;

      const auto worker = [&](RootParallelShared& shared) {
        SearchStats wstats;
        SearchState st = make_state(&wstats);
        st.shared = &shared;
        shared.ClaimRoots([&](size_t root) {
          const auto i = static_cast<uint32_t>(root);
          if (options.keyword_pruning && st.CollectorFull()) {
            const int threshold = st.Threshold();
            const int additive =
                vkc_prefix[std::min(n, i + p)] - vkc_prefix[i];
            if (root_ceiling <= threshold || additive <= threshold) {
              ++wstats.keyword_prunes;
              return RootStep::kStop;
            }
          }
          // allowed = positions after i, minus i's conflicts (the serial
          // first level reaches root i with exactly this pool).
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
              st.CollectorFull() &&
              st.ResidualBoundPrunes(allowed, child_covered,
                                     st.Threshold())) {
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
      bool complete = true;
      result.groups = RunRootParallel(workers, query.top_n, num_roots, seeds,
                                      worker, &stats, &complete);
      truncated = !complete;
    }
  }

  result.query_keyword_count = query.num_keywords();
  const int best_found =
      result.groups.empty() ? 0 : result.groups.front().covered();
  if (!truncated) {
    stats.upper_bound = best_found;
    stats.gap = 0;
  } else {
    stats.upper_bound = root_ub;
    stats.gap = std::max(0, root_ub - best_found);
  }
  stats.distance_checks = checker.num_checks() - checker_before.checks;
  // The parallel build's worker time is charged to the kline_filter wall,
  // not to cpu_ms.
  FinishRunClocks(watch, workers > 1, &stats);
  result.stats = stats;
  if (cacheable && !truncated) {
    options.cache->StoreQuery(cache_key, result, options.snapshot_epoch);
  }
  RecordSearchStats(options.metrics, stats, "conflict");
  if (options.mode != EngineMode::kExact || options.time_budget_ms > 0 ||
      options.max_nodes != 0) {
    RecordAnytimeStats(options.metrics, stats, !truncated, seeded);
  }
  RecordCheckerDelta(options.metrics, checker, checker_before);
  if (options.metrics != nullptr) {
    options.metrics->counter("kernel.ballwalk.balls")
        .Add(options.build == ConflictBuild::kBallWalk ? n : 0);
    options.metrics->counter("kernel.conflict.edges").Add(cg.edges);
    options.metrics->gauge("kernel.dispatch.avx2")
        .Set(Avx2Active() ? 1.0 : 0.0);
  }
  return result;
}

}  // namespace ktg
