// Copyright (c) 2026 The ktg Authors.

#include "core/ktg_engine.h"

#include <algorithm>
#include <limits>
#include <optional>

#include "cache/ktg_cache.h"
#include "cache/query_key.h"
#include "core/obs_bridge.h"
#include "obs/phase_timer.h"
#include "util/sorted_vector.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace ktg {

const char* SortStrategyName(SortStrategy s) {
  switch (s) {
    case SortStrategy::kQkc:
      return "QKC";
    case SortStrategy::kVkc:
      return "VKC";
    case SortStrategy::kVkcDeg:
      return "VKC-DEG";
  }
  return "?";
}

const char* EngineModeName(EngineMode m) {
  switch (m) {
    case EngineMode::kExact:
      return "exact";
    case EngineMode::kAnytime:
      return "anytime";
    case EngineMode::kPortfolio:
      return "portfolio";
  }
  return "?";
}

bool ParseEngineMode(const std::string& name, EngineMode* out) {
  if (name == "exact") {
    *out = EngineMode::kExact;
  } else if (name == "anytime") {
    *out = EngineMode::kAnytime;
  } else if (name == "portfolio") {
    *out = EngineMode::kPortfolio;
  } else {
    return false;
  }
  return true;
}

namespace {

// One greedy construction over `sr` for the anytime warm start: drop the
// `skip` best-ranked first picks (restart diversification, exactly the
// greedy heuristic's rule), then repeatedly take the highest refreshed-VKC
// candidate (degree-ascending, then id tie-break — the KTG-VKC-DEG rank)
// and k-line-filter the rest. nullopt when the pool dead-ends before p.
std::optional<Group> GreedyConstructOnce(const std::vector<Candidate>& sr,
                                         uint32_t skip, uint32_t p,
                                         HopDistance k,
                                         DistanceChecker& checker,
                                         uint64_t* kline_filtered) {
  std::vector<Candidate> pool = sr;
  const auto best_of = [](std::vector<Candidate>& v, CoverMask covered) {
    size_t best = v.size();
    for (size_t i = 0; i < v.size(); ++i) {
      v[i].vkc = PopCount(NovelBits(v[i].mask, covered));
      if (best == v.size()) {
        best = i;
        continue;
      }
      const Candidate& b = v[best];
      if (v[i].vkc != b.vkc) {
        if (v[i].vkc > b.vkc) best = i;
      } else if (v[i].degree < b.degree) {
        best = i;
      }
    }
    return best;
  };
  for (uint32_t s = 0; s < skip; ++s) {
    const size_t drop = best_of(pool, 0);
    if (drop == pool.size()) return std::nullopt;
    pool.erase(pool.begin() + static_cast<int64_t>(drop));
  }
  Group group;
  CoverMask covered = 0;
  while (group.members.size() < p) {
    const size_t best = best_of(pool, covered);
    if (best == pool.size()) return std::nullopt;
    const Candidate chosen = pool[best];
    pool.erase(pool.begin() + static_cast<int64_t>(best));
    group.members.push_back(chosen.vertex);
    covered |= chosen.mask;
    std::vector<Candidate> next;
    next.reserve(pool.size());
    for (const Candidate& c : pool) {
      if (checker.IsFartherThan(c.vertex, chosen.vertex, k)) {
        next.push_back(c);
      } else {
        ++*kline_filtered;
      }
    }
    pool.swap(next);
  }
  std::sort(group.members.begin(), group.members.end());
  group.mask = covered;
  return group;
}

}  // namespace

KtgEngine::KtgEngine(const AttributedGraph& graph, const InvertedIndex& index,
                     DistanceChecker& checker, EngineOptions options)
    : graph_(graph), index_(index), checker_(checker), options_(options) {
  instrument_ = options_.metrics != nullptr || options_.trace != nullptr;
  if (options_.metrics != nullptr) checker_.EnableDetailStats();
}

void KtgEngine::RecordTrace(obs::TraceEventKind kind, VertexId vertex,
                            int64_t detail) {
  if (options_.trace == nullptr) return;
  options_.trace->Record(kind, static_cast<uint32_t>(members_.size()), vertex,
                         detail);
}

void KtgEngine::SortCandidates(std::vector<Candidate>& cands) const {
  switch (options_.sort) {
    case SortStrategy::kQkc:
      // Static order: never re-sorted after the initial call (the engine
      // only calls this once for kQkc, with vkc == QKC counts).
      std::sort(cands.begin(), cands.end(),
                [](const Candidate& a, const Candidate& b) {
                  if (a.vkc != b.vkc) return a.vkc > b.vkc;
                  return a.vertex < b.vertex;
                });
      break;
    case SortStrategy::kVkc:
      std::sort(cands.begin(), cands.end(),
                [](const Candidate& a, const Candidate& b) {
                  if (a.vkc != b.vkc) return a.vkc > b.vkc;
                  return a.vertex < b.vertex;
                });
      break;
    case SortStrategy::kVkcDeg: {
      const bool asc = options_.degree_ascending;
      std::sort(cands.begin(), cands.end(),
                [asc](const Candidate& a, const Candidate& b) {
                  if (a.vkc != b.vkc) return a.vkc > b.vkc;
                  if (a.degree != b.degree) {
                    return asc ? a.degree < b.degree : a.degree > b.degree;
                  }
                  return a.vertex < b.vertex;
                });
      break;
    }
  }
}

int KtgEngine::OptimisticGain(const std::vector<Candidate>& cands, size_t from,
                              uint32_t need) const {
  if (need == 0 || from >= cands.size()) return 0;
  int gain = 0;
  if (options_.sort != SortStrategy::kQkc) {
    // vkc-descending order: the first `need` entries are the top ones.
    const size_t end = std::min(cands.size(), from + need);
    for (size_t i = from; i < end; ++i) gain += cands[i].vkc;
    return gain;
  }
  // QKC order is static, so select the `need` largest vkc values by scan
  // (need <= p is tiny; an insertion pass beats sorting a copy).
  int top[64] = {0};
  const uint32_t cap = std::min<uint32_t>(need, 64);
  uint32_t filled = 0;
  for (size_t i = from; i < cands.size(); ++i) {
    int x = cands[i].vkc;
    if (filled < cap) {
      top[filled++] = x;
      for (uint32_t j = filled - 1; j > 0 && top[j] > top[j - 1]; --j) {
        std::swap(top[j], top[j - 1]);
      }
    } else if (x > top[cap - 1]) {
      top[cap - 1] = x;
      for (uint32_t j = cap - 1; j > 0 && top[j] > top[j - 1]; --j) {
        std::swap(top[j], top[j - 1]);
      }
    }
  }
  for (uint32_t j = 0; j < filled; ++j) gain += top[j];
  return gain;
}

bool KtgEngine::CollectorFull() const {
  return shared_ != nullptr ? shared_->topn.full() : collector_.full();
}

int KtgEngine::PruneThreshold() const {
  return shared_ != nullptr ? shared_->topn.threshold()
                            : collector_.threshold();
}

bool KtgEngine::StopRequested() {
  if (stop_) return true;
  if (shared_ != nullptr &&
      shared_->stop.value.load(std::memory_order_relaxed)) {
    stop_ = true;
    return true;
  }
  return false;
}

void KtgEngine::RequestStop() {
  stop_ = true;
  last_run_complete_ = false;
  if (shared_ != nullptr) {
    shared_->stop.value.store(true, std::memory_order_relaxed);
  }
}

void KtgEngine::OfferCurrent(CoverMask covered) {
  ++stats_.groups_completed;
  if (instrument_) {
    RecordTrace(obs::TraceEventKind::kOffer, members_.back(),
                PopCount(covered));
  }
  Group g;
  g.members = members_;
  std::sort(g.members.begin(), g.members.end());
  g.mask = covered;
  if (shared_ != nullptr) {
    shared_->topn.Offer(std::move(g));
  } else {
    collector_.Offer(std::move(g));
  }
  if (options_.stop_at_count > 0 && CollectorFull() &&
      PruneThreshold() >= options_.stop_at_count) {
    RequestStop();
  }
}

std::vector<Candidate> KtgEngine::BuildChildCandidates(
    const std::vector<Candidate>& sr, size_t i, CoverMask child_covered,
    CoverMask* child_union) {
  const Candidate& v = sr[i];

  // Child S_R: candidates after i, k-line-filtered against v (Theorem 3),
  // with VKC refreshed against the enlarged S_I. When the checker can
  // materialize v's <=k ball, the whole filter costs one traversal plus
  // binary searches.
  const std::vector<VertexId>* ball = nullptr;
  if (options_.eager_kline_filtering && options_.bulk_filtering) {
    ball = checker_.BallWithinK(v.vertex, k_);
  }
  // The stopwatch read-back (and the clock reads it implies) happens only
  // when a sink is attached; sub-phase attribution is a diagnostic detail.
  Stopwatch filter_watch;
  uint64_t dropped = 0;
  std::vector<Candidate> child;
  child.reserve(sr.size() - i - 1);
  CoverMask union_mask = 0;
  for (size_t j = i + 1; j < sr.size(); ++j) {
    Candidate c = sr[j];
    if (options_.eager_kline_filtering) {
      const bool conflict =
          ball != nullptr ? SortedContains(*ball, c.vertex)
                          : !checker_.IsFartherThan(c.vertex, v.vertex, k_);
      if (conflict) {
        ++dropped;
        continue;
      }
    }
    c.vkc = PopCount(NovelBits(c.mask, child_covered));
    union_mask |= c.mask;
    child.push_back(c);
  }
  if (options_.sort != SortStrategy::kQkc) SortCandidates(child);
  stats_.kline_filtered += dropped;
  if (instrument_) {
    stats_.phases[obs::Phase::kKlineFilter] += filter_watch.ElapsedMillis();
    if (dropped > 0) {
      RecordTrace(obs::TraceEventKind::kKlineFilter, v.vertex,
                  static_cast<int64_t>(dropped));
    }
  }
  *child_union = union_mask;
  return child;
}

void KtgEngine::Search(const std::vector<Candidate>& sr, CoverMask covered,
                       CoverMask sr_union) {
  if (StopRequested()) return;
  ++stats_.nodes_expanded;
  if (instrument_) {
    RecordTrace(obs::TraceEventKind::kExpand,
                members_.empty() ? kInvalidVertex : members_.back(),
                static_cast<int64_t>(sr.size()));
  }
  if (options_.max_nodes != 0) {
    // Parallel runs charge the global budget; serial runs the local count.
    const uint64_t expanded =
        shared_ == nullptr
            ? stats_.nodes_expanded
            : shared_->nodes.value.fetch_add(1, std::memory_order_relaxed) + 1;
    if (expanded > options_.max_nodes) {
      RequestStop();
      return;
    }
  }
  // Deadline: the clock read is amortized over a node batch; each worker
  // polls its own expansion count, so the shared stop flag fans the
  // timeout out to the others within one batch.
  if (options_.time_budget_ms > 0 &&
      (stats_.nodes_expanded & kTimeBudgetCheckMask) == 0 &&
      run_watch_.ElapsedMillis() > options_.time_budget_ms) {
    RequestStop();
    return;
  }

  if (members_.size() == p_) {
    OfferCurrent(covered);
    return;
  }

  const uint32_t need = p_ - static_cast<uint32_t>(members_.size());
  if (sr.size() < need) return;

  const int covered_count = PopCount(covered);
  // The reachable-coverage ceiling: no descendant can cover keywords outside
  // covered ∪ (union of remaining masks). It clamps the additive Theorem-2
  // bound, which otherwise exceeds |W_Q| on popular-keyword queries and
  // stops pruning entirely once the top groups reach full coverage.
  const int ceiling = options_.ceiling_prune
                          ? PopCount(covered | sr_union)
                          : std::numeric_limits<int>::max();
  if (options_.keyword_pruning && CollectorFull()) {
    const int additive = covered_count + OptimisticGain(sr, 0, need);
    if (std::min(additive, ceiling) <= PruneThreshold()) {
      ++stats_.keyword_prunes;
      if (instrument_) {
        RecordTrace(obs::TraceEventKind::kKeywordPrune,
                    members_.empty() ? kInvalidVertex : members_.back(),
                    std::min(additive, ceiling));
      }
      return;
    }
  }

  // Suffix reachable-coverage masks for the residual clamp: suffix[j] =
  // ∪ masks of sr[j..]. The child branching on sr[i] draws its whole
  // subtree from sr[i..], so popcount(covered | suffix[i]) bounds its
  // final coverage — tighter than the node ceiling (which charges the
  // already-skipped prefix) and monotone non-increasing in i. Built
  // lazily, once per node, the first time a full collector makes the
  // bound consultable; entries below the triggering child stay zero and
  // are never read (the loop only moves forward).
  std::vector<CoverMask> suffix;
  const bool residual = options_.residual_bound && options_.keyword_pruning;

  for (size_t i = 0; i + need <= sr.size(); ++i) {
    if (StopRequested()) return;
    const Candidate& v = sr[i];

    // Parent-side bound for this child (cheap for VKC orders; skipped for
    // the static QKC order where it would cost a scan per child).
    if (options_.keyword_pruning && CollectorFull()) {
      if (ceiling <= PruneThreshold()) {
        ++stats_.keyword_prunes;
        if (instrument_) {
          RecordTrace(obs::TraceEventKind::kKeywordPrune, v.vertex, ceiling);
        }
        return;  // no child can beat the N-th result
      }
      if (options_.sort != SortStrategy::kQkc) {
        const int bound =
            covered_count + v.vkc + OptimisticGain(sr, i + 1, need - 1);
        if (bound <= PruneThreshold()) {
          ++stats_.keyword_prunes;
          if (instrument_) {
            RecordTrace(obs::TraceEventKind::kKeywordPrune, v.vertex, bound);
          }
          // sr is vkc-descending: later children only bound lower.
          return;
        }
      }
      if (residual) {
        if (suffix.empty()) {
          suffix.resize(sr.size() + 1);
          suffix[sr.size()] = 0;
          for (size_t j = sr.size(); j-- > i;) {
            suffix[j] = sr[j].mask | suffix[j + 1];
          }
        }
        const int clamp = PopCount(covered | suffix[i]);
        if (clamp <= PruneThreshold()) {
          // The additive bound passed but the child's own suffix cannot
          // reach past the N-th coverage.
          ++stats_.ub_prunes;
          if (instrument_) {
            RecordTrace(obs::TraceEventKind::kKeywordPrune, v.vertex, clamp);
          }
          return;  // suffix[i] ⊇ suffix[i+1]: later children clamp lower
        }
      }
    }

    // Lazy feasibility check (ablation mode): validate v against S_I now.
    if (!options_.eager_kline_filtering) {
      bool feasible = true;
      for (const VertexId m : members_) {
        if (!checker_.IsFartherThan(v.vertex, m, k_)) {
          feasible = false;
          break;
        }
      }
      if (!feasible) continue;
    }

    const CoverMask child_covered = covered | v.mask;
    CoverMask child_union = 0;
    std::vector<Candidate> child =
        BuildChildCandidates(sr, i, child_covered, &child_union);

    members_.push_back(v.vertex);
    Search(child, child_covered, child_union);
    members_.pop_back();
  }
}

std::vector<Group> KtgEngine::GreedySeeds(const std::vector<Candidate>& sr) {
  std::vector<Group> seeds;
  if (sr.size() < p_) return seeds;
  // Same restart budget shape as the greedy heuristic: each attempt skips
  // one more leading pivot; a few extra attempts absorb dead ends.
  const uint32_t max_attempts = top_n_ + 8;
  for (uint32_t skip = 0;
       seeds.size() < top_n_ && skip < max_attempts && skip < sr.size();
       ++skip) {
    auto g = GreedyConstructOnce(sr, skip, p_, k_, checker_,
                                 &stats_.kline_filtered);
    if (!g.has_value()) continue;
    // Restarts can reconverge to an already-found group; keep seeds unique
    // so they occupy distinct collector slots.
    if (std::find(seeds.begin(), seeds.end(), *g) == seeds.end()) {
      seeds.push_back(std::move(*g));
    }
  }
  stats_.groups_completed += seeds.size();
  return seeds;
}

uint32_t KtgEngine::EffectiveWorkers(size_t num_candidates) const {
  if (options_.num_threads == 1) return 1;
  if (!checker_.concurrent_read_safe()) return 1;
  if (num_candidates < p_) return 1;  // no feasible group at all
  const size_t num_roots = num_candidates - p_ + 1;
  const uint32_t requested = ThreadPool::Resolve(options_.num_threads);
  return static_cast<uint32_t>(
      std::max<size_t>(1, std::min<size_t>(requested, num_roots)));
}

bool KtgEngine::SearchRoot(const std::vector<Candidate>& sr, size_t i,
                           CoverMask sr_union, CoverMask root_suffix) {
  // One iteration of the Search() first-level loop: members_ is empty,
  // covered == 0, need == p_. Kept in lockstep with the serial loop body so
  // the explored subtree is identical (the recursive Search() call below
  // accounts the subtree's node, exactly as the serial loop does).
  const uint32_t need = p_;
  const Candidate& v = sr[i];
  const int ceiling = options_.ceiling_prune ? PopCount(sr_union)
                                             : std::numeric_limits<int>::max();
  if (options_.keyword_pruning && CollectorFull()) {
    const int threshold = PruneThreshold();
    if (ceiling <= threshold) {
      ++stats_.keyword_prunes;
      if (instrument_) {
        RecordTrace(obs::TraceEventKind::kKeywordPrune, v.vertex, ceiling);
      }
      return false;  // no root can beat the N-th result anymore
    }
    if (options_.sort != SortStrategy::kQkc) {
      const int bound = v.vkc + OptimisticGain(sr, i + 1, need - 1);
      if (bound <= threshold) {
        ++stats_.keyword_prunes;
        if (instrument_) {
          RecordTrace(obs::TraceEventKind::kKeywordPrune, v.vertex, bound);
        }
        return false;  // sr is vkc-descending: later roots bound lower
      }
    }
    if (options_.residual_bound) {
      // Residual clamp for this root (mirrors Search(); the coordinator
      // precomputed the suffix masks once for all roots).
      const int clamp = PopCount(root_suffix);
      if (clamp <= threshold) {
        ++stats_.ub_prunes;
        if (instrument_) {
          RecordTrace(obs::TraceEventKind::kKeywordPrune, v.vertex, clamp);
        }
        return false;  // suffix masks shrink with i: later roots clamp lower
      }
    }
  }

  // (The lazy-mode feasibility check is vacuous here: S_I is empty.)
  const CoverMask child_covered = v.mask;
  CoverMask child_union = 0;
  std::vector<Candidate> child =
      BuildChildCandidates(sr, i, child_covered, &child_union);

  members_.push_back(v.vertex);
  Search(child, child_covered, child_union);
  members_.pop_back();
  return true;
}

std::vector<Group> KtgEngine::ParallelRootSearch(
    const std::vector<Candidate>& sr, CoverMask sr_union, uint32_t workers,
    const std::vector<Group>& seeds) {
  // Suffix masks for the per-root residual clamp, built once for every
  // worker (see Search(); O(|sr|) here instead of O(|sr|) per root).
  std::vector<CoverMask> suffix(sr.size() + 1, 0);
  if (options_.residual_bound && options_.keyword_pruning) {
    for (size_t j = sr.size(); j-- > 0;) suffix[j] = sr[j].mask | suffix[j + 1];
  }
  const auto worker = [&](RootParallelShared& shared) {
    KtgEngine clone(graph_, index_, checker_, options_);
    clone.p_ = p_;
    clone.k_ = k_;
    clone.top_n_ = top_n_;
    clone.run_watch_ = run_watch_;  // same deadline origin as Run()
    clone.shared_ = &shared;
    // Every SearchRoot bound is non-increasing in the root index, so a
    // failed bound stops the claim loop (see core/root_parallel.h).
    shared.ClaimRoots([&](size_t i) {
      return clone.SearchRoot(sr, i, sr_union, suffix[i]) ? RootStep::kContinue
                                                          : RootStep::kStop;
    });
    return clone.stats_;
  };
  bool complete = true;
  std::vector<Group> groups =
      RunRootParallel(workers, top_n_, sr.size() - p_ + 1, seeds, worker,
                      &stats_, &complete);
  if (!complete) last_run_complete_ = false;
  return groups;
}

Result<KtgResult> KtgEngine::Run(const KtgQuery& query) {
  KTG_RETURN_IF_ERROR(ValidateQuery(query, graph_));

  Stopwatch watch;
  run_watch_ = watch;  // deadline origin == the query's wall-clock origin

  // Cross-query result cache: truncated searches (max_nodes/stop_at_count)
  // produce best-effort groups, so they neither consult nor populate it.
  // Non-exact modes bypass it too — a completed anytime run has the exact
  // coverage profile but possibly different tie representatives (the seeds
  // claim slots first), and cached entries must be mode-independent.
  QueryKey cache_key;
  const bool cacheable = options_.cache != nullptr && options_.max_nodes == 0 &&
                         options_.stop_at_count == 0 &&
                         options_.mode == EngineMode::kExact;
  if (cacheable) {
    cache_key = CanonicalQueryKey(query, kEngineTagKtg, options_.sort,
                                  options_.degree_ascending);
    KtgResult cached;
    if (options_.cache->LookupQuery(cache_key, graph_, query, &cached,
                                    options_.snapshot_epoch)) {
      cached.stats.elapsed_ms = watch.ElapsedMillis();
      cached.stats.cpu_ms = cached.stats.elapsed_ms;
      last_run_complete_ = true;
      RecordSearchStats(options_.metrics, cached.stats, "engine");
      return cached;
    }
  }
  p_ = query.group_size;
  k_ = query.tenuity;
  top_n_ = query.top_n;
  collector_ = TopNCollector(query.top_n);
  members_.clear();
  stats_ = SearchStats{};
  stop_ = false;
  last_run_complete_ = true;

  const CheckerCounters checker_before = SnapshotChecker(checker_);

  uint64_t excluded = 0;
  std::vector<Candidate> sr;
  {
    obs::PhaseTimer timer(&stats_.phases, obs::Phase::kCandidateGen);
    sr = ExtractCandidates(graph_, index_, query, checker_, &excluded);
    stats_.candidates = sr.size();
    stats_.kline_filtered += excluded;
    SortCandidates(sr);
  }

  CoverMask sr_union = 0;
  for (const Candidate& c : sr) sr_union |= c.mask;

  // Root upper bound on any feasible group's coverage: |W_Q|, the reachable
  // union, and the additive sum of the p best initial coverages are each
  // sound, so their min is. Truncated runs report gap = root_ub - best.
  const int root_ub =
      sr.size() < p_
          ? 0
          : std::min({static_cast<int>(query.num_keywords()),
                      PopCount(sr_union), OptimisticGain(sr, 0, p_)});

  // Anytime warm start (greedy seeds; see GreedySeeds). kPortfolio reaching
  // the engine directly is treated the same — the portfolio itself lives in
  // src/heur/ and dispatches before Run().
  std::vector<Group> seeds;
  if (options_.mode != EngineMode::kExact) {
    obs::PhaseTimer timer(&stats_.phases, obs::Phase::kBbSearch);
    seeds = GreedySeeds(sr);
  }

  KtgResult result;
  const uint32_t workers = EffectiveWorkers(sr.size());
  if (workers <= 1) {
    {
      obs::PhaseTimer timer(&stats_.phases, obs::Phase::kBbSearch);
      for (Group& g : seeds) collector_.Offer(std::move(g));
      Search(sr, 0, sr_union);
    }
    obs::PhaseTimer timer(&stats_.phases, obs::Phase::kTopNMerge);
    result.groups = collector_.Take();
  } else {
    result.groups = ParallelRootSearch(sr, sr_union, workers, seeds);
  }
  result.query_keyword_count = query.num_keywords();
  const int best_found =
      result.groups.empty() ? 0 : result.groups.front().covered();
  if (last_run_complete_) {
    // Complete search: best_found is the optimum, the bound collapses.
    stats_.upper_bound = best_found;
    stats_.gap = 0;
  } else {
    stats_.upper_bound = root_ub;
    stats_.gap = std::max(0, root_ub - best_found);
  }
  stats_.distance_checks = checker_.num_checks() - checker_before.checks;
  FinishRunClocks(watch, workers > 1, &stats_);
  result.stats = stats_;
  if (cacheable && last_run_complete_) {
    options_.cache->StoreQuery(cache_key, result, options_.snapshot_epoch);
  }
  RecordSearchStats(options_.metrics, stats_, "engine");
  if (options_.mode != EngineMode::kExact || options_.time_budget_ms > 0 ||
      options_.max_nodes != 0) {
    RecordAnytimeStats(options_.metrics, stats_, last_run_complete_,
                       seeds.size());
  }
  RecordCheckerDelta(options_.metrics, checker_, checker_before);
  return result;
}

Result<KtgResult> RunKtg(const AttributedGraph& graph,
                         const InvertedIndex& index, DistanceChecker& checker,
                         const KtgQuery& query, EngineOptions options) {
  KtgEngine engine(graph, index, checker, options);
  return engine.Run(query);
}

}  // namespace ktg
