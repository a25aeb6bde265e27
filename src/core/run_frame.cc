// Copyright (c) 2026 The ktg Authors.

#include "core/run_frame.h"

#include <algorithm>
#include <functional>
#include <numeric>
#include <string>

#include "cache/ktg_cache.h"
#include "cache/query_key.h"
#include "obs/phase_timer.h"

namespace ktg {

Status CheckConflictCandidates(size_t num_candidates, std::string_view who) {
  if (num_candidates <= kMaxConflictCandidates) return Status::OK();
  return Status::ResourceExhausted("candidate set too large for the " +
                                   std::string(who) + ": " +
                                   std::to_string(num_candidates));
}

int RootUpperBound(const std::vector<Candidate>& cands, uint32_t p,
                   uint32_t num_keywords) {
  if (cands.size() < p) return 0;
  CoverMask reach = 0;
  std::vector<int> vkc;
  vkc.reserve(cands.size());
  for (const Candidate& c : cands) {
    reach |= c.mask;
    vkc.push_back(c.vkc);
  }
  std::partial_sort(vkc.begin(), vkc.begin() + p, vkc.end(),
                    std::greater<>());
  const int additive = std::accumulate(vkc.begin(), vkc.begin() + p, 0);
  return std::min({static_cast<int>(num_keywords), PopCount(reach), additive});
}

std::vector<Candidate> ExtractRunCandidates(const AttributedGraph& graph,
                                            const InvertedIndex& index,
                                            DistanceChecker& checker,
                                            const KtgQuery& query,
                                            obs::MetricsRegistry* metrics,
                                            SearchStats* stats,
                                            CheckerCounters* checker_before) {
  if (metrics != nullptr) checker.EnableDetailStats();
  *checker_before = SnapshotChecker(checker);
  obs::PhaseTimer timer(&stats->phases, obs::Phase::kCandidateGen);
  uint64_t excluded = 0;
  std::vector<Candidate> cands =
      ExtractCandidates(graph, index, query, checker, &excluded);
  stats->candidates = cands.size();
  stats->kline_filtered += excluded;
  return cands;
}

Result<KtgResult> RunInFrame(const AttributedGraph& graph,
                             const InvertedIndex& index,
                             DistanceChecker& checker, const KtgQuery& query,
                             const SearchOptions& options,
                             std::string_view metrics_prefix,
                             const std::optional<CacheKeySpec>& key,
                             const FrameSearch& search) {
  KTG_RETURN_IF_ERROR(ValidateQuery(query, graph));
  const Stopwatch watch;

  const bool cached_mode = options.cache != nullptr && key.has_value() &&
                           options.mode == EngineMode::kExact &&
                           options.max_nodes == 0;
  QueryKey cache_key;
  if (cached_mode) {
    cache_key = CanonicalQueryKey(query, key->engine_tag, key->sort,
                                  key->degree_ascending);
    KtgResult cached;
    if (options.cache->LookupQuery(cache_key, graph, query, &cached,
                                   options.snapshot_epoch)) {
      cached.stats.complete = true;
      cached.stats.elapsed_ms = watch.ElapsedMillis();
      cached.stats.cpu_ms = cached.stats.elapsed_ms;
      RecordSearchStats(options.metrics, cached.stats, metrics_prefix);
      return cached;
    }
  }

  SearchStats stats;
  CheckerCounters checker_before;
  std::vector<Candidate> cands =
      ExtractRunCandidates(graph, index, checker, query, options.metrics,
                           &stats, &checker_before);
  Result<SearchOutcome> outcome = search(cands, watch, &stats);
  if (!outcome.ok()) return outcome.status();

  KtgResult result;
  result.groups = std::move(outcome->groups);
  result.query_keyword_count = query.num_keywords();
  const int best_found =
      result.groups.empty() ? 0 : result.groups.front().covered();
  // A complete search found the optimum, so the bound collapses onto it.
  stats.upper_bound =
      outcome->complete
          ? best_found
          : RootUpperBound(cands, query.group_size, query.num_keywords());
  stats.gap = std::max(0, stats.upper_bound - best_found);
  stats.complete = outcome->complete;
  stats.distance_checks = checker.num_checks() - checker_before.checks;
  // The run clocks, closed after every worker has joined. A serial run's
  // cpu_ms is its elapsed_ms; a parallel run's is the workers' summed
  // wall-clocks (RunRootParallel) plus the coordinator's serial
  // candidate_gen and topn_merge phases.
  stats.elapsed_ms = watch.ElapsedMillis();
  stats.cpu_ms = outcome->parallel
                     ? stats.cpu_ms + stats.phases[obs::Phase::kCandidateGen] +
                           stats.phases[obs::Phase::kTopNMerge]
                     : stats.elapsed_ms;
  result.stats = stats;
  if (cached_mode && outcome->complete && !outcome->parallel) {
    options.cache->StoreQuery(cache_key, result, options.snapshot_epoch);
  }
  RecordSearchStats(options.metrics, stats, metrics_prefix);
  if (options.mode != EngineMode::kExact || options.time_budget_ms > 0 ||
      options.max_nodes != 0) {
    RecordAnytimeStats(options.metrics, stats, outcome->complete,
                       outcome->seeded);
  }
  RecordCheckerDelta(options.metrics, checker, checker_before);
  return result;
}

}  // namespace ktg
