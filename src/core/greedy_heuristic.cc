// Copyright (c) 2026 The ktg Authors.

#include "core/greedy_heuristic.h"

#include <algorithm>

#include "core/obs_bridge.h"
#include "core/run_frame.h"
#include "core/topn.h"
#include "obs/phase_timer.h"
#include "obs/query_trace.h"
#include "util/timer.h"

namespace ktg {
namespace {

// Restarts --algo greedy allows when constructions dead-end before size p
// (each restart skips one more leading candidate).
constexpr uint32_t kMaxRestarts = 16;

// Index of the best candidate under (VKC desc, degree asc, position asc)
// after refreshing VKC against `covered`; pool.size() when empty.
size_t SelectBest(std::vector<Candidate>& pool, CoverMask covered) {
  size_t best = pool.size();
  for (size_t i = 0; i < pool.size(); ++i) {
    Candidate& c = pool[i];
    c.vkc = PopCount(NovelBits(c.mask, covered));
    if (best == pool.size()) {
      best = i;
      continue;
    }
    const Candidate& b = pool[best];
    if (c.vkc != b.vkc) {
      if (c.vkc > b.vkc) best = i;
    } else if (c.degree < b.degree) {
      best = i;
    }
  }
  return best;
}

}  // namespace

std::optional<Group> GreedyConstruct(std::vector<Candidate> pool,
                                     uint32_t skip, uint32_t p, HopDistance k,
                                     DistanceChecker& checker,
                                     SearchStats* stats) {
  for (uint32_t s = 0; s < skip; ++s) {
    const size_t drop = SelectBest(pool, 0);
    if (drop == pool.size()) return std::nullopt;
    pool.erase(pool.begin() + static_cast<int64_t>(drop));
  }

  Group group;
  CoverMask covered = 0;
  while (group.members.size() < p) {
    const size_t best = SelectBest(pool, covered);
    if (best == pool.size()) return std::nullopt;  // pool exhausted

    const Candidate chosen = pool[best];
    pool.erase(pool.begin() + static_cast<int64_t>(best));
    group.members.push_back(chosen.vertex);
    covered |= chosen.mask;

    std::vector<Candidate> next;
    next.reserve(pool.size());
    for (const Candidate& c : pool) {
      if (checker.IsFartherThan(c.vertex, chosen.vertex, k,
                                &stats->distance_checks)) {
        next.push_back(c);
      } else {
        ++stats->kline_filtered;
      }
    }
    pool.swap(next);
    ++stats->nodes_expanded;
  }

  std::sort(group.members.begin(), group.members.end());
  group.mask = covered;
  return group;
}

Result<KtgResult> RunKtgGreedy(const AttributedGraph& graph,
                               const InvertedIndex& index,
                               DistanceChecker& checker,
                               const KtgQuery& query, GreedyOptions options) {
  KTG_RETURN_IF_ERROR(ValidateQuery(query, graph));
  Stopwatch watch;
  SearchStats stats;
  CheckerCounters checker_before;
  const std::vector<Candidate> pool =
      ExtractRunCandidates(graph, index, checker, query, options.metrics,
                           &stats, &checker_before);

  TopNCollector collector(query.top_n);
  {
    // The construction loop is the greedy counterpart of the tree walk; its
    // inner k-line passes are not separately timed (they dominate it anyway).
    obs::PhaseTimer timer(&stats.phases, obs::Phase::kBbSearch);
    // Each attempt skips one more leading pivot; stop when N groups are held
    // or the restart budget is spent.
    for (uint32_t skip = 0;
         collector.size() < query.top_n && skip <= kMaxRestarts; ++skip) {
      std::optional<Group> group = GreedyConstruct(
          pool, skip, query.group_size, query.tenuity, checker, &stats);
      if (group.has_value()) {
        ++stats.groups_completed;
        if (options.trace != nullptr) {
          options.trace->Record(obs::TraceEventKind::kOffer, query.group_size,
                                group->members.front(), group->covered());
        }
        collector.Offer(std::move(*group));
      }
      if (skip >= pool.size()) break;
    }
  }

  KtgResult result;
  {
    obs::PhaseTimer timer(&stats.phases, obs::Phase::kTopNMerge);
    result.groups = collector.Take();
  }
  result.query_keyword_count = query.num_keywords();
  stats.elapsed_ms = watch.ElapsedMillis();
  stats.cpu_ms = stats.elapsed_ms;  // single-threaded construction
  result.stats = stats;
  RecordSearchStats(options.metrics, stats, "greedy");
  RecordCheckerDelta(options.metrics, checker, checker_before,
                     stats.distance_checks);
  return result;
}

}  // namespace ktg
