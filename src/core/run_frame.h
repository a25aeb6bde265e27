// Copyright (c) 2026 The ktg Authors.
// The query run frame: the sequence the exact engine answers a query in
// (Section IV) — validate, extract S_R, rank, search, report the top-N.
// The engine supplies only its ranking and search. The frame owns the
// prologue (validation, the run clock, the cache lookup, candidate
// extraction) and the epilogue (bound and gap, clocks, completeness, the
// cache store, the metrics flush); docs/architecture.md lists each step.
//
// The cache rule, stated once. A run looks its result up when all hold:
//   * a cache is attached (options.cache),
//   * options.mode == kExact,
//   * options.max_nodes == 0, and
//   * options.stop_at_count == 0 (such runs stop early by design).
// The key holds the query and the options that break coverage ties
// (sort, degree_ascending). A time budget or a thread count does not block a lookup. A run's result
// is stored only when the run also completed on one worker. Every stored
// result is therefore a complete serial run's, and a hit is bit-identical
// to an uncached serial run at any thread count and under any deadline.

#ifndef KTG_CORE_RUN_FRAME_H_
#define KTG_CORE_RUN_FRAME_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "core/candidates.h"
#include "core/obs_bridge.h"
#include "core/options.h"
#include "core/query.h"
#include "index/distance_checker.h"
#include "keywords/attributed_graph.h"
#include "keywords/inverted_index.h"
#include "util/status.h"
#include "util/timer.h"

namespace ktg {

/// Sound upper bound on any feasible size-`p` group's coverage:
/// min(|W_Q|, popcount of the candidate-mask union, sum of the p largest
/// vkc values); 0 when fewer than p candidates exist. Any candidate order.
int RootUpperBound(const std::vector<Candidate>& cands, uint32_t p,
                   uint32_t num_keywords);

/// The prologue's candidate step, shared by the frame and --algo greedy:
/// enables the checker's detail counters when `metrics` is attached,
/// snapshots its counters into `*checker_before`, and extracts S_R under
/// the candidate_gen timer. Records |S_R| in stats->candidates and adds the
/// query-vertex exclusions to stats->kline_filtered.
std::vector<Candidate> ExtractRunCandidates(const AttributedGraph& graph,
                                            const InvertedIndex& index,
                                            DistanceChecker& checker,
                                            const KtgQuery& query,
                                            obs::MetricsRegistry* metrics,
                                            SearchStats* stats,
                                            CheckerCounters* checker_before);

/// What the engine's search hands back to the frame.
struct SearchOutcome {
  /// The top-N in TopNCollector order.
  std::vector<Group> groups;
  /// False when a node budget, deadline or early stop cut the search.
  bool complete = true;
  /// True when the search ran on more than one worker.
  bool parallel = false;
  /// Anytime warm-start groups offered before the search.
  size_t seeded = 0;
};

/// The engine's search over the extracted candidates. It may rank (reorder)
/// `cands` in place; `run_watch` is the run clock (the deadline origin);
/// counters and phases go to `stats`, which already holds the prologue's.
/// An error aborts the run without an epilogue.
using FrameSearch = std::function<Result<SearchOutcome>(
    std::vector<Candidate>& cands, const Stopwatch& run_watch,
    SearchStats* stats)>;

/// Runs `query` in the frame: prologue, `search`, epilogue. The run's
/// metrics go to the `engine.*` family.
Result<KtgResult> RunInFrame(const AttributedGraph& graph,
                             const InvertedIndex& index,
                             DistanceChecker& checker, const KtgQuery& query,
                             const EngineOptions& options,
                             const FrameSearch& search);

}  // namespace ktg

#endif  // KTG_CORE_RUN_FRAME_H_
