// Copyright (c) 2026 The ktg Authors.
// Root-parallel branch-and-bound: the one driver both exact engines use
// when a query runs on more than one thread.
//
// The first level of the search tree is split by root: root i is the
// subtree whose first member is candidate i in the engine's root rank.
// Workers claim roots from one ascending cursor, search each with private
// state, and share one SharedTopN whose threshold is the pruning bound, so
// every worker prunes against every other worker's results. The driver
// owns the pool, the shared top-N (seeded before any claim), the cursor,
// the global node budget and stop flag, and the merge of the workers'
// counters; each engine supplies only a per-worker state and a per-root
// step.
//
// Soundness of RootStep::kStop. A step may stop its worker's claim loop
// only when the bound that failed is non-increasing in the root index
// (the threshold never decreases, so the bound then fails for every later
// root too). Because there is one ascending cursor, every root below the
// failing one has already been claimed by some worker, so stopping leaves
// no root that could still contribute unclaimed. A bound that is not
// monotone in the root index (e.g. one that depends on the root's own
// conflict set) must return kSkip instead.

#ifndef KTG_CORE_ROOT_PARALLEL_H_
#define KTG_CORE_ROOT_PARALLEL_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "core/query.h"
#include "core/topn.h"
#include "util/align.h"
#include "util/timer.h"

namespace ktg {

/// What a worker's per-root step reports back to the claim loop.
enum class RootStep {
  kContinue,  ///< the root was searched; claim the next one
  kSkip,      ///< a root-local bound pruned this root; claim the next one
  kStop,      ///< a monotone bound failed: no later root can contribute
};

/// State shared by every worker of one root-parallel run.
class RootParallelShared {
 public:
  RootParallelShared(uint32_t top_n, size_t num_roots)
      : topn(top_n), num_roots_(num_roots) {}

  RootParallelShared(const RootParallelShared&) = delete;
  RootParallelShared& operator=(const RootParallelShared&) = delete;

  /// The shared result set; its threshold is every worker's pruning bound.
  SharedTopN topn;
  /// Nodes expanded across all workers, charged against the node budget.
  /// Starts at 1: the virtual root node the coordinator accounts for.
  PaddedAtomic<uint64_t> nodes{1};
  /// Raised by any worker that truncates the run (node budget, deadline,
  /// stop_at_count); every worker polls it and the run is then incomplete.
  PaddedAtomic<bool> stop{false};

  /// The claim loop. Calls `step(root)` for roots taken from the shared
  /// ascending cursor until the cursor is exhausted, `step` returns
  /// RootStep::kStop, or `stop` is raised. Each root is handed to exactly
  /// one call across all workers.
  void ClaimRoots(const std::function<RootStep(size_t root)>& step);

 private:
  const size_t num_roots_;
  // Padded: every worker hits the cursor on every claim.
  PaddedAtomic<size_t> next_root_{0};
};

/// One worker's body: builds the worker's private search state, calls
/// `shared.ClaimRoots` once, and returns the worker's counters. Runs on a
/// pool thread.
using RootWorkerFn = std::function<SearchStats(RootParallelShared& shared)>;

/// Searches roots [0, num_roots) on `workers` threads. `seeds` are offered
/// into the shared top-N before any root is claimed. After every worker
/// has joined: the workers' counters are merged into `*stats` (their
/// cpu_ms are the workers' wall-clocks, summed; elapsed_ms is left to the
/// caller), the virtual root is counted as one expanded node, and
/// `*complete` is false iff some worker raised the stop flag. The pool run
/// is charged to the bb_search phase and the final merge to topn_merge.
/// Returns the groups in TopNCollector order.
std::vector<Group> RunRootParallel(uint32_t workers, uint32_t top_n,
                                   size_t num_roots,
                                   const std::vector<Group>& seeds,
                                   const RootWorkerFn& worker,
                                   SearchStats* stats, bool* complete);

/// Closes a run's clocks; call after every worker has joined. elapsed_ms
/// is the wall-clock since `watch` started. cpu_ms equals elapsed_ms for a
/// serial run; for a parallel run it is the workers' summed wall-clocks
/// (already in stats->cpu_ms) plus the coordinator's serial candidate_gen
/// and topn_merge phases.
void FinishRunClocks(const Stopwatch& watch, bool parallel,
                     SearchStats* stats);

}  // namespace ktg

#endif  // KTG_CORE_ROOT_PARALLEL_H_
