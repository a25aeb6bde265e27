// Copyright (c) 2026 The ktg Authors.
// Root-parallel branch-and-bound: the driver the exact engine uses when a
// query runs on more than one thread, and the per-node run controls every
// search (serial or one worker) consults.
//
// The first level of the search tree is split by root: root i is the
// subtree whose first member is candidate i in the engine's root rank.
// Workers claim roots from one ascending cursor, search each with private
// state, and share one SharedTopN whose threshold is the pruning bound, so
// every worker prunes against every other worker's results. The driver
// owns the shared top-N (seeded before any claim), the cursor, the global
// node budget and stop flag, and the merge of the workers' counters; the
// engine supplies only a per-worker state and a per-root step.
//
// Threads. The workers run on the process-wide executor (util/executor.h):
// the calling thread is worker 0, helpers that start after it finished its
// claims do nothing, and a run started from inside a worker, or from many
// threads at once, cannot deadlock.
//
// Soundness of RootStep::kStop. A step may stop its worker's claim loop
// only when the bound that failed is non-increasing in the root index
// (the threshold never decreases, so the bound then fails for every later
// root too). Because there is one ascending cursor, every root below the
// failing one has already been claimed by some worker, so stopping leaves
// no root that could still contribute unclaimed. A bound that is not
// monotone in the root index must prune only its own root and return
// kContinue.

#ifndef KTG_CORE_ROOT_PARALLEL_H_
#define KTG_CORE_ROOT_PARALLEL_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "core/options.h"
#include "core/query.h"
#include "core/topn.h"
#include "util/align.h"
#include "util/timer.h"

namespace ktg {

/// What a worker's per-root step reports back to the claim loop.
enum class RootStep {
  kContinue,  ///< the root was searched or pruned; claim the next one
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
/// `shared.ClaimRoots` once, and returns the worker's counters (its
/// distance checks among them, tallied privately). Runs on the calling
/// thread and on each helper that joins the run.
using RootWorkerFn = std::function<SearchStats(RootParallelShared& shared)>;

/// Worker count of a root-parallel run: 1 when `num_threads` is 1 or at
/// most one root exists, else ResolveThreads(num_threads) capped at
/// `num_roots`.
uint32_t RootWorkers(uint32_t num_threads, size_t num_roots);

/// Searches roots [0, num_roots) on up to `workers` (>= 1) threads: the
/// calling thread and `workers - 1` helpers, of which those that start
/// before the caller's claim loop ends take part. `seeds` are offered into
/// the shared top-N before any root is claimed. After every participating
/// worker has finished: the workers' counters are merged into `*stats`
/// (their cpu_ms are the workers' wall-clocks, the caller's included,
/// summed; elapsed_ms is left to the caller), the virtual root is counted
/// as one expanded node, and `*complete` is false iff some worker raised
/// the stop flag. The workers' run is charged to the bb_search phase and
/// the final merge to topn_merge. Returns the groups in TopNCollector
/// order. A worker body that throws stops the run; the first exception is
/// rethrown here once every participating worker has finished.
std::vector<Group> RunRootParallel(uint32_t workers, uint32_t top_n,
                                   size_t num_roots,
                                   const std::vector<Group>& seeds,
                                   const RootWorkerFn& worker,
                                   SearchStats* stats, bool* complete);

/// The per-node run controls of one search: a serial run, or one worker of
/// a root-parallel run. The engine calls them on every node. They
/// route offers and the pruning threshold to the serial TopNCollector or
/// to the run's SharedTopN, charge the node budget (the search's own count
/// serially, the shared count in parallel), poll the deadline, and hold
/// the truncation flag. Header-inline: they sit on the search's hot path.
class RunControls {
 public:
  /// The deadline is polled every kDeadlinePollMask+1 node expansions, so
  /// the clock read is amortized over a node batch.
  static constexpr uint64_t kDeadlinePollMask = 0x3F;

  RunControls() = default;
  /// Controls of a serial search offering into `collector`, or, when
  /// `shared` is set, of one worker of that root-parallel run. `run_watch`
  /// is the run clock, the origin of options.time_budget_ms.
  RunControls(const EngineOptions& options, const Stopwatch& run_watch,
              TopNCollector* collector, RootParallelShared* shared = nullptr)
      : collector_(collector),
        shared_(shared),
        max_nodes_(options.max_nodes),
        time_budget_ms_(options.time_budget_ms),
        run_watch_(run_watch) {}

  /// True once N groups are held (the pruning threshold is live).
  bool Full() const {
    return shared_ != nullptr ? shared_->topn.full() : collector_->full();
  }
  /// The N-th coverage count once Full(), -1 before.
  int Threshold() const {
    return shared_ != nullptr ? shared_->topn.threshold()
                              : collector_->threshold();
  }
  void Offer(Group g) {
    if (shared_ != nullptr) {
      shared_->topn.Offer(std::move(g));
    } else {
      collector_->Offer(std::move(g));
    }
  }

  /// True once this search stopped the run or saw another worker stop it.
  bool StopRequested() {
    if (stop_) return true;
    if (shared_ != nullptr &&
        shared_->stop.value.load(std::memory_order_relaxed)) {
      stop_ = true;
      return true;
    }
    return false;
  }
  /// Truncates the run: this search stops, and so does every worker.
  void RequestStop() {
    stop_ = true;
    if (shared_ != nullptr) {
      shared_->stop.value.store(true, std::memory_order_relaxed);
    }
  }

  /// Charges the node the search just expanded (`expanded` is the search's
  /// own running count, this node included) against the node budget, and
  /// polls the deadline. Each worker polls on its own count, so the shared
  /// stop flag fans a timeout out to the others within one batch. Returns
  /// false, with the run stopped, when either budget is spent.
  bool ChargeNode(uint64_t expanded) {
    if (max_nodes_ != 0) {
      const uint64_t charged =
          shared_ == nullptr
              ? expanded
              : shared_->nodes.value.fetch_add(1, std::memory_order_relaxed) +
                    1;
      if (charged > max_nodes_) {
        RequestStop();
        return false;
      }
    }
    if (time_budget_ms_ > 0 && (expanded & kDeadlinePollMask) == 0 &&
        run_watch_.ElapsedMillis() > time_budget_ms_) {
      RequestStop();
      return false;
    }
    return true;
  }

  /// True when this search was truncated. A serial run is complete iff
  /// this stays false; a parallel run's completeness is the driver's.
  bool stopped() const { return stop_; }

 private:
  TopNCollector* collector_ = nullptr;
  RootParallelShared* shared_ = nullptr;
  uint64_t max_nodes_ = 0;
  double time_budget_ms_ = 0.0;
  Stopwatch run_watch_{Stopwatch::kUnstarted};
  bool stop_ = false;
};

}  // namespace ktg

#endif  // KTG_CORE_ROOT_PARALLEL_H_
