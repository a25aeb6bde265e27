// Copyright (c) 2026 The ktg Authors.

#include "core/root_parallel.h"

#include <algorithm>
#include <mutex>

#include "obs/phase_timer.h"
#include "util/executor.h"
#include "util/macros.h"

namespace ktg {

void RootParallelShared::ClaimRoots(
    const std::function<RootStep(size_t root)>& step) {
  while (!stop.value.load(std::memory_order_relaxed)) {
    const size_t root =
        next_root_.value.fetch_add(1, std::memory_order_relaxed);
    if (root >= num_roots_) return;
    if (step(root) == RootStep::kStop) return;
  }
}

uint32_t RootWorkers(uint32_t num_threads, size_t num_roots) {
  if (num_threads == 1 || num_roots <= 1) return 1;
  return static_cast<uint32_t>(
      std::min<size_t>(ResolveThreads(num_threads), num_roots));
}

std::vector<Group> RunRootParallel(uint32_t workers, uint32_t top_n,
                                   size_t num_roots,
                                   const std::vector<Group>& seeds,
                                   const RootWorkerFn& worker,
                                   SearchStats* stats, bool* complete) {
  // Everything the workers share, behind one reference so the executor's
  // body fits std::function's inline storage: no allocation per run.
  struct Run {
    RootParallelShared shared;
    const RootWorkerFn& worker;
    std::mutex mu;
    SearchStats agg;  // the workers' merged counters, guarded by mu
  } run{{top_n, num_roots}, worker, {}, {}};
  // Anytime warm start: seeded before any claim, so the first threshold
  // snapshot a worker reads already reflects the seeds.
  for (const Group& g : seeds) run.shared.topn.Offer(g);

  {
    obs::PhaseTimer bb_timer(&stats->phases, obs::Phase::kBbSearch);
    // Each worker's wall-clock is its cpu_ms. A throw stops the whole run.
    RunWorkers(workers, [&run](uint32_t) {
      SearchStats s;
      try {
        const Stopwatch watch;
        s = run.worker(run.shared);
        s.cpu_ms = watch.ElapsedMillis();
      } catch (...) {
        run.shared.stop.value.store(true, std::memory_order_relaxed);
        throw;
      }
      std::lock_guard<std::mutex> lock(run.mu);
      run.agg += s;
    });
  }  // every joined helper has finished, inside the bb_search scope

  // Worker phase entries hold only the kline_filter sub-phase (their
  // top-level timers never ran); summing them attributes worker CPU.
  run.agg.elapsed_ms = 0.0;
  *stats += run.agg;
  ++stats->nodes_expanded;  // the virtual root counted in `nodes`
  *complete = !run.shared.stop.value.load(std::memory_order_relaxed);
  obs::PhaseTimer merge_timer(&stats->phases, obs::Phase::kTopNMerge);
  return run.shared.topn.Take();
}

}  // namespace ktg
