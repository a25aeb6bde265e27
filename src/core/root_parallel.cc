// Copyright (c) 2026 The ktg Authors.

#include "core/root_parallel.h"

#include <algorithm>
#include <mutex>

#include "obs/phase_timer.h"
#include "util/thread_pool.h"

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
      std::min<size_t>(ThreadPool::Resolve(num_threads), num_roots));
}

std::vector<Group> RunRootParallel(uint32_t workers, uint32_t top_n,
                                   size_t num_roots,
                                   const std::vector<Group>& seeds,
                                   const RootWorkerFn& worker,
                                   SearchStats* stats, bool* complete) {
  RootParallelShared shared(top_n, num_roots);
  // Anytime warm start: seeded before any claim, so the first threshold
  // snapshot a worker reads already reflects the seeds.
  for (const Group& g : seeds) shared.topn.Offer(g);

  std::mutex agg_mu;
  SearchStats agg;
  {
    obs::PhaseTimer bb_timer(&stats->phases, obs::Phase::kBbSearch);
    ThreadPool pool(workers);
    for (uint32_t w = 0; w < workers; ++w) {
      pool.Submit([&] {
        Stopwatch worker_watch;
        SearchStats s = worker(shared);
        s.cpu_ms = worker_watch.ElapsedMillis();
        std::lock_guard<std::mutex> lock(agg_mu);
        agg += s;
      });
    }
  }  // the pool joins here, inside the bb_search scope

  // Worker phase entries hold only the kline_filter sub-phase (their
  // top-level timers never ran); summing them attributes worker CPU.
  agg.elapsed_ms = 0.0;
  *stats += agg;
  ++stats->nodes_expanded;  // the virtual root counted in `nodes`
  *complete = !shared.stop.value.load(std::memory_order_relaxed);
  obs::PhaseTimer merge_timer(&stats->phases, obs::Phase::kTopNMerge);
  return shared.topn.Take();
}

}  // namespace ktg
