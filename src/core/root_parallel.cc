// Copyright (c) 2026 The ktg Authors.

#include "core/root_parallel.h"

#include <sched.h>

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>

#include "obs/phase_timer.h"
#include "util/macros.h"
#include "util/thread_pool.h"

namespace ktg {

namespace {

// A thread's CPU affinity mask. Helpers run a run's worker body under the
// mask of the thread that started the run; without that, helpers created
// while the process was pinned to one CPU would stay there.
struct CpuMask {
  cpu_set_t set;
  bool valid = false;

  static CpuMask OfThisThread() {
    CpuMask m;
    CPU_ZERO(&m.set);
    m.valid = sched_getaffinity(0, sizeof(m.set), &m.set) == 0;
    return m;
  }

  // Moves this thread onto `want` unless `*mine` (this thread's mask, as
  // last read or set) already equals it.
  static void Adopt(const CpuMask& want, CpuMask* mine) {
    if (!want.valid) return;
    if (mine->valid && CPU_EQUAL(&want.set, &mine->set)) return;
    if (sched_setaffinity(0, sizeof(want.set), &want.set) == 0) *mine = want;
  }
};

// One root-parallel run, held by the caller and by every helper task queued
// for it, so a task can outlive the call. A helper that starts after the
// caller closed the run touches only `mu` and `closed`; the caller waits
// only for helpers that entered before it closed.
struct RootRun {
  RootRun(uint32_t top_n, size_t num_roots, const RootWorkerFn& fn)
      : shared(top_n, num_roots), worker(fn), cpus(CpuMask::OfThisThread()) {}

  RootParallelShared shared;
  const RootWorkerFn& worker;  // the caller's; read only by entered helpers
  const CpuMask cpus;          // the caller's affinity

  std::mutex mu;
  std::condition_variable drained;
  bool closed = false;  // the caller finished its own claims
  uint32_t active = 0;  // helpers inside the worker body
  SearchStats agg;      // the workers' merged counters
  std::exception_ptr error;  // the first worker body that threw

  // Ends the caller's part: no helper joins after this, and it returns
  // once every helper that joined has finished.
  void Close() {
    std::unique_lock<std::mutex> lock(mu);
    closed = true;
    drained.wait(lock, [this] { return active == 0; });
  }
};

// Runs the worker body once and returns its counters, with its wall-clock
// as cpu_ms. A throw stops the whole run and is kept for the caller.
SearchStats Work(RootRun& run) {
  SearchStats s;
  try {
    const Stopwatch watch;
    s = run.worker(run.shared);
    s.cpu_ms = watch.ElapsedMillis();
  } catch (...) {
    run.shared.stop.value.store(true, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(run.mu);
    if (run.error == nullptr) run.error = std::current_exception();
  }
  return s;
}

// The process-wide helper threads of every root-parallel run. Started on
// first use and grown to the largest helper count any run has asked for;
// never shrunk. They are joined at exit, after the queue has drained.
class RootExecutor {
 public:
  static RootExecutor& Get() {
    static RootExecutor executor;
    return executor;
  }

  RootExecutor(const RootExecutor&) = delete;
  RootExecutor& operator=(const RootExecutor&) = delete;

  ~RootExecutor() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      shutdown_ = true;
    }
    ready_.notify_all();
    for (std::thread& t : threads_) t.join();
  }

  // Queues `helpers` tasks of `run`, first growing to `helpers` threads.
  void Recruit(uint32_t helpers, const std::shared_ptr<RootRun>& run) {
    if (helpers == 0) return;
    {
      std::lock_guard<std::mutex> lock(mu_);
      while (threads_.size() < helpers) {
        threads_.emplace_back([this] { HelperLoop(); });
      }
      for (uint32_t i = 0; i < helpers; ++i) queue_.push_back(run);
    }
    // One wake-up per task: waking idle threads beyond them would only
    // cost the run's CPU.
    for (uint32_t i = 0; i < helpers; ++i) ready_.notify_one();
  }

 private:
  RootExecutor() = default;

  void HelperLoop() {
    CpuMask mine = CpuMask::OfThisThread();
    while (true) {
      std::shared_ptr<RootRun> run;
      {
        std::unique_lock<std::mutex> lock(mu_);
        ready_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
        if (queue_.empty()) return;  // shut down with a drained queue
        run = std::move(queue_.front());
        queue_.pop_front();
      }
      Help(*run, &mine);
    }
  }

  static void Help(RootRun& run, CpuMask* mine) {
    {
      std::lock_guard<std::mutex> lock(run.mu);
      if (run.closed) return;  // late: the caller is not waiting for us
      ++run.active;
    }
    CpuMask::Adopt(run.cpus, mine);
    const SearchStats s = Work(run);
    std::lock_guard<std::mutex> lock(run.mu);
    run.agg += s;
    if (--run.active == 0) run.drained.notify_all();
  }

  std::mutex mu_;
  std::condition_variable ready_;
  std::deque<std::shared_ptr<RootRun>> queue_;
  bool shutdown_ = false;
  std::vector<std::thread> threads_;  // last: the helpers use the above
};

}  // namespace

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
  KTG_CHECK(workers >= 1);
  const auto run = std::make_shared<RootRun>(top_n, num_roots, worker);
  // Anytime warm start: seeded before any claim, so the first threshold
  // snapshot a worker reads already reflects the seeds.
  for (const Group& g : seeds) run->shared.topn.Offer(g);

  SearchStats agg;
  {
    obs::PhaseTimer bb_timer(&stats->phases, obs::Phase::kBbSearch);
    RootExecutor::Get().Recruit(workers - 1, run);
    const SearchStats own = Work(*run);  // the caller is worker 0
    run->Close();
    if (run->error != nullptr) std::rethrow_exception(run->error);
    agg = run->agg;
    agg += own;
  }  // every joined helper has finished, inside the bb_search scope

  // Worker phase entries hold only the kline_filter sub-phase (their
  // top-level timers never ran); summing them attributes worker CPU.
  agg.elapsed_ms = 0.0;
  *stats += agg;
  ++stats->nodes_expanded;  // the virtual root counted in `nodes`
  *complete = !run->shared.stop.value.load(std::memory_order_relaxed);
  obs::PhaseTimer merge_timer(&stats->phases, obs::Phase::kTopNMerge);
  return run->shared.topn.Take();
}

}  // namespace ktg
