// Copyright (c) 2026 The ktg Authors.

#include "util/executor.h"

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "util/macros.h"

namespace ktg {

namespace {

// A thread's CPU affinity mask. Helpers run a run's body under the mask of
// the thread that started the run; without that, helpers created while the
// process was pinned to one CPU would stay there.
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

// One RunWorkers call, held by the caller and by every helper task queued
// for it, so a task can outlive the call. A helper that starts after the
// caller closed the run touches only `mu` and `closed`; the caller waits
// only for helpers that entered before it closed.
struct Run {
  explicit Run(const std::function<void(uint32_t)>& fn)
      : body(fn), cpus(CpuMask::OfThisThread()) {}

  const std::function<void(uint32_t)>& body;  // read only by entered helpers
  const CpuMask cpus;                          // the caller's affinity

  std::mutex mu;
  std::condition_variable drained;
  bool closed = false;   // the caller's body returned
  uint32_t active = 0;   // helpers inside the body
  uint32_t joined = 0;   // helpers that entered; the last one's worker id
  std::exception_ptr error;  // the first body that threw

  // Runs the body as worker `id`, keeping the first exception.
  void Work(uint32_t id) {
    try {
      body(id);
    } catch (...) {
      std::lock_guard<std::mutex> lock(mu);
      if (error == nullptr) error = std::current_exception();
    }
  }

  // Ends the caller's part: no helper joins after this, and it returns
  // once every helper that joined has finished.
  void Close() {
    std::unique_lock<std::mutex> lock(mu);
    closed = true;
    drained.wait(lock, [this] { return active == 0; });
  }
};

// The process-wide helper threads. Started on first use and grown to the
// largest helper count any run has asked for; never shrunk. They are joined
// at exit, after the queue has drained.
class Executor {
 public:
  static Executor& Get() {
    static Executor executor;
    return executor;
  }

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  ~Executor() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      shutdown_ = true;
    }
    ready_.notify_all();
    for (std::thread& t : threads_) t.join();
  }

  // Queues `helpers` tasks of `run`, first growing to `helpers` threads.
  void Recruit(uint32_t helpers, const std::shared_ptr<Run>& run) {
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
  Executor() = default;

  void HelperLoop() {
    CpuMask mine = CpuMask::OfThisThread();
    while (true) {
      std::shared_ptr<Run> run;
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

  static void Help(Run& run, CpuMask* mine) {
    uint32_t id = 0;
    {
      std::lock_guard<std::mutex> lock(run.mu);
      if (run.closed) return;  // late: the caller is not waiting for us
      ++run.active;
      id = ++run.joined;
    }
    CpuMask::Adopt(run.cpus, mine);
    run.Work(id);
    std::lock_guard<std::mutex> lock(run.mu);
    if (--run.active == 0) run.drained.notify_all();
  }

  std::mutex mu_;
  std::condition_variable ready_;
  std::deque<std::shared_ptr<Run>> queue_;
  bool shutdown_ = false;
  std::vector<std::thread> threads_;  // last: the helpers use the above
};

}  // namespace

uint32_t ResolveThreads(uint32_t num_threads) {
  if (num_threads != 0) return num_threads;
  const CpuMask mask = CpuMask::OfThisThread();
  const int cpus = mask.valid
                       ? CPU_COUNT(&mask.set)
                       : static_cast<int>(std::thread::hardware_concurrency());
  return static_cast<uint32_t>(std::max(cpus, 1));
}

void RunWorkers(uint32_t workers,
                const std::function<void(uint32_t worker_id)>& body) {
  KTG_CHECK(workers >= 1);
  if (workers == 1) {
    body(0);
    return;
  }
  const auto run = std::make_shared<Run>(body);
  Executor::Get().Recruit(workers - 1, run);
  run->Work(0);  // the caller is worker 0
  run->Close();
  if (run->error != nullptr) std::rethrow_exception(run->error);
}

void ParallelFor(uint32_t num_threads, uint64_t begin, uint64_t end,
                 uint64_t grain,
                 const std::function<void(uint64_t, uint64_t)>& fn) {
  if (begin >= end) return;
  // Clamped to the span, so the cursor below stays within end + 2 * span.
  grain = std::clamp<uint64_t>(grain, 1, end - begin);
  const uint64_t chunks = (end - begin - 1) / grain + 1;
  const auto workers = static_cast<uint32_t>(
      std::min<uint64_t>(ResolveThreads(num_threads), chunks));
  std::atomic<uint64_t> next{begin};
  RunWorkers(workers, [&](uint32_t) {
    for (uint64_t b = next.fetch_add(grain, std::memory_order_relaxed);
         b < end; b = next.fetch_add(grain, std::memory_order_relaxed)) {
      fn(b, std::min(end, b + grain));
    }
  });
}

}  // namespace ktg
