// Copyright (c) 2026 The ktg Authors.
// A fixed-size thread pool with a blocking ParallelFor helper.
//
// Index construction partitions its BFS batches over a pool, and
// the batch runner schedules its per-query worker loops on one. (The
// engine's root-parallel search does not: it borrows helpers from one
// process-wide executor, see core/root_parallel.h.) The pool is
// deliberately simple — a mutex-guarded FIFO queue, no work stealing — since
// every caller partitions its own work into comparable chunks up front.
//
// Determinism contract: a pool of size 1 spawns no threads at all; Submit and
// ParallelFor run their work inline on the calling thread, in order, so a
// `num_threads = 1` build or search is bit-for-bit identical to code that
// never heard of the pool.

#ifndef KTG_UTIL_THREAD_POOL_H_
#define KTG_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace ktg {

/// Fixed-size worker pool. Tasks are plain std::function<void()>; there is
/// no cancellation — the destructor drains the queue and joins.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (0 = HardwareThreads()). A pool of size 1
  /// spawns none and executes everything inline.
  explicit ThreadPool(uint32_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  uint32_t num_threads() const { return num_threads_; }

  /// Enqueues `task` (runs it inline for a size-1 pool). Tasks must not
  /// throw out of their body unless the caller arranges to observe the
  /// exception; prefer ParallelFor, which propagates.
  void Submit(std::function<void()> task);

  /// Blocks until every submitted task has finished and the queue is empty.
  void Wait();

  /// Runs `fn(chunk_begin, chunk_end)` over [begin, end) split into chunks
  /// of at most `grain` indices (grain 0 is treated as 1), blocking until
  /// all chunks finish. Chunks execute concurrently on the pool; each chunk
  /// is a contiguous range, so per-chunk scratch (e.g. a BoundedBfs) is
  /// created once per chunk, not once per index. An exception thrown by any
  /// chunk is captured and rethrown on the calling thread (first one wins).
  /// An empty range never invokes `fn`. On a size-1 pool the chunks run
  /// inline, in ascending order.
  void ParallelFor(uint64_t begin, uint64_t end, uint64_t grain,
                   const std::function<void(uint64_t, uint64_t)>& fn);

  /// std::thread::hardware_concurrency clamped to >= 1.
  static uint32_t HardwareThreads();

  /// Maps the conventional options knob to a concrete worker count:
  /// 0 = HardwareThreads(), anything else verbatim.
  static uint32_t Resolve(uint32_t num_threads) {
    return num_threads == 0 ? HardwareThreads() : num_threads;
  }

 private:
  void WorkerLoop();

  uint32_t num_threads_;
  std::vector<std::thread> workers_;

  std::mutex mu_;
  std::condition_variable task_ready_;
  std::condition_variable all_idle_;
  std::deque<std::function<void()>> queue_;
  uint64_t active_ = 0;  // tasks currently executing
  bool shutdown_ = false;
};

}  // namespace ktg

#endif  // KTG_UTIL_THREAD_POOL_H_
