// Copyright (c) 2026 The ktg Authors.
// The one executor for parallel work: the engine's root-parallel search,
// the NL / NLRNL index builds and the batch runner all run their workers
// here.
//
// Threads. The calling thread is worker 0. The other workers are helpers
// recruited from one process-wide set of threads, started on first use and
// joined when the process exits; it grows to the largest helper count any
// run has asked for and never shrinks. A helper runs under the caller's
// CPU affinity mask. A helper that starts after the caller has finished
// its own part does nothing, and the caller waits only for helpers that
// started before that. So a run never waits behind another run's helpers,
// and a run started from inside a worker, or from many threads at once,
// cannot deadlock. A body must therefore never rely on a helper joining:
// worker 0 alone has to be able to finish the job, which is why every
// caller hands out its work from a shared cursor.
//
// Determinism contract: a run of one worker starts no thread and recruits
// no helper; the body runs inline on the calling thread, so a
// `num_threads = 1` build or search is the same code path as one that
// never heard of the executor.

#ifndef KTG_UTIL_EXECUTOR_H_
#define KTG_UTIL_EXECUTOR_H_

#include <cstdint>
#include <functional>

namespace ktg {

/// Maps the conventional thread-count knob to a worker count: 0 = the
/// number of CPUs in the calling thread's affinity mask (falling back to
/// std::thread::hardware_concurrency when the mask cannot be read, and
/// never below 1), anything else verbatim.
uint32_t ResolveThreads(uint32_t num_threads);

/// Runs `body(worker_id)` on up to `workers` (>= 1) threads: the caller as
/// worker 0 and `workers - 1` helpers, of which those that start before
/// the caller's body returns take part. Worker ids are distinct and below
/// `workers`. Returns once every participating worker has finished. A body
/// that throws does not stop the others; the first exception is rethrown
/// here once every participating worker has finished.
void RunWorkers(uint32_t workers,
                const std::function<void(uint32_t worker_id)>& body);

/// Runs `fn(chunk_begin, chunk_end)` over [begin, end) split into
/// contiguous chunks of at most `grain` indices (grain 0 is treated as 1),
/// on ResolveThreads(num_threads) workers (never more than there are
/// chunks) that claim chunks from one ascending cursor. Per-chunk scratch
/// (e.g. a BoundedBfs) is thus created once per chunk, not once per index.
/// An empty range never invokes `fn`. With one worker the chunks run
/// inline, in ascending order. Exceptions propagate as in RunWorkers.
void ParallelFor(uint32_t num_threads, uint64_t begin, uint64_t end,
                 uint64_t grain,
                 const std::function<void(uint64_t, uint64_t)>& fn);

}  // namespace ktg

#endif  // KTG_UTIL_EXECUTOR_H_
