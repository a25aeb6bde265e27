// Copyright (c) 2026 The ktg Authors.
// The shared executor (util/executor.h): ParallelFor's chunk coverage
// (empty range, grain larger than the range, grain 0, uneven splits),
// inline execution for one worker, exception propagation, distinct worker
// ids, the thread-count rule read from the caller's CPU mask, and the
// executor shared by index builds and root-parallel runs at once.
//
// No run in this binary asks for more than 8 workers, so the executor
// never holds more than 7 helper threads.

#include <gtest/gtest.h>
#include <sched.h>
#include <time.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/root_parallel.h"
#include "datagen/presets.h"
#include "index/nlrnl_index.h"
#include "index/serialization.h"
#include "util/executor.h"
#include "util/macros.h"

namespace ktg {
namespace {

TEST(ExecutorTest, ParallelForCoversEveryIndexExactlyOnce) {
  for (const uint32_t threads : {1u, 2u, 4u}) {
    for (const uint64_t grain : {1ull, 3ull, 7ull, 1000ull}) {
      std::vector<std::atomic<int>> hits(257);
      for (auto& h : hits) h.store(0);
      ParallelFor(threads, 0, hits.size(), grain,
                  [&](uint64_t begin, uint64_t end) {
                    ASSERT_LE(begin, end);
                    for (uint64_t i = begin; i < end; ++i) {
                      hits[i].fetch_add(1);
                    }
                  });
      for (size_t i = 0; i < hits.size(); ++i) {
        EXPECT_EQ(hits[i].load(), 1)
            << "i=" << i << " threads=" << threads << " grain=" << grain;
      }
    }
  }
}

TEST(ExecutorTest, OneWorkerRunsInlineInAscendingOrder) {
  const std::thread::id me = std::this_thread::get_id();
  std::vector<uint64_t> begins;
  ParallelFor(1, 0, 20, 3, [&](uint64_t begin, uint64_t) {
    EXPECT_EQ(std::this_thread::get_id(), me);
    begins.push_back(begin);
  });
  EXPECT_EQ(begins, (std::vector<uint64_t>{0, 3, 6, 9, 12, 15, 18}));
}

TEST(ExecutorTest, ParallelForEmptyRangeNeverInvokesBody) {
  std::atomic<int> calls{0};
  ParallelFor(4, 10, 10, 4, [&](uint64_t, uint64_t) { ++calls; });
  ParallelFor(4, 10, 10, 0, [&](uint64_t, uint64_t) { ++calls; });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ExecutorTest, ParallelForGrainLargerThanRangeIsOneChunk) {
  std::atomic<int> calls{0};
  uint64_t seen_begin = 99, seen_end = 0;
  ParallelFor(4, 2, 7, 1000, [&](uint64_t begin, uint64_t end) {
    ++calls;
    seen_begin = begin;
    seen_end = end;
  });
  EXPECT_EQ(calls.load(), 1);
  EXPECT_EQ(seen_begin, 2u);
  EXPECT_EQ(seen_end, 7u);
}

TEST(ExecutorTest, ParallelForZeroGrainIsClampedToOne) {
  std::vector<std::atomic<int>> hits(9);
  for (auto& h : hits) h.store(0);
  ParallelFor(2, 0, hits.size(), 0, [&](uint64_t begin, uint64_t end) {
    EXPECT_EQ(end - begin, 1u);
    for (uint64_t i = begin; i < end; ++i) hits[i].fetch_add(1);
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ExecutorTest, ParallelForPropagatesExceptions) {
  for (const uint32_t threads : {1u, 4u}) {
    EXPECT_THROW(ParallelFor(threads, 0, 64, 4,
                             [&](uint64_t begin, uint64_t) {
                               if (begin >= 32) {
                                 throw std::runtime_error("boom");
                               }
                             }),
                 std::runtime_error);
    // The executor survives a throwing run and keeps working.
    std::atomic<int> runs{0};
    ParallelFor(threads, 0, 8, 2, [&](uint64_t begin, uint64_t end) {
      runs.fetch_add(static_cast<int>(end - begin));
    });
    EXPECT_EQ(runs.load(), 8);
  }
}

TEST(ExecutorTest, ParallelSumMatchesSerial) {
  constexpr uint64_t kN = 10000;
  std::vector<uint64_t> values(kN);
  std::iota(values.begin(), values.end(), 1);
  const uint64_t expected =
      std::accumulate(values.begin(), values.end(), uint64_t{0});

  std::atomic<uint64_t> total{0};
  ParallelFor(4, 0, kN, 128, [&](uint64_t begin, uint64_t end) {
    uint64_t local = 0;
    for (uint64_t i = begin; i < end; ++i) local += values[i];
    total.fetch_add(local);
  });
  EXPECT_EQ(total.load(), expected);
}

// Worker ids are what the batch runner indexes its per-worker checkers by:
// the caller is 0, and every joined helper has its own id below `workers`.
TEST(ExecutorTest, WorkerIdsAreDistinctAndBelowTheWorkerCount) {
  constexpr uint32_t kWorkers = 8;
  const std::thread::id me = std::this_thread::get_id();
  std::mutex mu;
  std::vector<uint32_t> ids;
  RunWorkers(kWorkers, [&](uint32_t id) {
    if (id == 0) {
      EXPECT_EQ(std::this_thread::get_id(), me);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    std::lock_guard<std::mutex> lock(mu);
    ids.push_back(id);
  });
  const std::set<uint32_t> distinct(ids.begin(), ids.end());
  EXPECT_EQ(distinct.size(), ids.size());
  EXPECT_EQ(*distinct.begin(), 0u);
  EXPECT_LT(*distinct.rbegin(), kWorkers);
}

// Per process, so concurrent runs of this binary never share a file.
std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() /
          (std::to_string(getpid()) + "_" + name))
      .string();
}

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

// The bytes of `index` as SaveNlrnlIndex writes them to `name`.
std::string SavedBytes(const NlrnlIndex& index, const std::string& name) {
  const std::string path = TempPath(name);
  KTG_CHECK(SaveNlrnlIndex(index, path).ok());
  std::string bytes = ReadAll(path);
  std::remove(path.c_str());
  return bytes;
}

AttributedGraph PresetGraph(const char* preset, double scale) {
  auto spec = GetPreset(preset, scale);
  KTG_CHECK(spec.ok());
  return BuildDataset(*spec);
}

NlrnlIndex BuildNlrnl(const Graph& graph, uint32_t threads) {
  NlrnlIndexOptions opts;
  opts.num_threads = threads;
  return NlrnlIndex(graph, opts);
}

double CpuMs(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

// Thread count 0 means the CPUs of the caller's mask, not of the machine:
// pinned to one CPU, ResolveThreads(0) is 1, ParallelFor at 0 threads
// stays on the calling thread, and an index build at num_threads = 0 spends
// its CPU time there too (helpers that joined it would take a share; the
// graph is large enough that they would join before the caller is done).
TEST(ExecutorTest, ThreadCountZeroFollowsTheCallersCpuMask) {
  EXPECT_EQ(ResolveThreads(3), 3u);
  cpu_set_t wide;
  CPU_ZERO(&wide);
  ASSERT_EQ(sched_getaffinity(0, sizeof(wide), &wide), 0);
  EXPECT_EQ(ResolveThreads(0), static_cast<uint32_t>(CPU_COUNT(&wide)));
  cpu_set_t one;
  CPU_ZERO(&one);
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &wide)) {
      CPU_SET(cpu, &one);
      break;
    }
  }
  const AttributedGraph g = PresetGraph("gowalla", 0.25);
  const std::string serial = SavedBytes(BuildNlrnl(g.graph(), 1),
                                        "ktg_executor_nlrnl_serial.idx");

  ASSERT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);
  const uint32_t pinned_threads = ResolveThreads(0);
  const std::thread::id me = std::this_thread::get_id();
  std::atomic<int> off_thread_chunks{0};
  ParallelFor(0, 0, 64, 1, [&](uint64_t, uint64_t) {
    if (std::this_thread::get_id() != me) off_thread_chunks.fetch_add(1);
  });
  const double process_start = CpuMs(CLOCK_PROCESS_CPUTIME_ID);
  const double thread_start = CpuMs(CLOCK_THREAD_CPUTIME_ID);
  const NlrnlIndex pinned = BuildNlrnl(g.graph(), 0);
  const double process_ms = CpuMs(CLOCK_PROCESS_CPUTIME_ID) - process_start;
  const double thread_ms = CpuMs(CLOCK_THREAD_CPUTIME_ID) - thread_start;
  ASSERT_EQ(sched_setaffinity(0, sizeof(wide), &wide), 0);

  EXPECT_EQ(pinned_threads, 1u);
  EXPECT_EQ(off_thread_chunks.load(), 0);
  EXPECT_LT(process_ms - thread_ms, 0.25 * process_ms)
      << "build: " << process_ms << " ms process CPU, " << thread_ms
      << " ms on the calling thread";
  EXPECT_EQ(SavedBytes(pinned, "ktg_executor_nlrnl_pinned.idx"), serial);
}

// Eight threads build an NLRNL index on 4 workers each while a
// root-parallel run holds workers of its own: the builds share the
// executor with the run and with each other, and every one saves the
// serial build's bytes.
TEST(ExecutorTest, ConcurrentBuildsBesideARootRunMatchTheSerialBuild) {
  const AttributedGraph g = PresetGraph("brightkite", 0.03);
  const std::string serial = SavedBytes(BuildNlrnl(g.graph(), 1),
                                        "ktg_executor_nlrnl_serial.idx");

  std::mutex mu;
  std::condition_variable cv;
  bool in_flight = false;
  bool release = false;
  std::thread run([&] {
    SearchStats stats;
    bool complete = false;
    RunRootParallel(
        4, 1, 64, {},
        [&](RootParallelShared& shared) {
          shared.ClaimRoots([&](size_t) {
            std::unique_lock<std::mutex> lock(mu);
            in_flight = true;
            cv.notify_all();
            cv.wait(lock, [&] { return release; });
            return RootStep::kContinue;
          });
          return SearchStats{};
        },
        &stats, &complete);
  });
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return in_flight; });
  }

  constexpr int kBuilders = 8;
  std::vector<std::string> saved(kBuilders);
  std::vector<std::thread> builders;
  for (int b = 0; b < kBuilders; ++b) {
    builders.emplace_back([&, b] {
      saved[b] = SavedBytes(BuildNlrnl(g.graph(), 4),
                            "ktg_executor_nlrnl_" + std::to_string(b) +
                                ".idx");
    });
  }
  for (auto& t : builders) t.join();
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  run.join();

  for (int b = 0; b < kBuilders; ++b) {
    EXPECT_EQ(saved[b], serial) << "builder " << b;
  }
}

// A ParallelFor started inside a root-parallel worker's step finishes and
// covers each of its indexes once, whichever workers are free to help.
TEST(ExecutorTest, ParallelForInsideARootStepCoversEveryIndexOnce) {
  constexpr size_t kRoots = 16;
  constexpr uint64_t kIndexes = 100;
  std::vector<std::atomic<int>> hits(kRoots * kIndexes);
  for (auto& h : hits) h.store(0);
  SearchStats stats;
  bool complete = false;
  RunRootParallel(
      4, 1, kRoots, {},
      [&](RootParallelShared& shared) {
        shared.ClaimRoots([&](size_t root) {
          ParallelFor(4, 0, kIndexes, 3, [&](uint64_t begin, uint64_t end) {
            for (uint64_t i = begin; i < end; ++i) {
              hits[root * kIndexes + i].fetch_add(1);
            }
          });
          return RootStep::kContinue;
        });
        return SearchStats{};
      },
      &stats, &complete);
  EXPECT_TRUE(complete);
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "root " << i / kIndexes << " index "
                                 << i % kIndexes;
  }
}

}  // namespace
}  // namespace ktg
