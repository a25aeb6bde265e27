// Copyright (c) 2026 The ktg Authors.
// The root-parallel driver (core/root_parallel.h): exactly-once root
// claims, the kStop rule over one ascending cursor, run-wide truncation
// through the shared stop flag; its process-wide executor (concurrent and
// nested runs, late helpers, the caller's CPU mask) — and the end-to-end
// exactness sweep: the engine's parallel path must reproduce the
// brute-force coverage profile at every thread count.
//
// No run in this binary asks for more than 8 workers, so the executor
// never holds more than 7 helper threads.

#include <gtest/gtest.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/brute_force.h"
#include "core/ktg_engine.h"
#include "core/query.h"
#include "core/root_parallel.h"
#include "datagen/generators.h"
#include "datagen/keyword_assigner.h"
#include "datagen/query_gen.h"
#include "index/bfs_checker.h"
#include "index/checker_factory.h"
#include "keywords/attributed_graph.h"
#include "keywords/inverted_index.h"
#include "util/timer.h"

namespace ktg {
namespace {

constexpr uint32_t kThreadCounts[] = {2, 4, 8};

std::vector<int> Profile(const std::vector<Group>& groups) {
  std::vector<int> p;
  p.reserve(groups.size());
  for (const auto& g : groups) p.push_back(g.covered());
  std::sort(p.rbegin(), p.rend());
  return p;
}

Group MakeGroup(VertexId id, int coverage) {
  Group g;
  g.members = {id};
  g.mask = (CoverMask{1} << coverage) - 1;
  return g;
}

// Runs the driver with `step` as every worker's per-root step; each worker
// reports one expanded node per root it was handed. Returns per-root call
// counts.
std::vector<int> RunCounting(uint32_t threads, size_t num_roots,
                             const std::vector<Group>& seeds,
                             const std::function<RootStep(
                                 RootParallelShared&, size_t)>& step,
                             SearchStats* stats, bool* complete,
                             std::vector<Group>* groups = nullptr) {
  std::vector<std::atomic<int>> calls(num_roots);
  const auto worker = [&](RootParallelShared& shared) {
    SearchStats s;
    shared.ClaimRoots([&](size_t root) {
      calls[root].fetch_add(1, std::memory_order_relaxed);
      ++s.nodes_expanded;
      return step(shared, root);
    });
    return s;
  };
  std::vector<Group> out =
      RunRootParallel(threads, static_cast<uint32_t>(std::max<size_t>(
                                   1, seeds.size())),
                      num_roots, seeds, worker, stats, complete);
  if (groups != nullptr) *groups = std::move(out);
  std::vector<int> counts(num_roots);
  for (size_t i = 0; i < num_roots; ++i) counts[i] = calls[i].load();
  return counts;
}

TEST(RootParallelTest, EveryRootRunsExactlyOnce) {
  constexpr size_t kRoots = 2000;
  for (const uint32_t threads : kThreadCounts) {
    // Seeds are in the shared top-N before any root is claimed.
    const std::vector<Group> seeds = {MakeGroup(1, 3), MakeGroup(2, 5)};
    std::atomic<bool> seeded_before_claims{true};
    SearchStats stats;
    bool complete = false;
    std::vector<Group> groups;
    const auto counts = RunCounting(
        threads, kRoots, seeds,
        [&](RootParallelShared& shared, size_t) {
          if (shared.topn.threshold() < 3) seeded_before_claims = false;
          return RootStep::kContinue;
        },
        &stats, &complete, &groups);
    for (size_t i = 0; i < kRoots; ++i) {
      ASSERT_EQ(counts[i], 1) << "threads=" << threads << " root=" << i;
    }
    EXPECT_TRUE(complete);
    EXPECT_TRUE(seeded_before_claims.load());
    // Worker counters merged, plus the virtual root.
    EXPECT_EQ(stats.nodes_expanded, kRoots + 1);
    EXPECT_EQ(Profile(groups), (std::vector<int>{5, 3}));
  }
}

TEST(RootParallelTest, StopLeavesNoLowerRootUnclaimed) {
  constexpr size_t kRoots = 600;
  for (const uint32_t threads : kThreadCounts) {
    for (const size_t r : {size_t{0}, size_t{1}, size_t{37}, size_t{599}}) {
      SearchStats stats;
      bool complete = false;
      const auto counts = RunCounting(
          threads, kRoots, {},
          [&](RootParallelShared&, size_t root) {
            if (root >= r) return RootStep::kStop;
            // Uneven root costs interleave the workers' claims.
            if (root % 7 == 0) std::this_thread::yield();
            return RootStep::kContinue;
          },
          &stats, &complete);
      for (size_t i = 0; i < r; ++i) {
        ASSERT_EQ(counts[i], 1)
            << "threads=" << threads << " r=" << r << " root=" << i;
      }
      for (size_t i = r; i < kRoots; ++i) ASSERT_LE(counts[i], 1);
      // A kStop is a pruning decision, not a truncation.
      EXPECT_TRUE(complete);
    }
  }
}

TEST(RootParallelTest, OneWorkersBudgetHitStopsEveryWorker) {
  constexpr size_t kRoots = 100000;
  constexpr uint64_t kBudget = 50;
  for (const uint32_t threads : kThreadCounts) {
    // Node budget: each root charges one node against the run-wide count,
    // the way the engines' Search() does.
    SearchStats stats;
    bool complete = true;
    const auto counts = RunCounting(
        threads, kRoots, {},
        [&](RootParallelShared& shared, size_t) {
          if (shared.nodes.value.fetch_add(1) + 1 > kBudget) {
            shared.stop.value.store(true);
          }
          return RootStep::kContinue;
        },
        &stats, &complete);
    int ran = 0;
    for (const int c : counts) ran += c;
    EXPECT_FALSE(complete) << "threads=" << threads;
    // Each worker sees the flag before its next claim: at most one root
    // per worker runs past the budget.
    EXPECT_LE(ran, static_cast<int>(kBudget + threads))
        << "threads=" << threads;

    // Deadline: the first worker past it raises the flag.
    const Stopwatch deadline;
    complete = true;
    const auto timed = RunCounting(
        threads, kRoots, {},
        [&](RootParallelShared& shared, size_t) {
          std::this_thread::sleep_for(std::chrono::microseconds(50));
          if (deadline.ElapsedMillis() > 20.0) shared.stop.value.store(true);
          return RootStep::kContinue;
        },
        &stats, &complete);
    ran = 0;
    for (const int c : timed) ran += c;
    EXPECT_FALSE(complete) << "threads=" << threads;
    EXPECT_LT(ran, static_cast<int>(kRoots)) << "threads=" << threads;
  }
}

bool AllOnce(const std::vector<int>& counts) {
  return std::all_of(counts.begin(), counts.end(),
                     [](int c) { return c == 1; });
}

// Eight threads start runs at once; one run starts another from inside a
// worker's step. Every run claims each of its roots once and returns.
TEST(RootExecutorTest, ConcurrentAndNestedRunsClaimEveryRootOnce) {
  constexpr int kCallers = 8;
  constexpr size_t kRoots = 300;
  constexpr size_t kNestedRoots = 50;
  std::atomic<int> nested_runs{0};
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      SearchStats stats;
      bool complete = false;
      const auto counts = RunCounting(
          4, kRoots, {},
          [&](RootParallelShared&, size_t root) {
            if (c == 0 && root == 7) {
              SearchStats inner;
              bool inner_complete = false;
              const auto inner_counts = RunCounting(
                  4, kNestedRoots, {},
                  [](RootParallelShared&, size_t) {
                    return RootStep::kContinue;
                  },
                  &inner, &inner_complete);
              EXPECT_TRUE(AllOnce(inner_counts));
              EXPECT_TRUE(inner_complete);
              EXPECT_EQ(inner.nodes_expanded, kNestedRoots + 1);
              nested_runs.fetch_add(1);
            }
            return RootStep::kContinue;
          },
          &stats, &complete);
      EXPECT_TRUE(AllOnce(counts)) << "caller " << c;
      EXPECT_TRUE(complete) << "caller " << c;
      EXPECT_EQ(stats.nodes_expanded, kRoots + 1) << "caller " << c;
    });
  }
  for (auto& t : callers) t.join();
  EXPECT_EQ(nested_runs.load(), 1);
}

// A helper that starts after its run's caller finished does nothing, and
// the caller does not wait for it: with every helper held inside another
// run, a second run completes on its calling thread alone.
TEST(RootExecutorTest, RunFinishesAloneWhileEveryHelperIsBusy) {
  constexpr uint32_t kBusyWorkers = 8;  // the caller and 7 helpers
  std::mutex mu;
  std::condition_variable cv;
  uint32_t held = 0;
  bool release = false;
  SearchStats busy_stats;
  bool busy_complete = false;
  std::vector<int> busy_counts;
  std::thread busy([&] {
    busy_counts = RunCounting(
        kBusyWorkers, 64, {},
        [&](RootParallelShared&, size_t) {
          std::unique_lock<std::mutex> lock(mu);
          if (++held == kBusyWorkers) cv.notify_all();
          cv.wait(lock, [&] { return release; });
          return RootStep::kContinue;
        },
        &busy_stats, &busy_complete);
  });
  {
    std::unique_lock<std::mutex> lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(30),
                            [&] { return held == kBusyWorkers; }))
        << "only " << held << " workers joined the busy run";
  }

  constexpr size_t kRoots = 50;
  const std::thread::id me = std::this_thread::get_id();
  std::atomic<int> off_thread{0};
  SearchStats stats;
  bool complete = false;
  const auto counts = RunCounting(
      4, kRoots, {},
      [&](RootParallelShared&, size_t) {
        if (std::this_thread::get_id() != me) off_thread.fetch_add(1);
        return RootStep::kContinue;
      },
      &stats, &complete);
  EXPECT_TRUE(AllOnce(counts));
  EXPECT_TRUE(complete);
  EXPECT_EQ(off_thread.load(), 0);
  EXPECT_EQ(stats.nodes_expanded, kRoots + 1);

  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  busy.join();
  EXPECT_TRUE(AllOnce(busy_counts));
  EXPECT_TRUE(busy_complete);
}

// A worker body that throws stops the run, and the caller sees the
// exception after the run's other workers have finished; the executor
// keeps serving later runs.
TEST(RootExecutorTest, ThrowingStepStopsTheRunAndReachesTheCaller) {
  for (const uint32_t threads : kThreadCounts) {
    SearchStats stats;
    bool complete = false;
    EXPECT_THROW(RunCounting(
                     threads, 500, {},
                     [](RootParallelShared&, size_t root) {
                       if (root == 37) throw std::runtime_error("step");
                       return RootStep::kContinue;
                     },
                     &stats, &complete),
                 std::runtime_error)
        << "threads=" << threads;
    const auto counts = RunCounting(
        threads, 100, {},
        [](RootParallelShared&, size_t) { return RootStep::kContinue; },
        &stats, &complete);
    EXPECT_TRUE(AllOnce(counts));
  }
}

// Every worker of a run carries its caller's CPU mask: pinned when the
// caller is pinned (helpers then created inherit that pin), the wide mask
// again once the caller's is restored.
TEST(RootExecutorTest, WorkersTakeTheCallersCpuMask) {
  cpu_set_t wide;
  CPU_ZERO(&wide);
  ASSERT_EQ(sched_getaffinity(0, sizeof(wide), &wide), 0);
  cpu_set_t one;
  CPU_ZERO(&one);
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &wide)) {
      CPU_SET(cpu, &one);
      break;
    }
  }

  // Runs 8 workers over slow roots, so helpers join, and returns the
  // masks the workers saw and how many distinct threads took part.
  const auto worker_masks = [](std::vector<cpu_set_t>* masks) {
    std::mutex mu;
    std::set<std::thread::id> threads;
    SearchStats stats;
    bool complete = false;
    RunCounting(
        8, 64, {},
        [&](RootParallelShared&, size_t) {
          cpu_set_t m;
          CPU_ZERO(&m);
          sched_getaffinity(0, sizeof(m), &m);
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
          std::lock_guard<std::mutex> lock(mu);
          masks->push_back(m);
          threads.insert(std::this_thread::get_id());
          return RootStep::kContinue;
        },
        &stats, &complete);
    return threads.size();
  };

  ASSERT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);
  std::vector<cpu_set_t> pinned;
  const size_t pinned_threads = worker_masks(&pinned);
  ASSERT_EQ(sched_setaffinity(0, sizeof(wide), &wide), 0);
  std::vector<cpu_set_t> restored;
  const size_t restored_threads = worker_masks(&restored);

  EXPECT_GT(pinned_threads, 1u) << "no helper joined the pinned run";
  EXPECT_GT(restored_threads, 1u) << "no helper joined the restored run";
  for (const cpu_set_t& m : pinned) EXPECT_TRUE(CPU_EQUAL(&m, &one));
  for (const cpu_set_t& m : restored) EXPECT_TRUE(CPU_EQUAL(&m, &wide));
}

// End-to-end exactness: the engine's root-parallel path == brute force at
// every thread count.
class RootParallelEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(RootParallelEquivalenceTest, MatchesBruteForce) {
  const int round = GetParam();
  Rng rng(0xEC60 + round * 131);

  Graph topo_graph;
  switch (round % 3) {
    case 0:
      topo_graph = ErdosRenyi(34, 0.08, rng);
      break;
    case 1:
      topo_graph = BarabasiAlbert(36, 2, rng);
      break;
    default:
      topo_graph = WattsStrogatz(32, 2, 0.2, rng);
      break;
  }
  KeywordModel model;
  model.vocabulary_size = 12;
  model.min_per_vertex = 1;
  model.max_per_vertex = 3;
  model.empty_fraction = 0.1;
  const AttributedGraph g = AssignKeywords(std::move(topo_graph), model, rng);
  const InvertedIndex idx(g);

  WorkloadOptions wopts;
  wopts.num_queries = 2;
  wopts.keyword_count = 4 + round % 3;
  wopts.group_size = 2 + round % 3;
  wopts.tenuity = static_cast<HopDistance>(1 + round % 2);
  wopts.top_n = 1 + round % 4;
  const auto queries = GenerateWorkload(g, wopts, rng);

  for (const auto& query : queries) {
    BfsChecker ref_checker(g.graph());
    const auto truth = BruteForceKtg(g, idx, ref_checker, query);
    ASSERT_TRUE(truth.ok());
    const auto expected = Profile(truth->groups);

    for (const uint32_t threads : kThreadCounts) {
      auto checker = MakeChecker(CheckerKind::kNlrnl, g.graph());
      EngineOptions opts;
      opts.num_threads = threads;
      const auto got = RunKtg(g, idx, *checker, query, opts);
      ASSERT_TRUE(got.ok());
      EXPECT_EQ(Profile(got->groups), expected)
          << "t=" << threads << " round=" << round
          << " p=" << query.group_size << " k=" << int{query.tenuity}
          << " N=" << query.top_n;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Rounds, RootParallelEquivalenceTest,
                         ::testing::Range(0, 6));

}  // namespace
}  // namespace ktg
