// Copyright (c) 2026 The ktg Authors.
// The root-parallel driver (core/root_parallel.h): exactly-once root
// claims, the kStop rule over one ascending cursor, run-wide truncation
// through the shared stop flag — and the end-to-end exactness sweep: both
// engines' parallel paths must reproduce the brute-force coverage profile
// at every thread count.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "core/brute_force.h"
#include "core/conflict_graph_engine.h"
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
        [&](RootParallelShared& shared, size_t root) {
          if (shared.topn.threshold() < 3) seeded_before_claims = false;
          return root % 3 == 0 ? RootStep::kSkip : RootStep::kContinue;
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

// The conflict engine's root-level residual bound depends on the root's
// own conflict set, so it must skip the root, not stop the worker. Eight
// decoy roots each cover {a,b,c} and conflict with both halves of the
// optimum {X,Y}, so every decoy fails the residual bound against the
// greedy seed's coverage of 3; were each failure a stop, every worker
// (up to 8) would quit on a decoy before root X is claimed.
TEST(RootParallelTest, ConflictResidualPruneSkipsOnlyItsRoot) {
  AttributedGraphBuilder b;
  GraphBuilder& topo = b.mutable_topology();
  constexpr VertexId kDecoys = 8, kX = 8, kY = 9;
  topo.EnsureVertices(10);
  for (VertexId d = 0; d < kDecoys; ++d) {
    topo.AddEdge(d, kX);
    topo.AddEdge(d, kY);
    b.AddKeywords(d, {"a", "b", "c"});
  }
  b.AddKeywords(kX, {"a", "d", "e"});
  b.AddKeywords(kY, {"b", "f"});
  const AttributedGraph g = b.Build();
  const InvertedIndex idx(g);
  const std::string terms[] = {"a", "b", "c", "d", "e", "f"};
  const KtgQuery query = MakeQuery(g, terms, /*group_size=*/2,
                                   /*tenuity=*/1, /*top_n=*/1);

  for (const uint32_t threads : kThreadCounts) {
    auto checker = MakeChecker(CheckerKind::kKHopBitmap, g.graph(), 1);
    ConflictEngineOptions copts;
    copts.num_threads = threads;
    copts.mode = EngineMode::kAnytime;  // the seed fills the top-N first
    const auto got = RunKtgConflictGraph(g, idx, *checker, query, copts);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(Profile(got->groups), (std::vector<int>{5}))
        << "threads=" << threads;
    EXPECT_GE(got->stats.ub_prunes, kDecoys) << "threads=" << threads;
  }
}

// End-to-end exactness: both engines' root-parallel paths == brute force
// at every thread count. The conflict engine's parallel path has no other
// exactness test.
class RootParallelEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(RootParallelEquivalenceTest, BothEnginesMatchBruteForce) {
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
      auto checker = MakeChecker(CheckerKind::kNlrnl, g.graph(), query.tenuity);
      EngineOptions opts;
      opts.num_threads = threads;
      const auto got = RunKtg(g, idx, *checker, query, opts);
      ASSERT_TRUE(got.ok());
      EXPECT_EQ(Profile(got->groups), expected)
          << "engine=ktg t=" << threads << " round=" << round
          << " p=" << query.group_size << " k=" << int{query.tenuity}
          << " N=" << query.top_n;

      auto cchecker =
          MakeChecker(CheckerKind::kKHopBitmap, g.graph(), query.tenuity);
      ConflictEngineOptions copts;
      copts.num_threads = threads;
      const auto cgot = RunKtgConflictGraph(g, idx, *cchecker, query, copts);
      ASSERT_TRUE(cgot.ok());
      EXPECT_EQ(Profile(cgot->groups), expected)
          << "engine=conflict t=" << threads << " round=" << round;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Rounds, RootParallelEquivalenceTest,
                         ::testing::Range(0, 6));

}  // namespace
}  // namespace ktg
