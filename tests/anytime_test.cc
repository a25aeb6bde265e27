// Copyright (c) 2026 The ktg Authors.
// The anytime mode: truncated runs must report sound optimality gaps
// (upper_bound >= the true optimum, so gap 0 proves optimality), gaps must
// shrink monotonically with the budget, and a completed anytime run must
// keep the exact coverage profile without holding any group twice.

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "core/brute_force.h"
#include "core/conflict_graph_engine.h"
#include "core/ktg_engine.h"
#include "datagen/generators.h"
#include "datagen/keyword_assigner.h"
#include "datagen/query_gen.h"
#include "index/bfs_checker.h"
#include "keywords/inverted_index.h"
#include "obs/metrics.h"

namespace ktg {
namespace {

struct Instance {
  AttributedGraph graph;
  std::vector<KtgQuery> queries;
};

// The same small randomized families the engine-equivalence suite certifies
// against brute force; small enough that BruteForceKtg is the ground truth.
Instance MakeInstance(int round) {
  Rng rng(0x4E0B0 + round * 1327);
  Graph topo;
  switch (round % 4) {
    case 0:
      topo = ErdosRenyi(32, 0.09, rng);
      break;
    case 1:
      topo = BarabasiAlbert(34, 2, rng);
      break;
    case 2:
      topo = WattsStrogatz(30, 2, 0.2, rng);
      break;
    default:
      topo = ChungLuPowerLaw(36, 5.0, 2.5, rng);
      break;
  }
  KeywordModel model;
  model.vocabulary_size = 12;
  model.min_per_vertex = 1;
  model.max_per_vertex = 3;
  model.empty_fraction = 0.1;
  Instance inst{AssignKeywords(std::move(topo), model, rng), {}};

  WorkloadOptions wopts;
  wopts.num_queries = 3;
  wopts.keyword_count = 4 + round % 3;
  wopts.group_size = 2 + round % 3;
  wopts.tenuity = static_cast<HopDistance>(1 + round % 2);
  wopts.top_n = 1 + round % 3;
  inst.queries = GenerateWorkload(inst.graph, wopts, rng);
  return inst;
}

int BestCovered(const KtgResult& r) {
  return r.groups.empty() ? 0 : r.groups.front().covered();
}

std::vector<int> CoverageCounts(const std::vector<Group>& groups) {
  std::vector<int> out;
  out.reserve(groups.size());
  for (const auto& g : groups) out.push_back(g.covered());
  return out;
}

// ---------------------------------------------------------------------------
// Anytime truncation: soundness under any budget, monotone improvement.

class AnytimeSoundnessTest : public ::testing::TestWithParam<int> {};

TEST_P(AnytimeSoundnessTest, TruncatedRunsReportSoundGaps) {
  const Instance inst = MakeInstance(GetParam());
  const InvertedIndex idx(inst.graph);
  for (const KtgQuery& q : inst.queries) {
    BfsChecker ref_checker(inst.graph.graph());
    const auto truth = BruteForceKtg(inst.graph, idx, ref_checker, q);
    ASSERT_TRUE(truth.ok());
    const int optimum = BestCovered(*truth);

    for (const uint64_t max_nodes : {1ull, 4ull, 64ull}) {
      BfsChecker checker(inst.graph.graph());
      EngineOptions opts;
      opts.mode = EngineMode::kAnytime;
      opts.max_nodes = max_nodes;
      const auto got = RunKtg(inst.graph, idx, checker, q, opts);
      ASSERT_TRUE(got.ok());
      // Sound under any truncation: best found plus the reported gap is a
      // valid upper bound on the true optimum.
      EXPECT_GE(got->stats.upper_bound, optimum) << "max_nodes=" << max_nodes;
      EXPECT_GE(BestCovered(*got) + got->stats.gap, optimum);
      EXPECT_GE(got->stats.gap, 0);
    }

    // The conflict-graph engine honors the same contract.
    for (const uint64_t max_nodes : {1ull, 64ull}) {
      BfsChecker checker(inst.graph.graph());
      ConflictEngineOptions copts;
      copts.mode = EngineMode::kAnytime;
      copts.max_nodes = max_nodes;
      const auto got =
          RunKtgConflictGraph(inst.graph, idx, checker, q, copts);
      ASSERT_TRUE(got.ok());
      EXPECT_GE(got->stats.upper_bound, optimum) << "max_nodes=" << max_nodes;
      EXPECT_GE(BestCovered(*got) + got->stats.gap, optimum);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Rounds, AnytimeSoundnessTest, ::testing::Range(0, 4));

TEST(AnytimeTest, GapShrinksMonotonicallyWithNodeBudget) {
  const Instance inst = MakeInstance(3);
  const InvertedIndex idx(inst.graph);
  for (const KtgQuery& q : inst.queries) {
    int prev_gap = -1;
    // 0 = unlimited: the run completes and must prove gap 0.
    for (const uint64_t max_nodes : {1ull, 8ull, 64ull, 512ull, 0ull}) {
      BfsChecker checker(inst.graph.graph());
      EngineOptions opts;
      opts.mode = EngineMode::kAnytime;
      opts.max_nodes = max_nodes;
      const auto got = RunKtg(inst.graph, idx, checker, q, opts);
      ASSERT_TRUE(got.ok());
      if (prev_gap >= 0) {
        EXPECT_LE(got->stats.gap, prev_gap) << "max_nodes=" << max_nodes;
      }
      prev_gap = got->stats.gap;
    }
    EXPECT_EQ(prev_gap, 0);
  }
}

// A completed anytime run is certified exact: greedy seeds occupy collector
// slots, the strict-improvement rule still admits every strictly better
// group the exhaustive search visits, and a seed the search finds again is
// refused rather than held twice.
TEST(AnytimeTest, CompletedAnytimeRunKeepsTheExactCoverageProfile) {
  obs::MetricsRegistry registry;
  uint64_t runs = 0;
  for (int round = 0; round < 4; ++round) {
    const Instance inst = MakeInstance(round);
    const InvertedIndex idx(inst.graph);
    for (const KtgQuery& q : inst.queries) {
      BfsChecker c1(inst.graph.graph());
      const auto exact_r = RunKtg(inst.graph, idx, c1, q, {});
      ASSERT_TRUE(exact_r.ok());

      BfsChecker c2(inst.graph.graph());
      EngineOptions opts;
      opts.mode = EngineMode::kAnytime;
      opts.metrics = &registry;
      const auto any_r = RunKtg(inst.graph, idx, c2, q, opts);
      ASSERT_TRUE(any_r.ok());
      ++runs;
      EXPECT_TRUE(any_r->stats.complete);
      EXPECT_EQ(CoverageCounts(any_r->groups),
                CoverageCounts(exact_r->groups));
      EXPECT_EQ(any_r->stats.gap, 0);
      EXPECT_EQ(any_r->stats.upper_bound, BestCovered(*any_r));
      // The search reaches the greedy seeds again; none is held twice.
      std::set<std::vector<VertexId>> distinct;
      for (const Group& g : any_r->groups) distinct.insert(g.members);
      EXPECT_EQ(distinct.size(), any_r->groups.size());
    }
  }
  // Every anytime run flushes the search.anytime.* family.
  EXPECT_EQ(registry.CounterValue("search.anytime.runs"), runs);
  EXPECT_EQ(registry.CounterValue("search.anytime.optimal"), runs);
  EXPECT_EQ(registry.CounterValue("search.anytime.truncated"), 0u);
}

}  // namespace
}  // namespace ktg
