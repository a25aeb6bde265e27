// Copyright (c) 2026 The ktg Authors.
// Certification of the anytime/portfolio layer (src/heur/): on small
// instances with a known exact optimum the portfolio must find it, every
// reported optimality gap must be sound (upper_bound >= true optimum, so
// gap 0 proves optimality), truncated anytime runs must stay sound and
// improve monotonically with budget, and racing must not change the best
// coverage found. tools/quality_eval + ci/check_quality.py enforce the
// same properties in CI on checked-in seeds.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/brute_force.h"
#include "core/candidates.h"
#include "core/conflict_graph_engine.h"
#include "core/ktg_engine.h"
#include "core/run_frame.h"
#include "datagen/generators.h"
#include "datagen/keyword_assigner.h"
#include "datagen/query_gen.h"
#include "heur/heuristics.h"
#include "heur/portfolio.h"
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
// Portfolio certification: optimum reached, gap sound, groups feasible.

class PortfolioCertificationTest : public ::testing::TestWithParam<int> {};

TEST_P(PortfolioCertificationTest, FindsExactOptimumWithSoundGap) {
  const Instance inst = MakeInstance(GetParam());
  const InvertedIndex idx(inst.graph);
  for (const KtgQuery& q : inst.queries) {
    BfsChecker ref_checker(inst.graph.graph());
    const auto truth = BruteForceKtg(inst.graph, idx, ref_checker, q);
    ASSERT_TRUE(truth.ok());
    const int optimum = BestCovered(*truth);

    BfsChecker checker(inst.graph.graph());
    heur::PortfolioOptions popts;
    popts.seed = 17;
    const auto got =
        heur::RunKtgPortfolio(inst.graph, idx, checker, q, popts);
    ASSERT_TRUE(got.ok());

    // Soundness first: the reported bound must dominate the true optimum,
    // independent of whether the search found it.
    EXPECT_GE(got->stats.upper_bound, optimum);
    EXPECT_EQ(got->stats.gap,
              got->stats.upper_bound - BestCovered(*got));

    // Certification: on these small instances the portfolio reaches the
    // exact branch-and-bound optimum.
    EXPECT_EQ(BestCovered(*got), optimum)
        << "round=" << GetParam() << " p=" << q.group_size
        << " k=" << static_cast<int>(q.tenuity);

    // Every returned group satisfies the full KTG feasibility contract.
    for (const Group& grp : got->groups) {
      EXPECT_EQ(grp.members.size(), q.group_size);
      EXPECT_TRUE(IsKDistanceGroup(grp.members, q.tenuity, ref_checker));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Rounds, PortfolioCertificationTest,
                         ::testing::Range(0, 8));

// Racing changes thread interleaving but never the best coverage found:
// strategies only write to the incumbent, and the sole shared read is the
// result-neutral "threshold == upper bound" early stop.
TEST(PortfolioTest, BestCoverageIsThreadCountInvariant) {
  for (int round = 0; round < 4; ++round) {
    const Instance inst = MakeInstance(round);
    const InvertedIndex idx(inst.graph);
    for (const KtgQuery& q : inst.queries) {
      int serial_best = -1;
      for (const uint32_t threads : {1u, 2u, 4u}) {
        BfsChecker checker(inst.graph.graph());
        heur::PortfolioOptions popts;
        popts.seed = 5;
        popts.num_threads = threads;
        const auto got =
            heur::RunKtgPortfolio(inst.graph, idx, checker, q, popts);
        ASSERT_TRUE(got.ok());
        if (serial_best < 0) {
          serial_best = BestCovered(*got);
        } else {
          EXPECT_EQ(BestCovered(*got), serial_best) << "threads=" << threads;
        }
      }
    }
  }
}

TEST(PortfolioTest, EmitsPerStrategyAndAnytimeMetrics) {
  const Instance inst = MakeInstance(1);
  const InvertedIndex idx(inst.graph);
  BfsChecker checker(inst.graph.graph());
  obs::MetricsRegistry registry;
  heur::PortfolioOptions popts;
  popts.metrics = &registry;
  ASSERT_TRUE(heur::RunKtgPortfolio(inst.graph, idx, checker,
                                    inst.queries.at(0), popts)
                  .ok());
  EXPECT_GE(registry.CounterValue("heur.greedy.iterations"), 1u);
  EXPECT_GE(registry.CounterValue("heur.grasp.iterations"), 1u);
  EXPECT_GE(registry.CounterValue("heur.swap.iterations"), 1u);
  EXPECT_GE(registry.CounterValue("search.anytime.runs"), 1u);
}

TEST(PortfolioTest, RejectsMalformedQueriesAndOversizedCandidateSets) {
  const Instance inst = MakeInstance(0);
  const InvertedIndex idx(inst.graph);
  BfsChecker checker(inst.graph.graph());

  KtgQuery bad = inst.queries.at(0);
  bad.group_size = 0;
  EXPECT_FALSE(heur::RunKtgPortfolio(inst.graph, idx, checker, bad).ok());

  // One candidate over the ceiling: isolated vertices sharing a keyword.
  AttributedGraphBuilder builder;
  KeywordId kw = kInvalidKeyword;
  for (VertexId v = 0; v <= kMaxConflictCandidates; ++v) {
    kw = builder.AddKeyword(v, "shared");
  }
  const AttributedGraph wide = builder.Build();
  const InvertedIndex wide_idx(wide);
  BfsChecker wide_checker(wide.graph());
  KtgQuery q;
  q.keywords = {kw};
  q.group_size = 2;
  q.tenuity = 1;
  q.top_n = 1;
  const auto st = heur::RunKtgPortfolio(wide, wide_idx, wide_checker, q);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.status().code(), StatusCode::kResourceExhausted);
}

// RunKtgWithMode is the CLI/server dispatch: exact and anytime go through
// the branch-and-bound engine, portfolio through the race.
TEST(PortfolioTest, ModeDispatchRoutesAllThreeModes) {
  const Instance inst = MakeInstance(2);
  const InvertedIndex idx(inst.graph);
  const KtgQuery& q = inst.queries.at(0);

  BfsChecker c1(inst.graph.graph());
  EngineOptions exact;
  const auto exact_r = heur::RunKtgWithMode(inst.graph, idx, c1, q, exact);
  ASSERT_TRUE(exact_r.ok());
  EXPECT_EQ(exact_r->stats.gap, 0);
  EXPECT_TRUE(exact_r->stats.complete);

  BfsChecker c2(inst.graph.graph());
  EngineOptions anytime;
  anytime.mode = EngineMode::kAnytime;
  const auto any_r = heur::RunKtgWithMode(inst.graph, idx, c2, q, anytime);
  ASSERT_TRUE(any_r.ok());
  // No budget: the anytime run completes and keeps the exact profile.
  EXPECT_EQ(CoverageCounts(any_r->groups), CoverageCounts(exact_r->groups));
  EXPECT_EQ(any_r->stats.gap, 0);

  BfsChecker c3(inst.graph.graph());
  EngineOptions portfolio;
  portfolio.mode = EngineMode::kPortfolio;
  const auto port_r =
      heur::RunKtgWithMode(inst.graph, idx, c3, q, portfolio);
  ASSERT_TRUE(port_r.ok());
  EXPECT_GE(port_r->stats.upper_bound, BestCovered(*port_r));
  EXPECT_FALSE(port_r->stats.complete) << "the portfolio never claims it";
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
// slots, and the strict-improvement rule still admits every strictly better
// group the exhaustive search visits.
TEST(AnytimeTest, CompletedAnytimeRunKeepsTheExactCoverageProfile) {
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
      const auto any_r = RunKtg(inst.graph, idx, c2, q, opts);
      ASSERT_TRUE(any_r.ok());
      EXPECT_EQ(CoverageCounts(any_r->groups),
                CoverageCounts(exact_r->groups));
      EXPECT_EQ(any_r->stats.gap, 0);
      EXPECT_EQ(any_r->stats.upper_bound, BestCovered(*any_r));
    }
  }
}

// ---------------------------------------------------------------------------
// Local-search primitives.

struct PrimitiveFixture {
  Instance inst = MakeInstance(0);
  InvertedIndex idx{inst.graph};
  BfsChecker checker{inst.graph.graph()};
  std::vector<Candidate> cands;
  ConflictAdjacency cg;
  heur::HeurContext ctx;

  explicit PrimitiveFixture(const KtgQuery& q) {
    cands = ExtractCandidates(inst.graph, idx, q, checker);
    std::sort(cands.begin(), cands.end(),
              [](const Candidate& a, const Candidate& b) {
                if (a.vkc != b.vkc) return a.vkc > b.vkc;
                if (a.degree != b.degree) return a.degree < b.degree;
                return a.vertex < b.vertex;
              });
    cg = BuildConflictAdjacency(inst.graph.graph(), checker, cands, q.tenuity,
                                ConflictBuild::kBallWalk);
    ctx.cands = &cands;
    ctx.adj = &cg.adj;
    ctx.p = q.group_size;
  }

  bool ConflictFree(const heur::PosGroup& g) const {
    for (size_t i = 0; i < g.positions.size(); ++i) {
      for (size_t j = i + 1; j < g.positions.size(); ++j) {
        if (cg.adj[g.positions[i]].Test(g.positions[j])) return false;
      }
    }
    return true;
  }
};

TEST(HeuristicsTest, ConstructionsProduceConflictFreeGroups) {
  const Instance probe = MakeInstance(0);
  PrimitiveFixture fx(probe.queries.at(0));
  for (uint32_t skip = 0; skip < 4; ++skip) {
    const heur::PosGroup g = heur::GreedyConstruct(fx.ctx, skip);
    EXPECT_TRUE(fx.ConflictFree(g)) << "skip=" << skip;
    EXPECT_LE(g.positions.size(), fx.ctx.p);
  }
  heur::SplitMix64 rng(42);
  for (int i = 0; i < 8; ++i) {
    const heur::PosGroup g = heur::GraspConstruct(fx.ctx, rng, 0.7);
    EXPECT_TRUE(fx.ConflictFree(g));
  }
}

TEST(HeuristicsTest, DescentNeverDecreasesCoverageAndStaysFeasible) {
  const Instance probe = MakeInstance(0);
  PrimitiveFixture fx(probe.queries.at(0));
  heur::SplitMix64 rng(7);
  for (int i = 0; i < 8; ++i) {
    heur::PosGroup g = heur::GraspConstruct(fx.ctx, rng, 1.0);
    const int before = g.covered();
    heur::ShiftSwapDescent(fx.ctx, &g);
    EXPECT_GE(g.covered(), before);
    EXPECT_TRUE(fx.ConflictFree(g));
  }
}

TEST(HeuristicsTest, TabuStepsStayFeasibleAndRespectAspiration) {
  const Instance probe = MakeInstance(0);
  PrimitiveFixture fx(probe.queries.at(0));
  heur::PosGroup g = heur::GreedyConstruct(fx.ctx, 0);
  heur::ShiftSwapDescent(fx.ctx, &g);
  if (!g.complete(fx.ctx)) GTEST_SKIP() << "instance has no feasible group";
  std::vector<uint64_t> tabu(fx.cands.size(), 0);
  int best = g.covered();
  for (uint64_t step = 1; step <= 16; ++step) {
    if (!heur::TabuStep(fx.ctx, &g, &tabu, step, 4, best)) break;
    EXPECT_TRUE(fx.ConflictFree(g));
    EXPECT_TRUE(g.complete(fx.ctx));
    best = std::max(best, g.covered());
  }
}

}  // namespace
}  // namespace ktg
