// Copyright (c) 2026 The ktg Authors.
// The exactness property suite: every engine configuration (sort strategy ×
// pruning toggles × distance checker) must return the same top-N coverage
// multiset as the brute-force reference on randomized attributed graphs and
// randomized queries — plus the structural invariants of Definition 7.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>

#include "core/brute_force.h"
#include "core/ktg_engine.h"
#include "datagen/generators.h"
#include "datagen/keyword_assigner.h"
#include "datagen/query_gen.h"
#include "index/bfs_checker.h"
#include "index/checker_factory.h"
#include "keywords/inverted_index.h"

namespace ktg {
namespace {

std::vector<int> CoverageCounts(const std::vector<Group>& groups) {
  std::vector<int> out;
  out.reserve(groups.size());
  for (const auto& g : groups) out.push_back(g.covered());
  return out;
}

struct Config {
  SortStrategy sort;
  bool pruning;
  bool eager;
  CheckerKind checker;
  bool ceiling = true;
  uint32_t threads = 1;
  bool residual = true;
};

std::string ConfigName(const Config& c) {
  std::string s = SortStrategyName(c.sort);
  s += c.pruning ? "_prune" : "_noprune";
  s += c.eager ? "_eager" : "_lazy";
  s += c.ceiling ? "" : "_noceiling";
  s += c.residual ? "" : "_noresidual";
  s += "_";
  s += CheckerKindName(c.checker);
  s += "_t" + std::to_string(c.threads);
  return s;
}

class EngineEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(EngineEquivalenceTest, MatchesBruteForceOnRandomInstances) {
  const int round = GetParam();
  Rng rng(0xE0000 + round * 977);

  // Random small attributed graph.
  Graph topo;
  switch (round % 4) {
    case 0:
      topo = ErdosRenyi(34, 0.08, rng);
      break;
    case 1:
      topo = BarabasiAlbert(36, 2, rng);
      break;
    case 2:
      topo = WattsStrogatz(32, 2, 0.2, rng);
      break;
    default:
      topo = ChungLuPowerLaw(38, 5.0, 2.5, rng);
      break;
  }
  KeywordModel model;
  model.vocabulary_size = 12;
  model.min_per_vertex = 1;
  model.max_per_vertex = 3;
  model.empty_fraction = 0.1;
  const AttributedGraph g = AssignKeywords(std::move(topo), model, rng);
  const InvertedIndex idx(g);

  WorkloadOptions wopts;
  wopts.num_queries = 3;
  wopts.keyword_count = 4 + round % 3;
  wopts.group_size = 2 + round % 3;          // p in {2, 3, 4}
  wopts.tenuity = static_cast<HopDistance>(1 + round % 3);  // k in {1, 2, 3}
  wopts.top_n = 1 + round % 4;               // N in {1..4}
  const auto queries = GenerateWorkload(g, wopts, rng);

  const std::vector<Config> configs = {
      {SortStrategy::kQkc, true, true, CheckerKind::kBfs},
      {SortStrategy::kVkc, true, true, CheckerKind::kBfs},
      {SortStrategy::kVkcDeg, true, true, CheckerKind::kBfs},
      {SortStrategy::kVkcDeg, false, true, CheckerKind::kBfs},
      {SortStrategy::kVkcDeg, true, false, CheckerKind::kBfs},
      {SortStrategy::kVkc, false, false, CheckerKind::kBfs},
      {SortStrategy::kVkcDeg, true, true, CheckerKind::kNl},
      {SortStrategy::kVkcDeg, true, true, CheckerKind::kNlrnl},
      {SortStrategy::kVkc, true, true, CheckerKind::kNlrnl},
      {SortStrategy::kVkcDeg, true, true, CheckerKind::kKHopBitmap},
      // Published Theorem-2 bound only (no reachable-coverage tightening).
      {SortStrategy::kVkcDeg, true, true, CheckerKind::kBfs, false},
      {SortStrategy::kQkc, true, true, CheckerKind::kNlrnl, false},
      // Root-parallel search over concurrent-read-safe checkers must keep
      // the exactness guarantee at every worker count.
      {SortStrategy::kVkcDeg, true, true, CheckerKind::kNlrnl, true, 2},
      {SortStrategy::kVkcDeg, true, true, CheckerKind::kNlrnl, true, 4},
      {SortStrategy::kVkc, true, true, CheckerKind::kNlrnl, true, 4},
      {SortStrategy::kQkc, true, true, CheckerKind::kNlrnl, true, 2},
      {SortStrategy::kVkcDeg, true, true, CheckerKind::kKHopBitmap, true, 4},
      {SortStrategy::kVkcDeg, false, true, CheckerKind::kNlrnl, true, 2},
      {SortStrategy::kVkcDeg, true, true, CheckerKind::kNlrnl, false, 4},
      // Residual suffix-union clamp off (the pre-clamp search), serial and
      // root-parallel — the default-on configs above cover the clamp.
      {SortStrategy::kVkcDeg, true, true, CheckerKind::kBfs, true, 1, false},
      {SortStrategy::kVkcDeg, true, true, CheckerKind::kNlrnl, true, 4, false},
  };

  for (const auto& query : queries) {
    BfsChecker ref_checker(g.graph());
    const auto truth = BruteForceKtg(g, idx, ref_checker, query);
    ASSERT_TRUE(truth.ok());
    const auto expected = CoverageCounts(truth->groups);

    for (const auto& config : configs) {
      auto checker = MakeChecker(config.checker, g.graph(), query.tenuity);
      EngineOptions opts;
      opts.sort = config.sort;
      opts.keyword_pruning = config.pruning;
      opts.eager_kline_filtering = config.eager;
      opts.ceiling_prune = config.ceiling;
      opts.num_threads = config.threads;
      opts.residual_bound = config.residual;
      const auto got = RunKtg(g, idx, *checker, query, opts);
      ASSERT_TRUE(got.ok());

      EXPECT_EQ(CoverageCounts(got->groups), expected)
          << ConfigName(config) << " round=" << round
          << " p=" << query.group_size << " k=" << query.tenuity
          << " N=" << query.top_n;

      // Structural invariants of Definition 7.
      BfsChecker validator(g.graph());
      for (const auto& grp : got->groups) {
        EXPECT_EQ(grp.members.size(), query.group_size);
        EXPECT_TRUE(
            IsKDistanceGroup(grp.members, query.tenuity, validator));
        CoverMask mask = 0;
        for (const VertexId m : grp.members) {
          const CoverMask vm = CoverMaskOf(g, m, query.keywords);
          EXPECT_GT(PopCount(vm), 0);
          mask |= vm;
        }
        EXPECT_EQ(mask, grp.mask);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Rounds, EngineEquivalenceTest,
                         ::testing::Range(0, 12));

// The residual suffix-union clamp is a pure tightening: with it on, the
// serial engine returns the *identical* groups (same members, not just the
// coverage profile — it only cuts subtrees whose groups the collector
// would reject) while never expanding more nodes than the un-clamped
// search; prunes charged to it land in ub_prunes, not keyword_prunes.
TEST(ResidualBoundTest, IdenticalGroupsAndMonotoneNodeCounts) {
  // Rare keywords (small per-vertex sets, steep Zipf) and wide queries:
  // the clamp only beats the additive bound and the node ceiling when some
  // keyword lives exclusively in already-skipped siblings, which needs
  // low-frequency keywords to occur at all.
  Rng rng(0xE0FF + 8);
  KeywordModel model;
  model.vocabulary_size = 24;
  model.min_per_vertex = 1;
  model.max_per_vertex = 2;
  model.zipf_exponent = 1.2;
  uint64_t total_ub_prunes = 0;
  for (int round = 0; round < 8; ++round) {
    const AttributedGraph g = AssignKeywords(
        round % 2 == 0 ? ErdosRenyi(60, 0.05, rng)
                       : WattsStrogatz(64, 2, 0.2, rng),
        model, rng);
    const InvertedIndex idx(g);
    WorkloadOptions wopts;
    wopts.num_queries = 3;
    wopts.keyword_count = 8;
    wopts.group_size = 2 + round % 3;
    wopts.tenuity = static_cast<HopDistance>(1 + round % 2);
    wopts.top_n = 1 + round % 3;
    for (const auto& query : GenerateWorkload(g, wopts, rng)) {
      BfsChecker c1(g.graph()), c2(g.graph());
      EngineOptions off;
      off.residual_bound = false;
      const auto base = RunKtg(g, idx, c1, query, off);
      const auto tight = RunKtg(g, idx, c2, query, EngineOptions{});
      ASSERT_TRUE(base.ok() && tight.ok());
      EXPECT_EQ(tight->groups, base->groups) << "round " << round;
      EXPECT_LE(tight->stats.nodes_expanded, base->stats.nodes_expanded)
          << "round " << round;
      EXPECT_EQ(base->stats.ub_prunes, 0u);
      total_ub_prunes += tight->stats.ub_prunes;
    }
  }
  // The clamp must actually fire somewhere across the sweep (otherwise the
  // monotonicity assertions are vacuous).
  EXPECT_GT(total_ub_prunes, 0u);
}

// Query shapes the random workloads never draw. Both exact engines, serial
// and root-parallel, exact and anytime, must return brute force's coverage
// profile — and no groups at all where brute force finds none.
enum class Degenerate {
  kOneKeyword,            // |W_Q| = 1
  kPBeyondCandidates,     // p larger than the candidate count
  kOnlyUnknownKeywords,   // every query keyword is out of vocabulary
  kNBeyondFeasible,       // N larger than the number of feasible groups
};

const char* const kDegenerateNames[] = {"OneKeyword", "PBeyondCandidates",
                                        "OnlyUnknownKeywords",
                                        "NBeyondFeasible"};

class DegenerateQueryTest : public ::testing::TestWithParam<Degenerate> {};

TEST_P(DegenerateQueryTest, ExactAndAnytimeMatchBruteForce) {
  Rng rng(0xDE6E);
  KeywordModel model;
  model.vocabulary_size = 12;
  model.min_per_vertex = 1;
  model.max_per_vertex = 3;
  model.empty_fraction = 0.1;
  const AttributedGraph g = AssignKeywords(BarabasiAlbert(36, 2, rng), model,
                                           rng);
  const InvertedIndex idx(g);

  KtgQuery query;
  query.group_size = 3;
  query.tenuity = 1;
  query.top_n = 3;
  switch (GetParam()) {
    case Degenerate::kOneKeyword:
      query.keywords = {0};
      break;
    case Degenerate::kPBeyondCandidates: {
      query.keywords = {0, 1};
      uint32_t candidates = 0;
      for (VertexId v = 0; v < g.num_vertices(); ++v) {
        if (CoverMaskOf(g, v, query.keywords) != 0) ++candidates;
      }
      query.group_size = candidates + 1;
      break;
    }
    case Degenerate::kOnlyUnknownKeywords:
      query.keywords = {kInvalidKeyword, kInvalidKeyword};
      break;
    case Degenerate::kNBeyondFeasible:
      // C(36, 2) = 630 pairs bound the feasible groups from above.
      query.keywords = {0, 1, 2, 3};
      query.group_size = 2;
      query.top_n = 1000;
      break;
  }

  BfsChecker ref_checker(g.graph());
  const auto truth = BruteForceKtg(g, idx, ref_checker, query);
  ASSERT_TRUE(truth.ok());
  const auto expected = CoverageCounts(truth->groups);
  switch (GetParam()) {
    case Degenerate::kOneKeyword:
      EXPECT_FALSE(expected.empty());
      break;
    case Degenerate::kPBeyondCandidates:
    case Degenerate::kOnlyUnknownKeywords:
      EXPECT_TRUE(expected.empty());
      break;
    case Degenerate::kNBeyondFeasible:
      EXPECT_FALSE(expected.empty());
      EXPECT_LT(expected.size(), query.top_n);
      break;
  }

  // A completed anytime run must match too: its greedy seeds, found again
  // by the search, must not take a second collector slot.
  for (const EngineMode mode : {EngineMode::kExact, EngineMode::kAnytime}) {
    for (const uint32_t threads : {1u, 4u}) {
      const std::string where =
          std::string(EngineModeName(mode)) + " t" + std::to_string(threads);
      auto checker =
          MakeChecker(CheckerKind::kNlrnl, g.graph(), query.tenuity);
      EngineOptions opts;
      opts.mode = mode;
      opts.num_threads = threads;
      const auto ktg = RunKtg(g, idx, *checker, query, opts);
      ASSERT_TRUE(ktg.ok()) << ktg.status().ToString();
      EXPECT_EQ(CoverageCounts(ktg->groups), expected) << where;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, DegenerateQueryTest,
    ::testing::Values(Degenerate::kOneKeyword, Degenerate::kPBeyondCandidates,
                      Degenerate::kOnlyUnknownKeywords,
                      Degenerate::kNBeyondFeasible),
    [](const ::testing::TestParamInfo<Degenerate>& info) {
      return std::string(kDegenerateNames[static_cast<int>(info.param)]);
    });

}  // namespace
}  // namespace ktg
