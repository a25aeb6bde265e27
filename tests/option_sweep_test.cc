// Copyright (c) 2026 The ktg Authors.
// Parameterized option sweeps: every tuning knob of the indexes and the
// engine must preserve exact answers across its whole range.
//
//   * NL with max_stored_hops 1..6 × memoization on/off — ground truth;
//   * NLRNL with max_c 2..8 — ground truth;
//   * engine with every (p, k, N) of Table I on a fixed instance — brute
//     force.

#include <gtest/gtest.h>

#include <tuple>

#include "core/brute_force.h"
#include "core/ktg_engine.h"
#include "datagen/generators.h"
#include "datagen/keyword_assigner.h"
#include "datagen/query_gen.h"
#include "graph/bfs.h"
#include "index/bfs_checker.h"
#include "index/nl_index.h"
#include "index/nlrnl_index.h"
#include "keywords/inverted_index.h"

namespace ktg {
namespace {

Graph SweepGraph(uint64_t seed) {
  Rng rng(seed);
  return WattsStrogatz(90, 2, 0.15, rng);
}

using NlParam = std::tuple<int /*max_hops*/, bool /*memoize*/>;

class NlOptionSweepTest : public ::testing::TestWithParam<NlParam> {};

TEST_P(NlOptionSweepTest, ExactUnderEveryHorizon) {
  const auto [max_hops, memoize] = GetParam();
  const Graph g = SweepGraph(0x0511);
  NlIndexOptions opts;
  opts.max_stored_hops = static_cast<uint32_t>(max_hops);
  opts.memoize_expansions = memoize;
  NlIndex index(g, opts);

  Rng rng(0x0512);
  std::vector<std::vector<HopDistance>> dist(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    dist[v] = DistancesFrom(g, v);
  }
  for (int trial = 0; trial < 400; ++trial) {
    const auto u = static_cast<VertexId>(rng.Below(g.num_vertices()));
    const auto v = static_cast<VertexId>(rng.Below(g.num_vertices()));
    const auto k = static_cast<HopDistance>(rng.Below(7));
    ASSERT_EQ(index.IsFartherThan(u, v, k), dist[u][v] > k)
        << "u=" << u << " v=" << v << " k=" << k
        << " max_hops=" << max_hops << " memoize=" << memoize;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Horizons, NlOptionSweepTest,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 6),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<NlParam>& info) {
      std::string name = "h";
      name += std::to_string(std::get<0>(info.param));
      name += std::get<1>(info.param) ? "_memo" : "_nomemo";
      return name;
    });

class NlrnlOptionSweepTest : public ::testing::TestWithParam<int> {};

TEST_P(NlrnlOptionSweepTest, ExactUnderEveryMaxC) {
  const Graph g = SweepGraph(0x0513);
  NlrnlIndexOptions opts;
  opts.max_c = static_cast<uint32_t>(GetParam());
  NlrnlIndex index(g, opts);

  Rng rng(0x0514);
  std::vector<std::vector<HopDistance>> dist(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    dist[v] = DistancesFrom(g, v);
  }
  for (int trial = 0; trial < 400; ++trial) {
    const auto u = static_cast<VertexId>(rng.Below(g.num_vertices()));
    const auto v = static_cast<VertexId>(rng.Below(g.num_vertices()));
    const auto k = static_cast<HopDistance>(rng.Below(7));
    ASSERT_EQ(index.IsFartherThan(u, v, k), dist[u][v] > k)
        << "u=" << u << " v=" << v << " k=" << k << " max_c=" << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(MaxC, NlrnlOptionSweepTest,
                         ::testing::Values(2, 3, 4, 5, 8));

using TableParam = std::tuple<int /*p*/, int /*k*/, int /*N*/>;

class TableOneSweepTest : public ::testing::TestWithParam<TableParam> {};

TEST_P(TableOneSweepTest, EngineIsExactAcrossTableOne) {
  const auto [p, k, n] = GetParam();
  Rng rng(0x7AB1E);
  KeywordModel model;
  model.vocabulary_size = 14;
  model.min_per_vertex = 1;
  model.max_per_vertex = 3;
  const AttributedGraph g =
      AssignKeywords(BarabasiAlbert(42, 2, rng), model, rng);
  const InvertedIndex idx(g);

  WorkloadOptions wopts;
  wopts.num_queries = 2;
  wopts.keyword_count = 6;
  wopts.group_size = static_cast<uint32_t>(p);
  wopts.tenuity = static_cast<HopDistance>(k);
  wopts.top_n = static_cast<uint32_t>(n);
  for (const auto& q : GenerateWorkload(g, wopts, rng)) {
    BfsChecker c1(g.graph()), c2(g.graph());
    const auto truth = BruteForceKtg(g, idx, c1, q);
    const auto got = RunKtg(g, idx, c2, q);
    ASSERT_TRUE(truth.ok() && got.ok());
    ASSERT_EQ(got->groups.size(), truth->groups.size());
    for (size_t i = 0; i < truth->groups.size(); ++i) {
      EXPECT_EQ(got->groups[i].covered(), truth->groups[i].covered())
          << "p=" << p << " k=" << k << " N=" << n;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    TableOne, TableOneSweepTest,
    ::testing::Combine(::testing::Values(3, 4, 5),      // p (capped for BF)
                       ::testing::Values(1, 2, 3, 4),   // k
                       ::testing::Values(3, 5, 7)),     // N
    [](const ::testing::TestParamInfo<TableParam>& info) {
      std::string name = "p";
      name += std::to_string(std::get<0>(info.param));
      name += "_k";
      name += std::to_string(std::get<1>(info.param));
      name += "_N";
      name += std::to_string(std::get<2>(info.param));
      return name;
    });

}  // namespace
}  // namespace ktg
