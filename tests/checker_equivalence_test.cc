// Copyright (c) 2026 The ktg Authors.
// Property suite: every DistanceChecker implementation must agree with
// ground-truth hop distances on every (u, v, k) — across graph families,
// densities and tenuity constraints. This is the correctness backbone for
// Section V: the paper's NL and NLRNL answer the same predicate, only
// faster/smaller.

#include <gtest/gtest.h>

#include <memory>
#include <tuple>

#include "datagen/generators.h"
#include "graph/bfs.h"
#include "index/checker_factory.h"
#include "index/nl_index.h"
#include "util/rng.h"

namespace ktg {
namespace {

enum class Family {
  kPath,
  kCycle,
  kGrid,
  kTree,
  kEr,
  kBa,
  kWs,
  kTwoComponents
};

Graph MakeGraph(Family family, Rng& rng) {
  switch (family) {
    case Family::kPath:
      return PathGraph(40);
    case Family::kCycle:
      return CycleGraph(31);
    case Family::kGrid:
      return GridGraph(6, 7);
    case Family::kTree:
      return AryTree(60, 3);
    case Family::kEr:
      return ErdosRenyi(70, 0.05, rng);
    case Family::kBa:
      return BarabasiAlbert(80, 3, rng);
    case Family::kWs:
      return WattsStrogatz(70, 2, 0.15, rng);
    case Family::kTwoComponents: {
      GraphBuilder b(60);
      Rng r1(rng.Next()), r2(rng.Next());
      const Graph a = BarabasiAlbert(30, 2, r1);
      const Graph c = ErdosRenyi(30, 0.12, r2);
      for (const auto& [u, v] : a.EdgeList()) b.AddEdge(u, v);
      for (const auto& [u, v] : c.EdgeList()) b.AddEdge(u + 30, v + 30);
      return b.Build();
    }
  }
  return Graph();
}

const char* FamilyName(Family f) {
  switch (f) {
    case Family::kPath: return "Path";
    case Family::kCycle: return "Cycle";
    case Family::kGrid: return "Grid";
    case Family::kTree: return "Tree";
    case Family::kEr: return "ER";
    case Family::kBa: return "BA";
    case Family::kWs: return "WS";
    case Family::kTwoComponents: return "TwoComponents";
  }
  return "?";
}

using Param = std::tuple<Family, int /*k*/>;

class CheckerEquivalenceTest : public ::testing::TestWithParam<Param> {};

TEST_P(CheckerEquivalenceTest, AllCheckersMatchGroundTruth) {
  const auto [family, k_int] = GetParam();
  const auto k = static_cast<HopDistance>(k_int);
  Rng rng(0x9000 + static_cast<uint64_t>(family) * 131 + k_int);
  const Graph g = MakeGraph(family, rng);
  const uint32_t n = g.num_vertices();

  // Ground truth: full BFS from each vertex.
  std::vector<std::vector<HopDistance>> dist(n);
  for (VertexId v = 0; v < n; ++v) dist[v] = DistancesFrom(g, v);

  std::vector<std::unique_ptr<DistanceChecker>> checkers;
  for (const auto kind :
       {CheckerKind::kBfs, CheckerKind::kNl, CheckerKind::kNlrnl}) {
    checkers.push_back(MakeChecker(kind, g));
  }
  // Also a horizon-starved NL (forces the Algorithm-2 expansion path).
  NlIndexOptions tight;
  tight.max_stored_hops = 1;
  checkers.push_back(std::make_unique<NlIndex>(g, tight));

  for (int trial = 0; trial < 600; ++trial) {
    const auto u = static_cast<VertexId>(rng.Below(n));
    const auto v = static_cast<VertexId>(rng.Below(n));
    const bool truth = dist[u][v] > k;
    for (const auto& checker : checkers) {
      EXPECT_EQ(checker->IsFartherThan(u, v, k), truth)
          << checker->name() << " disagrees at u=" << u << " v=" << v
          << " k=" << k << " d=" << dist[u][v];
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllFamiliesAndK, CheckerEquivalenceTest,
    ::testing::Combine(
        ::testing::Values(Family::kPath, Family::kCycle, Family::kGrid,
                          Family::kTree, Family::kEr, Family::kBa, Family::kWs,
                          Family::kTwoComponents),
        ::testing::Values(1, 2, 3, 4)),
    [](const ::testing::TestParamInfo<Param>& info) {
      return std::string(FamilyName(std::get<0>(info.param))) + "_k" +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace ktg
