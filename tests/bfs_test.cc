// Copyright (c) 2026 The ktg Authors.
// BFS machinery tests: bounded distances, bidirectional search, balls,
// levels and eccentricity, cross-checked against an all-pairs reference.

#include <gtest/gtest.h>

#include <limits>
#include <numeric>
#include <span>
#include <utility>

#include "datagen/generators.h"
#include "graph/bfs.h"
#include "util/rng.h"

namespace ktg {
namespace {

// Floyd–Warshall reference on hop counts.
std::vector<std::vector<uint32_t>> AllPairs(const Graph& g) {
  const uint32_t n = g.num_vertices();
  constexpr uint32_t kInf = std::numeric_limits<uint32_t>::max() / 4;
  std::vector<std::vector<uint32_t>> d(n, std::vector<uint32_t>(n, kInf));
  for (uint32_t i = 0; i < n; ++i) d[i][i] = 0;
  for (const auto& [u, v] : g.EdgeList()) d[u][v] = d[v][u] = 1;
  for (uint32_t k = 0; k < n; ++k) {
    for (uint32_t i = 0; i < n; ++i) {
      for (uint32_t j = 0; j < n; ++j) {
        d[i][j] = std::min(d[i][j], d[i][k] + d[k][j]);
      }
    }
  }
  return d;
}

constexpr uint32_t kInf = std::numeric_limits<uint32_t>::max() / 4;

TEST(BfsTest, PathGraphDistances) {
  const Graph g = PathGraph(10);
  BoundedBfs bfs(g);
  EXPECT_EQ(bfs.Distance(0, 9, 20), 9);
  EXPECT_EQ(bfs.Distance(0, 9, 9), 9);
  EXPECT_EQ(bfs.Distance(0, 9, 8), kUnreachable);
  EXPECT_EQ(bfs.Distance(4, 4, 0), 0);
  EXPECT_EQ(bfs.Distance(3, 7, 4), 4);
}

TEST(BfsTest, DisconnectedIsUnreachable) {
  GraphBuilder b(4);
  b.AddEdge(0, 1);
  b.AddEdge(2, 3);
  const Graph g = b.Build();
  BoundedBfs bfs(g);
  EXPECT_EQ(bfs.Distance(0, 3, 100), kUnreachable);
  EXPECT_EQ(bfs.DistanceBidirectional(0, 3, 100), kUnreachable);
}

TEST(BfsTest, BidirectionalMatchesUnidirectional) {
  Rng rng(31);
  for (int trial = 0; trial < 5; ++trial) {
    const Graph g = ErdosRenyi(60, 0.06, rng);
    BoundedBfs bfs(g);
    const auto ref = AllPairs(g);
    for (int i = 0; i < 200; ++i) {
      const auto s = static_cast<VertexId>(rng.Below(g.num_vertices()));
      const auto t = static_cast<VertexId>(rng.Below(g.num_vertices()));
      for (const HopDistance k : {1, 2, 3, 5}) {
        const HopDistance uni = bfs.Distance(s, t, k);
        const HopDistance bi = bfs.DistanceBidirectional(s, t, k);
        const uint32_t truth = ref[s][t];
        if (truth <= k) {
          EXPECT_EQ(uni, truth);
          EXPECT_EQ(bi, truth) << "s=" << s << " t=" << t << " k=" << k;
        } else {
          EXPECT_EQ(uni, kUnreachable);
          EXPECT_EQ(bi, kUnreachable) << "s=" << s << " t=" << t << " k=" << k;
        }
      }
    }
  }
}

TEST(BfsTest, BallMatchesReference) {
  Rng rng(33);
  const Graph g = WattsStrogatz(80, 2, 0.2, rng);
  BoundedBfs bfs(g);
  const auto ref = AllPairs(g);
  for (VertexId s = 0; s < g.num_vertices(); s += 7) {
    for (const HopDistance k : {1, 2, 3}) {
      const auto ball = bfs.Ball(s, k);
      EXPECT_TRUE(std::is_sorted(ball.begin(), ball.end()));
      std::vector<VertexId> expect;
      for (VertexId t = 0; t < g.num_vertices(); ++t) {
        if (t != s && ref[s][t] <= k) expect.push_back(t);
      }
      EXPECT_EQ(ball, expect) << "s=" << s << " k=" << k;
    }
  }
}

TEST(BfsTest, LevelsPartitionTheBall) {
  Rng rng(35);
  const Graph g = BarabasiAlbert(100, 3, rng);
  BoundedBfs bfs(g);
  const auto ref = AllPairs(g);
  const VertexId s = 17;
  const auto levels = bfs.Levels(s, 4);
  for (size_t i = 0; i < levels.size(); ++i) {
    for (const VertexId t : levels[i]) {
      EXPECT_EQ(ref[s][t], i + 1);
    }
  }
  // Every vertex within 4 hops appears in exactly one level.
  size_t total = 0;
  for (const auto& l : levels) total += l.size();
  size_t expect = 0;
  for (VertexId t = 0; t < g.num_vertices(); ++t) {
    if (t != s && ref[s][t] <= 4) ++expect;
  }
  EXPECT_EQ(total, expect);
}

TEST(BfsTest, EccentricityOnKnownShapes) {
  const Graph path = PathGraph(10);
  BoundedBfs path_bfs(path);
  EXPECT_EQ(path_bfs.Eccentricity(0), 9);
  EXPECT_EQ(path_bfs.Eccentricity(5), 5);

  const Graph grid = GridGraph(3, 4);
  BoundedBfs grid_bfs(grid);
  EXPECT_EQ(grid_bfs.Eccentricity(0), 5);  // corner to opposite corner

  const Graph k5 = CompleteGraph(5);
  BoundedBfs k5_bfs(k5);
  EXPECT_EQ(k5_bfs.Eccentricity(2), 1);
}

TEST(BfsTest, EccentricityOfIsolatedVertexIsZero) {
  GraphBuilder b(3);
  b.AddEdge(0, 1);
  const Graph g = b.Build();
  BoundedBfs bfs(g);
  EXPECT_EQ(bfs.Eccentricity(2), 0);
}

TEST(BfsTest, DistancesFromMatchesReference) {
  Rng rng(37);
  const Graph g = ErdosRenyi(70, 0.05, rng);
  const auto ref = AllPairs(g);
  for (VertexId s = 0; s < g.num_vertices(); s += 11) {
    const auto dist = DistancesFrom(g, s);
    for (VertexId t = 0; t < g.num_vertices(); ++t) {
      if (ref[s][t] >= kInf) {
        EXPECT_EQ(dist[t], kUnreachable);
      } else {
        EXPECT_EQ(dist[t], ref[s][t]);
      }
    }
  }
}

TEST(BfsTest, HopDistanceBetweenConvenience) {
  const Graph g = CycleGraph(8);
  EXPECT_EQ(HopDistanceBetween(g, 0, 4), 4);
  EXPECT_EQ(HopDistanceBetween(g, 1, 7), 2);
}

TEST(BfsTest, EpochReuseDoesNotLeakMarks) {
  // Many searches on the same engine must stay independent.
  const Graph g = PathGraph(50);
  BoundedBfs bfs(g);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(bfs.Distance(0, 5, 10), 5);
    EXPECT_EQ(bfs.DistanceBidirectional(10, 20, 10), 10);
  }
}

// A random forest: trees over about 80% of the vertices, the rest isolated.
Graph RandomForest(uint32_t n, Rng& rng) {
  GraphBuilder b(n);
  for (VertexId v = 1; v < n; ++v) {
    if (rng.Chance(0.8)) b.AddEdge(v, static_cast<VertexId>(rng.Below(v)));
  }
  return b.Build();
}

// The levels a sweep reports for each source, indexed [source][depth - 1].
std::vector<std::vector<std::vector<VertexId>>> SweepLevels(
    LevelSweep& sweep, std::span<const VertexId> sources,
    HopDistance max_hops) {
  std::vector<std::vector<std::vector<VertexId>>> levels(sources.size());
  sweep.Start(sources);
  while (sweep.depth() < max_hops) {
    const HopDistance depth = sweep.depth() + 1;
    for (auto& per_source : levels) per_source.emplace_back();
    const bool reached = sweep.Step([&](VertexId v, uint64_t bits) {
      for (size_t i = 0; i < sources.size(); ++i) {
        if (bits >> i & 1) levels[i][depth - 1].push_back(v);
      }
    });
    // Drop the level just opened for sources it did not reach.
    for (auto& per_source : levels) {
      if (per_source.back().empty()) per_source.pop_back();
    }
    if (!reached) {
      EXPECT_EQ(sweep.depth(), depth - 1);
      break;
    }
    EXPECT_EQ(sweep.depth(), depth);
  }
  return levels;
}

TEST(LevelSweepTest, EqualsLevelsOfEverySource) {
  Rng rng(41);
  for (const uint32_t n : {1u, 63u, 64u, 65u, 300u}) {
    std::vector<Graph> graphs;
    graphs.push_back(ErdosRenyi(n, 3.0 / n, rng));
    if (n > 3) graphs.push_back(BarabasiAlbert(n, 3, rng));
    graphs.push_back(RandomForest(n, rng));
    for (const Graph& g : graphs) {
      BoundedBfs bfs(g);
      LevelSweep sweep(g);
      for (const uint32_t width : {1u, 37u, 64u}) {
        // Distinct random sources, so they span components.
        std::vector<VertexId> sources(n);
        std::iota(sources.begin(), sources.end(), 0);
        rng.Shuffle(sources);
        sources.resize(std::min(width, n));
        for (const HopDistance max_hops :
             {HopDistance{1}, HopDistance{2}, HopDistance{3},
              HopDistance(kUnreachable - 1)}) {
          const auto got = SweepLevels(sweep, sources, max_hops);
          for (size_t i = 0; i < sources.size(); ++i) {
            ASSERT_EQ(got[i], bfs.Levels(sources[i], max_hops))
                << "n=" << n << " m=" << g.num_edges() << " width=" << width
                << " source=" << sources[i] << " max_hops=" << max_hops;
          }
        }
      }
    }
  }
}

TEST(LevelSweepTest, StartRangeNumbersSourcesFromFirst) {
  const Graph g = PathGraph(70);
  LevelSweep sweep(g);
  sweep.StartRange(5, 64);  // sources 5 .. 68; bit i stands for 5 + i
  std::vector<std::pair<VertexId, uint64_t>> level;
  ASSERT_TRUE(sweep.Step([&](VertexId v, uint64_t bits) {
    level.emplace_back(v, bits);
  }));
  // Depth 1 of source 5 + i is {4 + i, 6 + i}: vertices 4 .. 69, each once.
  ASSERT_EQ(level.size(), 66u);
  EXPECT_EQ(level.front(), (std::pair<VertexId, uint64_t>{4, 1}));
  EXPECT_EQ(level[2], (std::pair<VertexId, uint64_t>{6, 0b101}));
  EXPECT_EQ(level.back(),
            (std::pair<VertexId, uint64_t>{69, uint64_t{1} << 63}));
}

}  // namespace
}  // namespace ktg
