// Copyright (c) 2026 The ktg Authors.
// Unit tests for the CSR graph and its builder.

#include <gtest/gtest.h>

#include <algorithm>

#include "datagen/generators.h"
#include "graph/graph.h"
#include "util/rng.h"

namespace ktg {
namespace {

TEST(GraphBuilderTest, EmptyGraph) {
  GraphBuilder b;
  const Graph g = b.Build();
  EXPECT_EQ(g.num_vertices(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_EQ(g.AverageDegree(), 0.0);
}

TEST(GraphBuilderTest, MinVerticesCreatesIsolated) {
  GraphBuilder b(5);
  const Graph g = b.Build();
  EXPECT_EQ(g.num_vertices(), 5u);
  for (VertexId v = 0; v < 5; ++v) EXPECT_EQ(g.Degree(v), 0u);
}

TEST(GraphBuilderTest, DeduplicatesAndNormalizes) {
  GraphBuilder b;
  b.AddEdge(0, 1);
  b.AddEdge(1, 0);  // reverse orientation
  b.AddEdge(0, 1);  // duplicate
  b.AddEdge(2, 2);  // self-loop dropped
  const Graph g = b.Build();
  EXPECT_EQ(g.num_vertices(), 3u);
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(g.Degree(0), 1u);
  EXPECT_EQ(g.Degree(1), 1u);
  EXPECT_EQ(g.Degree(2), 0u);
}

TEST(GraphBuilderTest, NeighborsAreSorted) {
  GraphBuilder b;
  b.AddEdge(0, 9);
  b.AddEdge(0, 3);
  b.AddEdge(0, 7);
  b.AddEdge(0, 1);
  const Graph g = b.Build();
  const auto nbrs = g.Neighbors(0);
  ASSERT_EQ(nbrs.size(), 4u);
  EXPECT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end()));
  EXPECT_EQ(nbrs[0], 1u);
  EXPECT_EQ(nbrs[3], 9u);
}

TEST(GraphTest, HasEdge) {
  GraphBuilder b;
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  const Graph g = b.Build();
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.HasEdge(1, 0));
  EXPECT_TRUE(g.HasEdge(2, 1));
  EXPECT_FALSE(g.HasEdge(0, 2));
  EXPECT_FALSE(g.HasEdge(0, 0));
  EXPECT_FALSE(g.HasEdge(0, 99));  // out of range is just "no edge"
}

TEST(GraphTest, EdgeListRoundTrip) {
  GraphBuilder b;
  b.AddEdge(3, 1);
  b.AddEdge(0, 2);
  b.AddEdge(2, 3);
  const Graph g = b.Build();
  const auto edges = g.EdgeList();
  ASSERT_EQ(edges.size(), 3u);
  for (const auto& [u, v] : edges) EXPECT_LT(u, v);
  EXPECT_TRUE(std::is_sorted(edges.begin(), edges.end()));

  GraphBuilder b2(g.num_vertices());
  for (const auto& [u, v] : edges) b2.AddEdge(u, v);
  const Graph g2 = b2.Build();
  EXPECT_EQ(g2.EdgeList(), edges);
}

TEST(GraphTest, AverageDegree) {
  const Graph g = CompleteGraph(5);
  EXPECT_DOUBLE_EQ(g.AverageDegree(), 4.0);
  EXPECT_EQ(g.num_edges(), 10u);
}

TEST(GraphTest, WithEdgeAdded) {
  const Graph g = PathGraph(4);
  const Graph g2 = WithEdgeAdded(g, 0, 3);
  EXPECT_EQ(g2.num_edges(), g.num_edges() + 1);
  EXPECT_TRUE(g2.HasEdge(0, 3));
  // Adding an existing edge is a no-op copy.
  const Graph g3 = WithEdgeAdded(g2, 3, 0);
  EXPECT_EQ(g3.num_edges(), g2.num_edges());
}

TEST(GraphTest, WithEdgeAddedGrowsVertexSet) {
  const Graph g = PathGraph(3);
  const Graph g2 = WithEdgeAdded(g, 2, 7);
  EXPECT_EQ(g2.num_vertices(), 8u);
  EXPECT_TRUE(g2.HasEdge(2, 7));
}

TEST(GraphTest, EdgeEditsMatchARebuild) {
  // Every in-range insertion and deletion, spliced into the CSR, must equal
  // the graph a builder makes from the edited edge list.
  Rng rng(0x5B1);
  const Graph g = ErdosRenyi(30, 0.15, rng);
  auto rebuilt = [&](VertexId a, VertexId b, bool insert) {
    GraphBuilder builder(g.num_vertices());
    for (const auto& [u, v] : g.EdgeList()) {
      const bool edited = std::min(a, b) == u && std::max(a, b) == v;
      if (insert || !edited) builder.AddEdge(u, v);
    }
    if (insert) builder.AddEdge(a, b);
    return builder.Build();
  };
  for (VertexId a = 0; a < g.num_vertices(); ++a) {
    for (VertexId b = 0; b < g.num_vertices(); ++b) {
      const Graph added = WithEdgeAdded(g, a, b);
      const Graph removed = WithEdgeRemoved(g, a, b);
      const Graph want_added = rebuilt(a, b, true);
      const Graph want_removed = rebuilt(a, b, false);
      ASSERT_EQ(added.EdgeList(), want_added.EdgeList()) << a << "," << b;
      ASSERT_EQ(removed.EdgeList(), want_removed.EdgeList()) << a << "," << b;
      for (VertexId v = 0; v < g.num_vertices(); ++v) {
        ASSERT_TRUE(std::ranges::equal(added.Neighbors(v),
                                       want_added.Neighbors(v)));
        ASSERT_TRUE(std::ranges::equal(removed.Neighbors(v),
                                       want_removed.Neighbors(v)));
      }
    }
  }
}

TEST(GraphTest, WithEdgeRemoved) {
  const Graph g = CycleGraph(5);
  const Graph g2 = WithEdgeRemoved(g, 4, 0);
  EXPECT_EQ(g2.num_edges(), 4u);
  EXPECT_FALSE(g2.HasEdge(0, 4));
  // Removing an absent edge is a no-op copy.
  const Graph g3 = WithEdgeRemoved(g2, 0, 4);
  EXPECT_EQ(g3.num_edges(), 4u);
}

TEST(GraphTest, MemoryBytesGrowsWithSize) {
  Rng rng(1);
  const Graph small = BarabasiAlbert(100, 3, rng);
  const Graph large = BarabasiAlbert(1000, 3, rng);
  EXPECT_GT(large.MemoryBytes(), small.MemoryBytes());
}

TEST(GraphTest, DegreeSumIsTwiceEdges) {
  Rng rng(2);
  const Graph g = ChungLuPowerLaw(500, 8.0, 2.5, rng);
  uint64_t sum = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) sum += g.Degree(v);
  EXPECT_EQ(sum, 2 * g.num_edges());
}

}  // namespace
}  // namespace ktg
