// Copyright (c) 2026 The ktg Authors.
// Dynamic maintenance tests for NL and NLRNL (Section V.B "updates"):
// after random edge insertions/deletions the incrementally updated index
// must answer exactly like an index rebuilt from scratch.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "datagen/generators.h"
#include "graph/bfs.h"
#include "index/affected.h"
#include "index/nl_index.h"
#include "index/nlrnl_index.h"
#include "index/serialization.h"
#include "util/rng.h"

namespace ktg {
namespace {

// Validates checker answers against ground truth over all pairs for several
// k values.
template <typename Index>
void ExpectMatchesGroundTruth(Index& index, const Graph& g,
                              const std::string& context) {
  const uint32_t n = g.num_vertices();
  for (VertexId u = 0; u < n; ++u) {
    const auto dist = DistancesFrom(g, u);
    for (VertexId v = 0; v < n; ++v) {
      for (const HopDistance k : {1, 2, 4}) {
        ASSERT_EQ(index.IsFartherThan(u, v, k), dist[v] > k)
            << context << ": u=" << u << " v=" << v << " k=" << k
            << " d=" << dist[v];
      }
    }
  }
}

TEST(AffectedTest, InsertionCriterion) {
  // Path 0-1-2-3-4-5; inserting {0,5} changes distances for everyone except
  // the middle (|d(u,0) - d(u,5)| <= 1 for u in {2, 3}).
  const Graph g = PathGraph(6);
  const auto affected = AffectedByInsertion(g, 0, 5);
  EXPECT_EQ(affected, (std::vector<VertexId>{0, 1, 4, 5}));
}

TEST(AffectedTest, InsertionAcrossComponents) {
  GraphBuilder b(4);
  b.AddEdge(0, 1);
  b.AddEdge(2, 3);
  const auto affected = AffectedByInsertion(b.Build(), 1, 2);
  // Everyone gains paths to the other component.
  EXPECT_EQ(affected, (std::vector<VertexId>{0, 1, 2, 3}));
}

TEST(AffectedTest, DeletionCriterion) {
  // Cycle of 6: deleting {0,5} affects exactly the vertices with
  // |d(u,0) - d(u,5)| == 1 — here every vertex except the antipodal region.
  const Graph g = CycleGraph(6);
  const auto affected =
      AffectedByDeletion(g, WithEdgeRemoved(g, 0, 5), 0, 5);
  for (const VertexId u : affected) {
    const auto d0 = DistancesFrom(g, 0)[u];
    const auto d5 = DistancesFrom(g, 5)[u];
    EXPECT_EQ(std::abs(static_cast<int>(d0) - static_cast<int>(d5)), 1);
  }
  EXPECT_FALSE(affected.empty());
}

// Ground truth for the affected sets: every u whose whole distance vector
// differs between the two graphs.
std::vector<VertexId> BruteForceAffected(const Graph& old_graph,
                                         const Graph& new_graph) {
  std::vector<VertexId> out;
  for (VertexId u = 0; u < old_graph.num_vertices(); ++u) {
    if (DistancesFrom(old_graph, u) != DistancesFrom(new_graph, u)) {
      out.push_back(u);
    }
  }
  return out;
}

TEST(AffectedTest, SetsAreExactOnRandomGraphs) {
  Rng rng(0xAFFEC7);
  for (int round = 0; round < 24; ++round) {
    // Even rounds sit below the connectivity threshold, so their graphs
    // are disconnected: insertions join components and many deletions cut
    // bridges.
    const auto n = static_cast<uint32_t>(20 + rng.Below(24));
    const Graph g = ErdosRenyi(n, round % 2 == 0 ? 0.05 : 0.15, rng);
    for (int trial = 0; trial < 6; ++trial) {
      const auto a = static_cast<VertexId>(rng.Below(n));
      const auto b = static_cast<VertexId>(rng.Below(n));
      if (a == b || g.HasEdge(a, b)) continue;
      ASSERT_EQ(AffectedByInsertion(g, a, b),
                BruteForceAffected(g, WithEdgeAdded(g, a, b)))
          << "round " << round << " insert {" << a << "," << b << "}";
    }
    for (const auto& [a, b] : g.EdgeList()) {
      const Graph next = WithEdgeRemoved(g, a, b);
      ASSERT_EQ(AffectedByDeletion(g, next, a, b),
                BruteForceAffected(g, next))
          << "round " << round << " delete {" << a << "," << b << "}";
    }
  }
}

TEST(AffectedTest, BridgeDeletionAffectsBothSides) {
  // Two triangles joined by the bridge {2, 3}: cutting it changes every
  // vertex's distances to the other side.
  GraphBuilder builder(6);
  for (const auto& [u, v] : std::vector<std::pair<VertexId, VertexId>>{
           {0, 1}, {1, 2}, {0, 2}, {2, 3}, {3, 4}, {4, 5}, {3, 5}}) {
    builder.AddEdge(u, v);
  }
  const Graph g = builder.Build();
  const Graph cut = WithEdgeRemoved(g, 2, 3);
  EXPECT_EQ(AffectedByDeletion(g, cut, 2, 3),
            (std::vector<VertexId>{0, 1, 2, 3, 4, 5}));
}

TEST(AffectedTest, DeletionSkipsEqualLengthDetours) {
  // Square 0-1-2-3 with a pendant 4 on 0. Deleting {1, 2} leaves every
  // distance of 0, 3 and 4 intact (each has a detour of the same length),
  // although all three have |d(u,1) - d(u,2)| == 1.
  GraphBuilder builder(5);
  for (const auto& [u, v] : std::vector<std::pair<VertexId, VertexId>>{
           {0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 4}}) {
    builder.AddEdge(u, v);
  }
  const Graph g = builder.Build();
  EXPECT_EQ(AffectedByDeletion(g, WithEdgeRemoved(g, 1, 2), 1, 2),
            (std::vector<VertexId>{1, 2}));
}

TEST(NlUpdateTest, InsertMatchesRebuild) {
  Rng rng(91);
  Graph g = ErdosRenyi(40, 0.06, rng);
  NlIndex index(g);
  for (int step = 0; step < 15; ++step) {
    const auto a = static_cast<VertexId>(rng.Below(40));
    const auto b = static_cast<VertexId>(rng.Below(40));
    index.InsertEdge(a, b);
    g = WithEdgeAdded(g, a, b);
    ASSERT_EQ(index.graph().EdgeList(), g.EdgeList());
  }
  ExpectMatchesGroundTruth(index, g, "after inserts");
}

TEST(NlUpdateTest, RemoveMatchesRebuild) {
  Rng rng(93);
  Graph g = BarabasiAlbert(40, 3, rng);
  NlIndex index(g);
  for (int step = 0; step < 15; ++step) {
    const auto edges = g.EdgeList();
    const auto& [a, b] = edges[rng.Below(edges.size())];
    index.RemoveEdge(a, b);
    g = WithEdgeRemoved(g, a, b);
  }
  ExpectMatchesGroundTruth(index, g, "after removals");
}

TEST(NlUpdateTest, NoOpsDoNothing) {
  const Graph g = PathGraph(10);
  NlIndex index(g);
  index.InsertEdge(0, 1);  // already present
  EXPECT_EQ(index.last_update_rebuilds(), 0u);
  index.InsertEdge(3, 3);  // self loop
  EXPECT_EQ(index.last_update_rebuilds(), 0u);
  index.RemoveEdge(0, 5);  // absent
  EXPECT_EQ(index.last_update_rebuilds(), 0u);
  ExpectMatchesGroundTruth(index, g, "after no-ops");
}

TEST(NlrnlUpdateTest, InsertMatchesRebuild) {
  Rng rng(95);
  Graph g = WattsStrogatz(36, 2, 0.1, rng);
  NlrnlIndex index(g);
  for (int step = 0; step < 15; ++step) {
    const auto a = static_cast<VertexId>(rng.Below(36));
    const auto b = static_cast<VertexId>(rng.Below(36));
    index.InsertEdge(a, b);
    g = WithEdgeAdded(g, a, b);
  }
  ExpectMatchesGroundTruth(index, g, "after inserts");
}

TEST(NlrnlUpdateTest, RemoveMatchesRebuildAndHandlesDisconnection) {
  // Removing path edges disconnects the graph; the component labels must
  // follow.
  Graph g = PathGraph(12);
  NlrnlIndex index(g);
  index.RemoveEdge(5, 6);
  g = WithEdgeRemoved(g, 5, 6);
  ExpectMatchesGroundTruth(index, g, "after split");
  EXPECT_TRUE(index.IsFartherThan(0, 11, 100));

  index.InsertEdge(5, 6);  // reconnect
  g = WithEdgeAdded(g, 5, 6);
  ExpectMatchesGroundTruth(index, g, "after reconnect");
}

TEST(NlrnlUpdateTest, MixedWorkload) {
  Rng rng(97);
  Graph g = ErdosRenyi(32, 0.1, rng);
  NlrnlIndex index(g);
  for (int step = 0; step < 30; ++step) {
    if (rng.Chance(0.5)) {
      const auto a = static_cast<VertexId>(rng.Below(32));
      const auto b = static_cast<VertexId>(rng.Below(32));
      index.InsertEdge(a, b);
      g = WithEdgeAdded(g, a, b);
    } else {
      const auto edges = g.EdgeList();
      if (edges.empty()) continue;
      const auto& [a, b] = edges[rng.Below(edges.size())];
      index.RemoveEdge(a, b);
      g = WithEdgeRemoved(g, a, b);
    }
  }
  ExpectMatchesGroundTruth(index, g, "after mixed workload");
}

TEST(NlrnlUpdateTest, RebuildCountIsBounded) {
  // The affected set must never exceed n, and for a far-apart insertion on
  // a path it is a strict subset.
  const Graph g = PathGraph(20);
  NlrnlIndex index(g);
  index.InsertEdge(0, 19);
  EXPECT_GT(index.last_update_rebuilds(), 0u);
  EXPECT_LT(index.last_update_rebuilds(), 20u);
}

// The bytes `save` writes for `index`.
template <typename Index, typename Save>
std::string SavedBytes(const Index& index, Save save) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "ktg_build_paths.idx")
          .string();
  EXPECT_TRUE(save(index, path).ok());
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  std::remove(path.c_str());
  return bytes;
}

// The build sweeps 64 sources at a time; RebuildRows runs one BFS per row.
// Rebuilding every row of a fresh index must not change a byte.
TEST(BuildPathsTest, FreshBuildEqualsRebuildOfEveryRow) {
  Rng rng(99);
  std::vector<Graph> graphs;
  graphs.push_back(ErdosRenyi(150, 0.012, rng));  // disconnected
  graphs.push_back(BarabasiAlbert(130, 2, rng));
  graphs.push_back(PathGraph(70));
  for (const Graph& g : graphs) {
    std::vector<VertexId> all(g.num_vertices());
    std::iota(all.begin(), all.end(), 0);
    for (const uint32_t threads : {1u, 4u}) {
      for (const uint32_t cap : {2u, 8u}) {
        const NlIndex nl(g, {.max_stored_hops = cap, .num_threads = threads});
        NlIndex nl_rows = nl;
        nl_rows.RebuildRows(g, all);
        EXPECT_EQ(SavedBytes(nl, SaveNlIndex),
                  SavedBytes(nl_rows, SaveNlIndex))
            << "NL n=" << g.num_vertices() << " threads=" << threads
            << " max_stored_hops=" << cap;

        const NlrnlIndex nlrnl(g, {.max_c = cap, .num_threads = threads});
        NlrnlIndex nlrnl_rows = nlrnl;
        nlrnl_rows.RebuildRows(g, all);
        EXPECT_EQ(SavedBytes(nlrnl, SaveNlrnlIndex),
                  SavedBytes(nlrnl_rows, SaveNlrnlIndex))
            << "NLRNL n=" << g.num_vertices() << " threads=" << threads
            << " max_c=" << cap;
      }
    }
  }
}

}  // namespace
}  // namespace ktg
