// Copyright (c) 2026 The ktg Authors.
// Unit tests for SNAP edge-list I/O.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "datagen/generators.h"
#include "graph/graph_io.h"

namespace ktg {
namespace {

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

TEST(GraphIoTest, ParseBasic) {
  const auto r = ParseEdgeList("# comment\n0 1\n1 2\n\n2 0\n");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->num_vertices(), 3u);
  EXPECT_EQ(r->num_edges(), 3u);
}

TEST(GraphIoTest, ParseToleratesTabsAndPercentComments) {
  const auto r = ParseEdgeList("% matrix-market style\n0\t5\n5\t6\n");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->num_vertices(), 7u);
  EXPECT_EQ(r->num_edges(), 2u);
}

TEST(GraphIoTest, ParseDeduplicates) {
  const auto r = ParseEdgeList("0 1\n1 0\n0 1\n1 1\n");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->num_edges(), 1u);  // self-loop and duplicates dropped
}

TEST(GraphIoTest, MalformedLineIsError) {
  const auto r = ParseEdgeList("0 1\nnot an edge\n");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(GraphIoTest, MissingSecondEndpointIsError) {
  const auto r = ParseEdgeList("0 1\n42\n");
  ASSERT_FALSE(r.ok());
}

TEST(GraphIoTest, MissingFileIsIoError) {
  const auto r = LoadEdgeList("/nonexistent/ktg/edges.txt");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
}

TEST(GraphIoTest, SaveLoadRoundTrip) {
  Rng rng(4);
  const Graph g = BarabasiAlbert(200, 4, rng);
  const std::string path = TempPath("ktg_io_roundtrip.txt");
  ASSERT_TRUE(SaveEdgeList(g, path).ok());
  const auto r = LoadEdgeList(path);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->num_vertices(), g.num_vertices());
  EXPECT_EQ(r->EdgeList(), g.EdgeList());
  std::remove(path.c_str());
}

TEST(GraphIoTest, IdFarBeyondTheEdgesIsOutOfRange) {
  // One edge cannot touch 2^32 ids; sizing the CSR by the id would ask for
  // a 32 GB offset array.
  const auto r = ParseEdgeList("0 4294967294\n");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kOutOfRange);
  // Three edges may touch ids up to 2 * 3 + 2^16 - 1 = 65541.
  const auto late = ParseEdgeList("0 1\n1 40000\n40000 65542\n");
  ASSERT_FALSE(late.ok());
  EXPECT_EQ(late.status().code(), StatusCode::kOutOfRange);
}

TEST(GraphIoTest, SparseIdsWithinTheEdgeBudgetLoad) {
  // SNAP-style files number vertices sparsely: ids up to twice the edge
  // count plus a fixed slack still load, isolated vertices included.
  const auto r = ParseEdgeList("0 1\n1 40000\n40000 65541\n");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->num_vertices(), 65542u);
  EXPECT_EQ(r->num_edges(), 3u);
  EXPECT_EQ(r->Degree(40000), 2u);
}

TEST(GraphIoTest, EmptyInputIsEmptyGraph) {
  const auto r = ParseEdgeList("");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->num_vertices(), 0u);
}

}  // namespace
}  // namespace ktg
