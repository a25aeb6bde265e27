// Copyright (c) 2026 The ktg Authors.
// Persistence tests for NL/NLRNL: save → load round trips answer
// identically to the original (including memoized NL expansions and
// post-load dynamic updates), and corrupt/truncated/mismatched files fail
// with a Status instead of crashing.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

#include "datagen/generators.h"
#include "index/nl_index.h"
#include "index/nlrnl_index.h"
#include "index/serialization.h"
#include "util/rng.h"

namespace ktg {
namespace {

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

template <typename A, typename B>
void ExpectSameAnswers(A& a, B& b, const Graph& g, uint64_t seed) {
  Rng rng(seed);
  for (int trial = 0; trial < 800; ++trial) {
    const auto u = static_cast<VertexId>(rng.Below(g.num_vertices()));
    const auto v = static_cast<VertexId>(rng.Below(g.num_vertices()));
    const auto k = static_cast<HopDistance>(rng.Below(6));
    ASSERT_EQ(a.IsFartherThan(u, v, k), b.IsFartherThan(u, v, k))
        << "u=" << u << " v=" << v << " k=" << k;
  }
}

TEST(IndexSerializationTest, NlRoundTrip) {
  Rng rng(0x5e1);
  const Graph g = BarabasiAlbert(150, 3, rng);
  NlIndex original(g);
  const std::string path = TempPath("ktg_nl.idx");
  ASSERT_TRUE(SaveNlIndex(original, path).ok());

  auto loaded = LoadNlIndex(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->graph().EdgeList(), g.EdgeList());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(loaded->base_hops(v), original.base_hops(v));
    EXPECT_EQ(loaded->stored_hops(v), original.stored_hops(v));
  }
  ExpectSameAnswers(original, *loaded, g, 1);
  std::remove(path.c_str());
}

TEST(IndexSerializationTest, NlRoundTripPreservesMemoizedExpansions) {
  NlIndexOptions opts;
  opts.max_stored_hops = 1;
  NlIndex original(PathGraph(30), opts);
  // Force expansions before saving.
  original.IsFartherThan(0, 15, 10);
  const uint32_t grown = original.stored_hops(15);
  ASSERT_GT(grown, 1u);

  const std::string path = TempPath("ktg_nl_memo.idx");
  ASSERT_TRUE(SaveNlIndex(original, path).ok());
  auto loaded = LoadNlIndex(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->stored_hops(15), grown);
  ExpectSameAnswers(original, *loaded, original.graph(), 2);
  std::remove(path.c_str());
}

TEST(IndexSerializationTest, NlrnlRoundTrip) {
  Rng rng(0x5e2);
  // Include a disconnected piece: component labels must be rebuilt on load.
  GraphBuilder b(140);
  const Graph ba = BarabasiAlbert(120, 3, rng);
  for (const auto& [u, v] : ba.EdgeList()) b.AddEdge(u, v);
  b.AddEdge(125, 126);
  b.AddEdge(126, 127);
  const Graph g = b.Build();

  NlrnlIndex original(g);
  const std::string path = TempPath("ktg_nlrnl.idx");
  ASSERT_TRUE(SaveNlrnlIndex(original, path).ok());

  auto loaded = LoadNlrnlIndex(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(loaded->c_value(v), original.c_value(v));
    EXPECT_EQ(loaded->num_forward_levels(v), original.num_forward_levels(v));
    EXPECT_EQ(loaded->num_reverse_levels(v), original.num_reverse_levels(v));
  }
  ExpectSameAnswers(original, *loaded, g, 3);
  EXPECT_TRUE(loaded->IsFartherThan(0, 126, 50));  // cross-component
  std::remove(path.c_str());
}

TEST(IndexSerializationTest, LoadedIndexSupportsUpdates) {
  Rng rng(0x5e3);
  const Graph g = ErdosRenyi(50, 0.08, rng);
  NlrnlIndex original(g);
  const std::string path = TempPath("ktg_nlrnl_upd.idx");
  ASSERT_TRUE(SaveNlrnlIndex(original, path).ok());
  auto loaded = LoadNlrnlIndex(path);
  ASSERT_TRUE(loaded.ok());

  loaded->InsertEdge(0, 49);
  original.InsertEdge(0, 49);
  ExpectSameAnswers(original, *loaded, original.graph(), 4);
  std::remove(path.c_str());
}

std::string ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

// FNV-1a over a whole file.
uint64_t FileDigest(const std::string& path) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char ch : ReadBytes(path)) {
    hash ^= static_cast<uint8_t>(ch);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

// A fixed small graph with every entry shape: a 4x5 grid with one chord, a
// three-vertex path component and an isolated vertex.
Graph DigestGraph() {
  GraphBuilder b(24);
  for (VertexId r = 0; r < 4; ++r) {
    for (VertexId c = 0; c < 5; ++c) {
      const VertexId v = r * 5 + c;
      if (c + 1 < 5) b.AddEdge(v, v + 1);
      if (r + 1 < 4) b.AddEdge(v, v + 5);
    }
  }
  b.AddEdge(0, 19);
  b.AddEdge(20, 21);
  b.AddEdge(21, 22);
  return b.Build();
}

TEST(IndexSerializationTest, SaveLoadSaveIsByteIdentical) {
  Rng rng(0x5e4);
  const Graph g = ErdosRenyi(90, 0.04, rng);  // disconnected
  const std::string first = TempPath("ktg_resave_1.idx");
  const std::string second = TempPath("ktg_resave_2.idx");

  ASSERT_TRUE(SaveNlrnlIndex(NlrnlIndex(g), first).ok());
  auto nlrnl = LoadNlrnlIndex(first);
  ASSERT_TRUE(nlrnl.ok()) << nlrnl.status().ToString();
  ASSERT_TRUE(SaveNlrnlIndex(*nlrnl, second).ok());
  EXPECT_EQ(ReadBytes(first), ReadBytes(second));

  ASSERT_TRUE(SaveNlIndex(NlIndex(g), first).ok());
  auto nl = LoadNlIndex(first);
  ASSERT_TRUE(nl.ok()) << nl.status().ToString();
  ASSERT_TRUE(SaveNlIndex(*nl, second).ok());
  EXPECT_EQ(ReadBytes(first), ReadBytes(second));
  std::remove(first.c_str());
  std::remove(second.c_str());
}

TEST(IndexSerializationTest, FileFormatIsPinned) {
  // Digests of format version 1 for a fixed index; a change here breaks
  // every index file already on disk.
  const std::string path = TempPath("ktg_pinned.idx");
  ASSERT_TRUE(SaveNlrnlIndex(NlrnlIndex(DigestGraph()), path).ok());
  EXPECT_EQ(FileDigest(path), 0x01888aed7e52fb51ULL);
  ASSERT_TRUE(SaveNlIndex(NlIndex(DigestGraph()), path).ok());
  EXPECT_EQ(FileDigest(path), 0xa121998b3ada438bULL);
  std::remove(path.c_str());
}

TEST(IndexSerializationTest, MissingFileFails) {
  EXPECT_FALSE(LoadNlIndex("/nonexistent/x.idx").ok());
  EXPECT_FALSE(LoadNlrnlIndex("/nonexistent/x.idx").ok());
}

TEST(IndexSerializationTest, WrongKindRejected) {
  NlIndex nl(PathGraph(10));
  const std::string path = TempPath("ktg_kind.idx");
  ASSERT_TRUE(SaveNlIndex(nl, path).ok());
  const auto r = LoadNlrnlIndex(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(IndexSerializationTest, GarbageRejected) {
  const std::string path = TempPath("ktg_garbage.idx");
  {
    std::ofstream out(path, std::ios::binary);
    out << "this is not an index";
  }
  EXPECT_FALSE(LoadNlIndex(path).ok());
  std::remove(path.c_str());
}

TEST(IndexSerializationTest, VertexCountBeyondFileSizeRejected) {
  // A bare header: magic, version, kind, vertex count n, edge count m = 0.
  // Such an n once wrapped n + 1 to 0 in the graph build (a crash) or asked
  // for tens of GB; it must fail on the file size before any allocation.
  const std::string path = TempPath("ktg_huge_n.idx");
  for (const uint8_t kind : {uint8_t{1}, uint8_t{2}}) {  // NL, NLRNL
    for (const uint32_t n : {0xFFFFFFFFu, 0x7FFFFFFFu}) {
      {
        std::ofstream out(path, std::ios::binary);
        const uint32_t magic = 0x4b544749;
        const uint32_t version = 1;
        const uint64_t m = 0;
        out.write(reinterpret_cast<const char*>(&magic), sizeof magic);
        out.write(reinterpret_cast<const char*>(&version), sizeof version);
        out.write(reinterpret_cast<const char*>(&kind), sizeof kind);
        out.write(reinterpret_cast<const char*>(&n), sizeof n);
        out.write(reinterpret_cast<const char*>(&m), sizeof m);
      }
      const Status status = kind == 1 ? LoadNlIndex(path).status()
                                      : LoadNlrnlIndex(path).status();
      EXPECT_EQ(status.code(), StatusCode::kIoError)
          << "kind " << int{kind} << " n " << n;
    }
  }
  std::remove(path.c_str());
}

TEST(IndexSerializationTest, TruncationDetected) {
  NlrnlIndex idx(CycleGraph(20));
  const std::string path = TempPath("ktg_trunc.idx");
  ASSERT_TRUE(SaveNlrnlIndex(idx, path).ok());
  const auto size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, size - 7);
  const auto r = LoadNlrnlIndex(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
  std::remove(path.c_str());
}

TEST(IndexSerializationTest, BitFlipDetected) {
  NlIndex idx(GridGraph(5, 5));
  const std::string path = TempPath("ktg_flip.idx");
  ASSERT_TRUE(SaveNlIndex(idx, path).ok());
  // Flip one byte in the middle of the payload.
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(64);
    char c = 0;
    f.seekg(64);
    f.read(&c, 1);
    c ^= 0x40;
    f.seekp(64);
    f.write(&c, 1);
  }
  const auto r = LoadNlIndex(path);
  EXPECT_FALSE(r.ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ktg
