// Copyright (c) 2026 The ktg Authors.
// The determinism contract of the parallel execution layer:
//   * index construction writes only per-vertex slots, so any thread count
//     must yield a byte-identical serialized index (NL, NLRNL) and an
//     answer-identical bitmap;
//   * the root-parallel engine must return the same top-N coverage
//     multiset as the serial engine (tie-break members may differ), and
//     num_threads = 1 must be bit-for-bit the serial engine.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/ktg_engine.h"
#include "datagen/presets.h"
#include "datagen/query_gen.h"
#include "index/checker_factory.h"
#include "index/nl_index.h"
#include "index/nlrnl_index.h"
#include "index/serialization.h"
#include "keywords/inverted_index.h"
#include "util/macros.h"
#include "util/rng.h"

namespace ktg {
namespace {

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

AttributedGraph PresetGraph(const char* preset, double scale) {
  auto spec = GetPreset(preset, scale);
  KTG_CHECK(spec.ok());
  return BuildDataset(*spec);
}

TEST(ParallelDeterminismTest, NlBuildIsThreadCountInvariant) {
  const AttributedGraph g = PresetGraph("gowalla", 0.05);
  NlIndexOptions serial_opts;
  serial_opts.num_threads = 1;
  const NlIndex serial(g.graph(), serial_opts);
  const std::string serial_path = TempPath("ktg_det_nl_serial.idx");
  ASSERT_TRUE(SaveNlIndex(serial, serial_path).ok());
  const std::string serial_bytes = ReadAll(serial_path);
  ASSERT_FALSE(serial_bytes.empty());

  for (const uint32_t threads : {2u, 4u, 0u}) {
    NlIndexOptions opts;
    opts.num_threads = threads;
    const NlIndex parallel(g.graph(), opts);
    const std::string path = TempPath("ktg_det_nl_parallel.idx");
    ASSERT_TRUE(SaveNlIndex(parallel, path).ok());
    EXPECT_EQ(ReadAll(path), serial_bytes) << "threads=" << threads;
    std::remove(path.c_str());
  }
  std::remove(serial_path.c_str());
}

TEST(ParallelDeterminismTest, NlrnlBuildIsThreadCountInvariant) {
  const AttributedGraph g = PresetGraph("brightkite", 0.05);
  NlrnlIndexOptions serial_opts;
  serial_opts.num_threads = 1;
  const NlrnlIndex serial(g.graph(), serial_opts);
  const std::string serial_path = TempPath("ktg_det_nlrnl_serial.idx");
  ASSERT_TRUE(SaveNlrnlIndex(serial, serial_path).ok());
  const std::string serial_bytes = ReadAll(serial_path);
  ASSERT_FALSE(serial_bytes.empty());

  for (const uint32_t threads : {2u, 4u, 0u}) {
    NlrnlIndexOptions opts;
    opts.num_threads = threads;
    const NlrnlIndex parallel(g.graph(), opts);
    const std::string path = TempPath("ktg_det_nlrnl_parallel.idx");
    ASSERT_TRUE(SaveNlrnlIndex(parallel, path).ok());
    EXPECT_EQ(ReadAll(path), serial_bytes) << "threads=" << threads;
    std::remove(path.c_str());
  }
  std::remove(serial_path.c_str());
}

std::vector<int> CoverageCounts(const std::vector<Group>& groups) {
  std::vector<int> out;
  out.reserve(groups.size());
  for (const auto& g : groups) out.push_back(g.covered());
  return out;
}

TEST(ParallelDeterminismTest, ParallelSearchMatchesSerialOnPresets) {
  for (const char* preset : {"gowalla", "dblp"}) {
    const AttributedGraph g = PresetGraph(preset, 0.05);
    const InvertedIndex idx(g);

    WorkloadOptions wopts;
    wopts.num_queries = 6;
    wopts.group_size = 3;
    wopts.tenuity = 2;
    wopts.keyword_count = 5;
    wopts.top_n = 4;
    Rng rng(0xBEEF);
    const auto queries = GenerateWorkload(g, wopts, rng);
    ASSERT_FALSE(queries.empty());

    auto checker = MakeChecker(CheckerKind::kNlrnl, g.graph());
    ASSERT_TRUE(checker->concurrent_read_safe());

    for (const auto& query : queries) {
      EngineOptions serial_opts;
      const auto serial = RunKtg(g, idx, *checker, query, serial_opts);
      ASSERT_TRUE(serial.ok());
      const auto expected = CoverageCounts(serial->groups);

      for (const uint32_t threads : {2u, 4u}) {
        EngineOptions opts;
        opts.num_threads = threads;
        const auto parallel = RunKtg(g, idx, *checker, query, opts);
        ASSERT_TRUE(parallel.ok());
        EXPECT_EQ(CoverageCounts(parallel->groups), expected)
            << preset << " threads=" << threads;
        // The parallel engine explores the same tree, so the group count
        // and pruning opportunities agree; members may differ on ties.
        EXPECT_EQ(parallel->groups.size(), serial->groups.size());
      }
    }
  }
}

TEST(ParallelDeterminismTest, SingleThreadOptionIsBitForBitSerial) {
  const AttributedGraph g = PresetGraph("gowalla", 0.05);
  const InvertedIndex idx(g);

  WorkloadOptions wopts;
  wopts.num_queries = 4;
  wopts.group_size = 3;
  wopts.tenuity = 2;
  wopts.keyword_count = 5;
  wopts.top_n = 3;
  Rng rng(0xABBA);
  const auto queries = GenerateWorkload(g, wopts, rng);

  auto checker = MakeChecker(CheckerKind::kNlrnl, g.graph());
  for (const auto& query : queries) {
    EngineOptions opts1;
    opts1.num_threads = 1;
    const auto a = RunKtg(g, idx, *checker, query, opts1);
    const auto b = RunKtg(g, idx, *checker, query, opts1);
    ASSERT_TRUE(a.ok() && b.ok());
    // Identical groups including members and order: the serial engine is
    // deterministic, and num_threads = 1 must be exactly that engine.
    EXPECT_EQ(a->groups, b->groups);
    EXPECT_EQ(a->stats.nodes_expanded, b->stats.nodes_expanded);
    EXPECT_EQ(a->stats.keyword_prunes, b->stats.keyword_prunes);
  }
}

TEST(ParallelDeterminismTest, UnsafeCheckerFallsBackToSerial) {
  const AttributedGraph g = PresetGraph("gowalla", 0.05);
  const InvertedIndex idx(g);

  WorkloadOptions wopts;
  wopts.num_queries = 2;
  wopts.group_size = 3;
  wopts.tenuity = 2;
  wopts.keyword_count = 5;
  wopts.top_n = 3;
  Rng rng(0xFACE);
  const auto queries = GenerateWorkload(g, wopts, rng);

  // The memoizing NL index mutates on reads — not concurrent-read-safe, so
  // num_threads > 1 must silently run the serial engine and still be exact.
  auto memoizing = MakeChecker(CheckerKind::kNl, g.graph());
  ASSERT_FALSE(memoizing->concurrent_read_safe());
  auto reference = MakeChecker(CheckerKind::kNlrnl, g.graph());

  for (const auto& query : queries) {
    EngineOptions opts;
    opts.num_threads = 4;
    const auto got = RunKtg(g, idx, *memoizing, query, opts);
    const auto want = RunKtg(g, idx, *reference, query, EngineOptions{});
    ASSERT_TRUE(got.ok() && want.ok());
    EXPECT_EQ(got->groups, want->groups);
  }
}

}  // namespace
}  // namespace ktg
