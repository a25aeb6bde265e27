// Copyright (c) 2026 The ktg Authors.
// Small cross-cutting behaviours not covered elsewhere: factory parsing,
// enum names, move-only Result payloads, stats counters and display
// helpers.

#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <vector>

#include "core/ktg_engine.h"
#include "core/paper_example.h"
#include "datagen/generators.h"
#include "graph/stats.h"
#include "index/bfs_checker.h"
#include "index/checker_factory.h"
#include "keywords/inverted_index.h"

namespace ktg {
namespace {

TEST(CheckerFactoryTest, ParsesAllSpellings) {
  EXPECT_EQ(ParseCheckerKind("bfs").value(), CheckerKind::kBfs);
  EXPECT_EQ(ParseCheckerKind("BFS").value(), CheckerKind::kBfs);
  EXPECT_EQ(ParseCheckerKind("nl").value(), CheckerKind::kNl);
  EXPECT_EQ(ParseCheckerKind("NLRNL").value(), CheckerKind::kNlrnl);
  EXPECT_FALSE(ParseCheckerKind("btree").ok());
}

// Names outside bfs|nl|nlrnl, the deleted k-hop bitmap's among them, are
// refused with a message naming the accepted kinds.
TEST(CheckerFactoryTest, RefusesBitmapNamingTheAcceptedKinds) {
  for (const char* name : {"bitmap", "khopbitmap", "Bitmap"}) {
    const auto kind = ParseCheckerKind(name);
    ASSERT_FALSE(kind.ok()) << name;
    EXPECT_EQ(kind.status().code(), StatusCode::kInvalidArgument) << name;
    EXPECT_NE(kind.status().message().find("expected bfs|nl|nlrnl"),
              std::string::npos)
        << kind.status().message();
  }
}

TEST(QueryParamsTest, RangesAreInclusive) {
  EXPECT_TRUE(CheckQueryParams(1, 0, 1, 1).ok());
  EXPECT_TRUE(CheckQueryParams(64, 255, 4096, 64).ok());
  for (const auto& [p, k, n, w] : std::vector<std::array<int64_t, 4>>{
           {0, 2, 5, 6}, {65, 2, 5, 6}, {4, -1, 5, 6}, {4, 256, 5, 6},
           {4, 2, 0, 6}, {4, 2, 4097, 6}, {4, 2, 5, 0}, {4, 2, 5, 65},
           {int64_t{1} << 32 | 2, 2, 5, 6}}) {
    const Status st = CheckQueryParams(p, k, n, w);
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument)
        << p << " " << k << " " << n << " " << w;
  }
}

TEST(CheckerFactoryTest, BuildsEveryKind) {
  const Graph g = CycleGraph(10);
  for (const auto kind :
       {CheckerKind::kBfs, CheckerKind::kNl, CheckerKind::kNlrnl}) {
    const auto checker = MakeChecker(kind, g);
    ASSERT_NE(checker, nullptr);
    EXPECT_EQ(checker->name(), CheckerKindName(kind));
    EXPECT_TRUE(checker->IsFartherThan(0, 5, 2));
    EXPECT_FALSE(checker->IsFartherThan(0, 2, 2));
  }
}

TEST(EnumNamesTest, SortStrategyNames) {
  EXPECT_STREQ(SortStrategyName(SortStrategy::kQkc), "QKC");
  EXPECT_STREQ(SortStrategyName(SortStrategy::kVkc), "VKC");
  EXPECT_STREQ(SortStrategyName(SortStrategy::kVkcDeg), "VKC-DEG");
}

TEST(ResultTest, MoveOnlyPayload) {
  Result<std::unique_ptr<int>> r(std::make_unique<int>(9));
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 9);
}

TEST(StatsCountersTest, PruneCountersFireWhenCollectorFull) {
  const AttributedGraph g = PaperExampleGraph();
  const InvertedIndex idx(g);
  BfsChecker checker(g.graph());
  KtgQuery q = PaperExampleQuery(g);
  q.top_n = 1;  // fills instantly, so pruning has a threshold to use
  const auto r = RunKtg(g, idx, checker, q);
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r->stats.keyword_prunes, 0u);
  EXPECT_GT(r->stats.kline_filtered, 0u);
}

TEST(StatsCountersTest, SearchStatsAccumulate) {
  SearchStats a;
  a.nodes_expanded = 3;
  a.distance_checks = 10;
  a.elapsed_ms = 1.5;
  a.cpu_ms = 1.5;
  a.phases[obs::Phase::kBbSearch] = 1.0;
  SearchStats b;
  b.nodes_expanded = 4;
  b.distance_checks = 5;
  b.elapsed_ms = 0.5;
  b.cpu_ms = 0.5;
  b.phases[obs::Phase::kBbSearch] = 0.25;
  a += b;
  EXPECT_EQ(a.nodes_expanded, 7u);
  EXPECT_EQ(a.distance_checks, 15u);
  // Wall-clock merges by max (concurrent measurements overlap); compute
  // time and phase attribution merge additively.
  EXPECT_DOUBLE_EQ(a.elapsed_ms, 1.5);
  EXPECT_DOUBLE_EQ(a.cpu_ms, 2.0);
  EXPECT_DOUBLE_EQ(a.phases[obs::Phase::kBbSearch], 1.25);
}

TEST(GraphStatsTest, ToStringMentionsEveryField) {
  Rng rng(0x7777);
  const auto s = ComputeGraphStats(CycleGraph(12), rng, 4);
  const std::string text = s.ToString();
  for (const char* needle : {"n=12", "m=12", "components=1"}) {
    EXPECT_NE(text.find(needle), std::string::npos) << text;
  }
}

TEST(QueryHelpersTest, MakeQueryMapsTermsAndUnknowns) {
  const AttributedGraph g = PaperExampleGraph();
  const std::string terms[] = {"SN", "nope", "GD"};
  const KtgQuery q = MakeQuery(g, terms, 2, 1, 3);
  ASSERT_EQ(q.keywords.size(), 3u);
  EXPECT_EQ(q.keywords[0], g.vocabulary().Find("SN"));
  EXPECT_EQ(q.keywords[1], kInvalidKeyword);
  EXPECT_EQ(q.keywords[2], g.vocabulary().Find("GD"));
  EXPECT_EQ(q.group_size, 2u);
  EXPECT_EQ(q.tenuity, 1);
  EXPECT_EQ(q.top_n, 3u);
}

TEST(QueryHelpersTest, BestCoverageOfEmptyResult) {
  KtgResult r;
  EXPECT_DOUBLE_EQ(r.best_coverage(), 0.0);
  EXPECT_TRUE(r.empty());
}

}  // namespace
}  // namespace ktg
