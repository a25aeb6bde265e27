// Copyright (c) 2026 The ktg Authors.
// Robustness suite: hostile and degenerate inputs must produce Status
// errors or sane empty results — never crashes or silent corruption.

#include <gtest/gtest.h>

#include "core/brute_force.h"
#include "core/dktg_greedy.h"
#include "core/ktg_engine.h"
#include "core/paper_example.h"
#include "datagen/generators.h"
#include "graph/graph_io.h"
#include "index/bfs_checker.h"
#include "keywords/inverted_index.h"
#include "util/rng.h"

namespace ktg {
namespace {

TEST(RobustnessTest, RandomGarbageEdgeLists) {
  Rng rng(0x6AB);
  const char alphabet[] = "0123456789 ab#\t-%";
  for (int trial = 0; trial < 50; ++trial) {
    std::string text;
    const size_t len = rng.Below(200);
    for (size_t i = 0; i < len; ++i) {
      char c = alphabet[rng.Below(sizeof(alphabet) - 1)];
      if (rng.Chance(0.1)) c = '\n';
      text.push_back(c);
    }
    // Must either parse or fail cleanly.
    const auto r = ParseEdgeList(text);
    if (r.ok()) {
      EXPECT_LE(r->num_edges() * 2,
                r->num_vertices() * uint64_t{r->num_vertices()});
    } else {
      EXPECT_FALSE(r.status().message().empty());
    }
  }
}

TEST(RobustnessTest, DuplicateQueryKeywordsRejected) {
  const AttributedGraph g = PaperExampleGraph();
  const InvertedIndex idx(g);
  BfsChecker checker(g.graph());
  KtgQuery q = PaperExampleQuery(g);
  q.keywords.push_back(q.keywords.front());  // duplicate SN
  const auto r = RunKtg(g, idx, checker, q);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(RobustnessTest, RepeatedUnknownKeywordsAllowed) {
  // Multiple distinct unknown terms all map to kInvalidKeyword; they count
  // toward |W_Q| but are not duplicates of each other.
  const AttributedGraph g = PaperExampleGraph();
  const InvertedIndex idx(g);
  BfsChecker checker(g.graph());
  const std::string terms[] = {"SN", "no-such-term", "also-missing"};
  const KtgQuery q = MakeQuery(g, terms, 2, 1, 1);
  const auto r = RunKtg(g, idx, checker, q);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  if (!r->groups.empty()) {
    EXPECT_LE(r->groups.front().covered(), 1);  // only SN is coverable
  }
}

TEST(RobustnessTest, QueryOnEmptyGraph) {
  AttributedGraphBuilder b;
  b.mutable_vocabulary().Intern("x");
  const AttributedGraph g = b.Build();
  const InvertedIndex idx(g);
  BfsChecker checker(g.graph());
  KtgQuery q;
  q.keywords = {0};
  q.group_size = 1;
  q.top_n = 1;
  const auto r = RunKtg(g, idx, checker, q);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->groups.empty());
}

TEST(RobustnessTest, QueryVertexOutOfRangeRejected) {
  const AttributedGraph g = PaperExampleGraph();
  const InvertedIndex idx(g);
  BfsChecker checker(g.graph());
  KtgQuery q = PaperExampleQuery(g);
  q.query_vertices = {500};
  EXPECT_FALSE(RunKtg(g, idx, checker, q).ok());
}

TEST(RobustnessTest, ExcludingEveryCandidateYieldsEmpty) {
  const AttributedGraph g = PaperExampleGraph();
  const InvertedIndex idx(g);
  BfsChecker checker(g.graph());
  KtgQuery q = PaperExampleQuery(g);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    q.excluded_vertices.push_back(v);
  }
  const auto r = RunKtg(g, idx, checker, q);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->groups.empty());
}

TEST(RobustnessTest, DktgWithSixtyFourKeywords) {
  // The mask type's upper bound exactly.
  AttributedGraphBuilder b;
  b.SetGraph(PathGraph(70));
  for (VertexId v = 0; v < 64; ++v) {
    b.AddKeyword(v, "kw" + std::to_string(v));
  }
  const AttributedGraph g = b.Build();
  const InvertedIndex idx(g);
  BfsChecker checker(g.graph());
  KtgQuery q;
  for (KeywordId kw = 0; kw < 64; ++kw) q.keywords.push_back(kw);
  q.group_size = 3;
  q.tenuity = 2;
  q.top_n = 2;
  const auto r = RunDktgGreedy(g, idx, checker, q);
  ASSERT_TRUE(r.ok());
  for (const auto& grp : r->groups) {
    EXPECT_TRUE(IsKDistanceGroup(grp.members, q.tenuity, checker));
  }

  // 65 keywords must be rejected, not wrapped.
  q.keywords.push_back(kInvalidKeyword);
  EXPECT_FALSE(RunKtg(g, idx, checker, q).ok());
}

TEST(RobustnessTest, SelfLoopAndDuplicateHeavyInput) {
  GraphBuilder b;
  Rng rng(0x5eff);
  for (int i = 0; i < 2000; ++i) {
    const auto u = static_cast<VertexId>(rng.Below(30));
    const auto v = static_cast<VertexId>(rng.Below(30));
    b.AddEdge(u, v);
  }
  const Graph g = b.Build();
  EXPECT_LE(g.num_edges(), 30u * 29 / 2);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_FALSE(g.HasEdge(v, v));
    const auto nbrs = g.Neighbors(v);
    EXPECT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end()));
    EXPECT_TRUE(std::adjacent_find(nbrs.begin(), nbrs.end()) == nbrs.end());
  }
}

}  // namespace
}  // namespace ktg
