// Copyright (c) 2026 The ktg Authors.
// Explanation/audit tests: valid results pass, fabricated groups fail with
// precise violations, and the audit agrees with the engines on every
// returned group.

#include <gtest/gtest.h>

#include "core/explain.h"
#include "core/ktg_engine.h"
#include "core/paper_example.h"
#include "datagen/generators.h"
#include "datagen/keyword_assigner.h"
#include "datagen/query_gen.h"
#include "index/bfs_checker.h"
#include "keywords/inverted_index.h"

namespace ktg {
namespace {

Group MakeGroup(std::vector<VertexId> members) {
  Group g;
  g.members = std::move(members);
  return g;
}

class ExplainTest : public ::testing::Test {
 protected:
  ExplainTest()
      : graph_(PaperExampleGraph()), query_(PaperExampleQuery(graph_)) {}
  AttributedGraph graph_;
  KtgQuery query_;
};

TEST_F(ExplainTest, ValidGroupPasses) {
  const auto ex = ExplainGroup(graph_, query_, MakeGroup({1, 4, 10}));
  EXPECT_TRUE(ex.valid) << ex.ToString();
  EXPECT_EQ(ex.covered_count, 4);
  EXPECT_EQ(ex.missing_terms, std::vector<std::string>{"<unknown #3>"});
  EXPECT_EQ(ex.pairs.size(), 3u);
  for (const auto& pe : ex.pairs) EXPECT_TRUE(pe.tenuous);
  EXPECT_NE(ex.ToString().find("VALID"), std::string::npos);
}

TEST_F(ExplainTest, AdjacentPairFlagged) {
  // u6-u7 are directly connected: k=1 violation.
  const auto ex = ExplainGroup(graph_, query_, MakeGroup({1, 6, 7}));
  EXPECT_FALSE(ex.valid);
  ASSERT_EQ(ex.violations.size(), 1u);
  EXPECT_NE(ex.violations[0].find("(6, 7)"), std::string::npos);
  EXPECT_NE(ex.violations[0].find("1 hop"), std::string::npos);
}

TEST_F(ExplainTest, ZeroCoverageMemberFlagged) {
  // u8 carries only ML — no query keyword.
  const auto ex = ExplainGroup(graph_, query_, MakeGroup({1, 8, 10}));
  EXPECT_FALSE(ex.valid);
  bool found = false;
  for (const auto& v : ex.violations) {
    found |= v.find("member 8 covers no query keyword") != std::string::npos;
  }
  EXPECT_TRUE(found) << ex.ToString();
}

TEST_F(ExplainTest, WrongSizeFlagged) {
  const auto ex = ExplainGroup(graph_, query_, MakeGroup({1, 10}));
  EXPECT_FALSE(ex.valid);
  EXPECT_NE(ex.violations[0].find("2 members"), std::string::npos);
}

TEST_F(ExplainTest, NonexistentMemberFlagged) {
  const auto ex = ExplainGroup(graph_, query_, MakeGroup({1, 10, 99}));
  EXPECT_FALSE(ex.valid);
  bool found = false;
  for (const auto& v : ex.violations) {
    found |= v.find("does not exist") != std::string::npos;
  }
  EXPECT_TRUE(found);
}

TEST_F(ExplainTest, DisconnectedPairIsTenuous) {
  AttributedGraphBuilder b;
  b.mutable_topology().AddEdge(0, 1);
  b.mutable_topology().EnsureVertices(3);
  b.AddKeyword(0, "x");
  b.AddKeyword(2, "x");
  const AttributedGraph g = b.Build();
  KtgQuery q;
  q.keywords = {g.vocabulary().Find("x")};
  q.group_size = 2;
  q.tenuity = 5;
  const auto ex = ExplainGroup(g, q, MakeGroup({0, 2}));
  EXPECT_TRUE(ex.valid) << ex.ToString();
  EXPECT_EQ(ex.pairs[0].distance, kUnreachable);
  EXPECT_NE(ex.ToString().find("inf"), std::string::npos);
}

TEST(ExplainPropertyTest, EveryEngineResultAuditsValid) {
  Rng rng(0xE8A);
  KeywordModel model;
  model.vocabulary_size = 25;
  const AttributedGraph g =
      AssignKeywords(BarabasiAlbert(120, 3, rng), model, rng);
  const InvertedIndex idx(g);
  BfsChecker checker(g.graph());

  WorkloadOptions wopts;
  wopts.num_queries = 6;
  wopts.group_size = 3;
  wopts.tenuity = 2;
  wopts.top_n = 4;
  for (const auto& q : GenerateWorkload(g, wopts, rng)) {
    const auto r = RunKtg(g, idx, checker, q);
    ASSERT_TRUE(r.ok());
    for (const auto& grp : r->groups) {
      const auto ex = ExplainGroup(g, q, grp);
      EXPECT_TRUE(ex.valid) << ex.ToString();
      EXPECT_EQ(ex.covered_count, grp.covered());
    }
  }
}

}  // namespace
}  // namespace ktg
