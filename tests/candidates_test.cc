// Copyright (c) 2026 The ktg Authors.
// Candidate extraction tests: keyword filtering, the multi-query-vertex
// ("authors") exclusion of Section IV's Discussion, and DKTG's exact
// exclusion list; plus the engine's near-sorted re-sort of a child's S_R.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/candidates.h"
#include "core/paper_example.h"
#include "index/bfs_checker.h"
#include "keywords/inverted_index.h"
#include "util/rng.h"

namespace ktg {
namespace {

class CandidatesTest : public ::testing::Test {
 protected:
  CandidatesTest()
      : graph_(PaperExampleGraph()),
        index_(graph_),
        checker_(graph_.graph()),
        query_(PaperExampleQuery(graph_)) {}

  AttributedGraph graph_;
  InvertedIndex index_;
  BfsChecker checker_;
  KtgQuery query_;
};

TEST_F(CandidatesTest, OnlyKeywordCoveringVertices) {
  const auto cands = ExtractCandidates(graph_, index_, query_, checker_);
  std::vector<VertexId> ids;
  for (const auto& c : cands) ids.push_back(c.vertex);
  // u8 (ML) and u9 (IR) cover no query keyword; everyone else qualifies.
  EXPECT_EQ(ids, (std::vector<VertexId>{0, 1, 2, 3, 4, 5, 6, 7, 10, 11}));
  for (const auto& c : cands) {
    EXPECT_GT(PopCount(c.mask), 0);
    EXPECT_EQ(c.degree, graph_.graph().Degree(c.vertex));
    EXPECT_EQ(c.vkc, PopCount(c.mask));
  }
}

TEST_F(CandidatesTest, QueryVerticesExcludeTheirNeighborhood) {
  query_.query_vertices = {0};  // u0 is an "author"; k = 1
  uint64_t removed = 0;
  const auto cands =
      ExtractCandidates(graph_, index_, query_, checker_, &removed);
  std::vector<VertexId> ids;
  for (const auto& c : cands) ids.push_back(c.vertex);
  // Excluded: u0 itself plus its neighbors u1, u2, u3, u4, u11 (u9 covers
  // no keyword anyway).
  EXPECT_EQ(ids, (std::vector<VertexId>{5, 6, 7, 10}));
  EXPECT_EQ(removed, 6u);
}

TEST_F(CandidatesTest, LargerTenuityExcludesMore) {
  query_.query_vertices = {8};
  query_.tenuity = 2;
  const auto cands = ExtractCandidates(graph_, index_, query_, checker_);
  std::vector<VertexId> ids;
  for (const auto& c : cands) ids.push_back(c.vertex);
  // u8's <=2-ball is {0, 3, 4, 6, 7}; candidates lose those.
  EXPECT_EQ(ids, (std::vector<VertexId>{1, 2, 5, 10, 11}));
}

TEST_F(CandidatesTest, ExcludedVerticesAreExact) {
  query_.excluded_vertices = {10, 1, 10};  // duplicates tolerated
  const auto cands = ExtractCandidates(graph_, index_, query_, checker_);
  for (const auto& c : cands) {
    EXPECT_NE(c.vertex, 10u);
    EXPECT_NE(c.vertex, 1u);
  }
  EXPECT_EQ(cands.size(), 8u);
}

TEST_F(CandidatesTest, EmptyWhenNoKeywordMatches) {
  query_.keywords = {kInvalidKeyword, kInvalidKeyword};
  const auto cands = ExtractCandidates(graph_, index_, query_, checker_);
  EXPECT_TRUE(cands.empty());
}

// The engine's VKC-DEG order: a total order, vertex id last.
struct RankLess {
  bool operator()(const Candidate& a, const Candidate& b) const {
    if (a.vkc != b.vkc) return a.vkc > b.vkc;
    if (a.degree != b.degree) return a.degree < b.degree;
    return a.vertex < b.vertex;
  }
};

std::vector<Candidate> RandomCandidates(Rng& rng, size_t n, int max_vkc,
                                        uint32_t max_degree) {
  std::vector<Candidate> out(n);
  for (size_t i = 0; i < n; ++i) {
    out[i].vertex = static_cast<VertexId>(i * 7 % n);
    out[i].vkc = static_cast<int>(rng.Below(max_vkc + 1));
    out[i].degree = static_cast<uint32_t>(rng.Below(max_degree + 1));
  }
  return out;
}

void ExpectResortMatchesStdSort(std::vector<Candidate> cands) {
  std::vector<Candidate> expected = cands;
  std::sort(expected.begin(), expected.end(), RankLess{});
  ResortCandidates(cands, RankLess{});
  EXPECT_EQ(cands, expected);
}

TEST(ResortCandidatesTest, NearlySortedMatchesStdSort) {
  // A child's S_R: its parent's order with some vkc values lowered.
  Rng rng(0x5027);
  for (const size_t n : {0, 1, 2, 17, 61, 300}) {
    for (int trial = 0; trial < 20; ++trial) {
      auto cands = RandomCandidates(rng, n, 4, 9);
      std::sort(cands.begin(), cands.end(), RankLess{});
      for (Candidate& c : cands) {
        if (c.vkc > 0 && rng.Chance(0.2)) c.vkc -= 1 + rng.Below(c.vkc);
      }
      ExpectResortMatchesStdSort(cands);
    }
  }
}

TEST(ResortCandidatesTest, ReversedMatchesStdSort) {
  // Reversed is the worst case: small inputs stay on the insertion pass,
  // large ones run out of moves and finish with std::sort.
  Rng rng(0x5028);
  for (const size_t n : {2, 5, 16, 61, 1000}) {
    auto cands = RandomCandidates(rng, n, 6, 20);
    std::sort(cands.begin(), cands.end(), RankLess{});
    std::reverse(cands.begin(), cands.end());
    ExpectResortMatchesStdSort(cands);
  }
}

TEST(ResortCandidatesTest, AllTiesOrderByVertex) {
  // Equal vkc and degree everywhere: the vertex id alone decides.
  Rng rng(0x5029);
  for (const size_t n : {3, 64, 500}) {
    auto cands = RandomCandidates(rng, n, 0, 0);
    ExpectResortMatchesStdSort(cands);
    std::reverse(cands.begin(), cands.end());
    ExpectResortMatchesStdSort(cands);
  }
}

}  // namespace
}  // namespace ktg
