// Copyright (c) 2026 The ktg Authors.
// Candidate extraction tests: keyword filtering, the multi-query-vertex
// ("authors") exclusion of Section IV's Discussion, and DKTG's exact
// exclusion list; plus the engine's root ranking and the frontier's
// bucket walk, checked against the sorted order they replace.

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "core/candidates.h"
#include "core/frontier.h"
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

// The engine's comparator before the bitset frontier, per strategy: a node
// sorted its S_R by vkc (refreshed against the node's coverage), then by
// degree for VKC-DEG, then by vertex id. QKC sorted the root once by
// extraction-time vkc and kept that order in every node.
struct OldOrderLess {
  SortStrategy sort;
  bool degree_ascending;
  bool operator()(const Candidate& a, const Candidate& b) const {
    if (a.vkc != b.vkc) return a.vkc > b.vkc;
    if (sort == SortStrategy::kVkcDeg && a.degree != b.degree) {
      return degree_ascending ? a.degree < b.degree : a.degree > b.degree;
    }
    return a.vertex < b.vertex;
  }
};

// n candidates over `num_keywords` keywords with degrees in [0, max_degree]:
// few keywords and degrees make heavy vkc and degree ties.
std::vector<Candidate> RandomCandidates(Rng& rng, size_t n, int num_keywords,
                                        uint32_t max_degree) {
  std::vector<Candidate> out(n);
  for (size_t i = 0; i < n; ++i) {
    out[i].vertex = static_cast<VertexId>((i * 7919) % (4 * n + 1));
    while (out[i].mask == 0) out[i].mask = rng.Next() & LowBits(num_keywords);
    out[i].degree = static_cast<uint32_t>(rng.Below(max_degree + 1));
    out[i].vkc = PopCount(out[i].mask);
  }
  return out;
}

// Ranks `cands`, keeps a random subset as a node's S_R under a random
// coverage, and compares the frontier's walk with std::sort under the old
// comparator.
void ExpectWalkMatchesOldSort(Rng& rng, std::vector<Candidate> cands,
                              SortStrategy sort, bool degree_ascending,
                              int num_keywords, bool root) {
  RankCandidates(cands, sort, degree_ascending);
  std::vector<Candidate> root_order = cands;
  std::sort(root_order.begin(), root_order.end(),
            OldOrderLess{sort, degree_ascending});
  for (size_t i = 0; i < cands.size(); ++i) {
    ASSERT_EQ(cands[i].vertex, root_order[i].vertex) << "root rank " << i;
  }

  Frontier frontier;
  frontier.Reset(cands, 1, sort != SortStrategy::kQkc);
  const CoverMask covered = root ? 0 : rng.Next() & LowBits(num_keywords);
  std::vector<Candidate> node;
  uint64_t* rem = frontier.remaining(0);
  for (const Candidate& c : root_order) {  // root order: QKC keeps it
    if (!root && rng.Chance(0.4)) {
      rem[c.slot / 64] &= ~(uint64_t{1} << (c.slot % 64));
      continue;
    }
    Candidate x = c;
    if (sort != SortStrategy::kQkc) {
      x.vkc = PopCount(NovelBits(x.mask, covered));
    }
    node.push_back(x);
  }
  std::sort(node.begin(), node.end(), OldOrderLess{sort, degree_ascending});

  std::vector<VertexId> vertex_of(cands.size());
  for (const Candidate& c : cands) vertex_of[c.slot] = c.vertex;
  std::vector<VertexId> walked;
  std::vector<VertexId> expected;
  for (const Candidate& c : node) expected.push_back(c.vertex);
  frontier.Open(0, covered);
  const auto size = static_cast<uint32_t>(node.size());
  frontier.Walk(0, size, [&](uint32_t slot, int vkc, uint32_t left) {
    walked.push_back(vertex_of[slot]);
    EXPECT_EQ(vkc, PopCount(NovelBits(frontier.mask(slot), covered)));
    EXPECT_EQ(left, size - walked.size());
    return true;
  });
  EXPECT_EQ(walked, expected) << SortStrategyName(sort) << " ascending="
                              << degree_ascending << " n=" << cands.size();
}

TEST(FrontierOrderTest, BucketWalkMatchesOldComparator) {
  Rng rng(0x5027);
  const std::pair<SortStrategy, bool> orders[] = {
      {SortStrategy::kQkc, true},
      {SortStrategy::kVkc, true},
      {SortStrategy::kVkcDeg, true},
      {SortStrategy::kVkcDeg, false},
  };
  for (const size_t n : {1, 2, 17, 63, 64, 65, 200, 700}) {
    for (const int num_keywords : {1, 3, 6, 64}) {
      for (const auto& [sort, ascending] : orders) {
        for (int trial = 0; trial < 4; ++trial) {
          ExpectWalkMatchesOldSort(
              rng, RandomCandidates(rng, n, num_keywords, 4), sort, ascending,
              num_keywords, /*root=*/trial == 0);
        }
      }
    }
  }
}

TEST(FrontierOrderTest, WalkStopsWhenVisitSaysSo) {
  Rng rng(0x5028);
  auto cands = RandomCandidates(rng, 130, 4, 3);
  RankCandidates(cands, SortStrategy::kVkcDeg, true);
  Frontier frontier;
  frontier.Reset(cands, 1, true);
  frontier.Open(0, 0);
  int visited = 0;
  frontier.Walk(0, 130, [&](uint32_t, int, uint32_t) { return ++visited < 5; });
  EXPECT_EQ(visited, 5);
  // The visited slots left the S_R; the rest stayed.
  const uint64_t* rem = frontier.remaining(0);
  int left = 0;
  for (size_t w = 0; w < frontier.words(); ++w) left += PopCount(rem[w]);
  EXPECT_EQ(left, 125);
}

}  // namespace
}  // namespace ktg
