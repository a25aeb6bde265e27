// Copyright (c) 2026 The ktg Authors.
// Conflict-graph engine tests: exactness versus brute force and the
// paper's engine across random instances, plus its specific options.

#include <gtest/gtest.h>

#include "core/brute_force.h"
#include "core/candidates.h"
#include "core/conflict_graph_engine.h"
#include "core/ktg_engine.h"
#include "core/paper_example.h"
#include "core/run_frame.h"
#include "datagen/generators.h"
#include "datagen/keyword_assigner.h"
#include "datagen/query_gen.h"
#include "index/bfs_checker.h"
#include "index/khop_bitmap.h"
#include "keywords/inverted_index.h"
#include "util/thread_pool.h"

namespace ktg {
namespace {

std::vector<int> Counts(const std::vector<Group>& groups) {
  std::vector<int> out;
  for (const auto& g : groups) out.push_back(g.covered());
  return out;
}

TEST(ConflictGraphEngineTest, PaperExample) {
  const AttributedGraph g = PaperExampleGraph();
  const InvertedIndex idx(g);
  BfsChecker checker(g.graph());
  const KtgQuery q = PaperExampleQuery(g);

  const auto r = RunKtgConflictGraph(g, idx, checker, q);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->groups.size(), 2u);
  EXPECT_EQ(r->groups[0].covered(), 4);
  EXPECT_EQ(r->groups[1].covered(), 4);
  for (const auto& grp : r->groups) {
    EXPECT_TRUE(IsKDistanceGroup(grp.members, q.tenuity, checker));
  }
}

TEST(ConflictGraphEngineTest, MatchesBruteForceOnRandomInstances) {
  Rng rng(0xCF61);
  for (int round = 0; round < 10; ++round) {
    KeywordModel model;
    model.vocabulary_size = 12;
    model.min_per_vertex = 1;
    model.max_per_vertex = 3;
    const AttributedGraph g = AssignKeywords(
        round % 2 == 0 ? ErdosRenyi(34, 0.08, rng)
                       : BarabasiAlbert(36, 2, rng),
        model, rng);
    const InvertedIndex idx(g);

    WorkloadOptions wopts;
    wopts.num_queries = 2;
    wopts.keyword_count = 4 + round % 3;
    wopts.group_size = 2 + round % 3;
    wopts.tenuity = static_cast<HopDistance>(1 + round % 3);
    wopts.top_n = 1 + round % 4;
    for (const auto& q : GenerateWorkload(g, wopts, rng)) {
      BfsChecker c1(g.graph()), c2(g.graph());
      const auto truth = BruteForceKtg(g, idx, c1, q);
      const auto got = RunKtgConflictGraph(g, idx, c2, q);
      ASSERT_TRUE(truth.ok() && got.ok());
      EXPECT_EQ(Counts(got->groups), Counts(truth->groups))
          << "round " << round << " p=" << q.group_size
          << " k=" << q.tenuity << " N=" << q.top_n;
      BfsChecker validator(g.graph());
      for (const auto& grp : got->groups) {
        EXPECT_EQ(grp.members.size(), q.group_size);
        EXPECT_TRUE(IsKDistanceGroup(grp.members, q.tenuity, validator));
      }
    }
  }
}

TEST(ConflictGraphEngineTest, AgreesWithPaperEngine) {
  Rng rng(0xCF62);
  KeywordModel model;
  model.vocabulary_size = 25;
  const AttributedGraph g =
      AssignKeywords(WattsStrogatz(120, 3, 0.2, rng), model, rng);
  const InvertedIndex idx(g);
  WorkloadOptions wopts;
  wopts.num_queries = 4;
  wopts.group_size = 4;
  wopts.tenuity = 2;
  wopts.top_n = 3;
  for (const auto& q : GenerateWorkload(g, wopts, rng)) {
    BfsChecker c1(g.graph()), c2(g.graph());
    const auto a = RunKtg(g, idx, c1, q);
    const auto b = RunKtgConflictGraph(g, idx, c2, q);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(Counts(a->groups), Counts(b->groups));
  }
}

TEST(ConflictGraphEngineTest, CandidateBudgetEnforced) {
  // One candidate over the ceiling: isolated vertices sharing a keyword.
  AttributedGraphBuilder builder;
  KeywordId kw = kInvalidKeyword;
  for (VertexId v = 0; v <= kMaxConflictCandidates; ++v) {
    kw = builder.AddKeyword(v, "shared");
  }
  const AttributedGraph g = builder.Build();
  const InvertedIndex idx(g);
  BfsChecker checker(g.graph());
  KtgQuery q;
  q.keywords = {kw};
  q.group_size = 2;
  q.tenuity = 1;
  q.top_n = 1;
  const auto r = RunKtgConflictGraph(g, idx, checker, q);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
}

TEST(ConflictGraphEngineTest, NodeBudgetStopsSearch) {
  const AttributedGraph g = PaperExampleGraph();
  const InvertedIndex idx(g);
  BfsChecker checker(g.graph());
  ConflictEngineOptions opts;
  opts.max_nodes = 2;
  const auto r =
      RunKtgConflictGraph(g, idx, checker, PaperExampleQuery(g), opts);
  ASSERT_TRUE(r.ok());
  EXPECT_LE(r->stats.nodes_expanded, 3u);
}

TEST(ConflictGraphEngineTest, CountsConflictEdges) {
  const AttributedGraph g = PaperExampleGraph();
  const InvertedIndex idx(g);
  const KtgQuery q = PaperExampleQuery(g);

  // The pairwise reference construction pays C(n,2) checker probes.
  BfsChecker probe(g.graph());
  const std::vector<Candidate> cands = ExtractCandidates(g, idx, q, probe);
  const uint64_t n = cands.size();
  const uint64_t before = probe.num_checks();
  const ConflictAdjacency pw = BuildConflictAdjacency(
      g.graph(), probe, cands, q.tenuity, ConflictBuild::kPairwise);
  EXPECT_EQ(probe.num_checks() - before, n * (n - 1) / 2);
  EXPECT_GT(pw.edges, 0u);

  // The engine's ball walk finds the same edges with zero checker probes.
  BfsChecker checker(g.graph());
  const auto rb = RunKtgConflictGraph(g, idx, checker, q);
  ASSERT_TRUE(rb.ok());
  EXPECT_EQ(rb->stats.kline_filtered, pw.edges);
  EXPECT_EQ(rb->stats.distance_checks, 0u);
}

// Property: all three constructions — pairwise probes, per-candidate BFS
// balls, and KHopBitmap row intersections — produce bit-identical conflict
// matrices with the same edge count.
TEST(ConflictGraphEngineTest, ConstructionStrategiesBitIdentical) {
  Rng rng(0xCF63);
  for (int round = 0; round < 8; ++round) {
    const AttributedGraph g =
        AssignKeywords(round % 2 == 0 ? ErdosRenyi(60, 0.06, rng)
                                      : BarabasiAlbert(64, 2, rng),
                       KeywordModel{}, rng);
    const auto k = static_cast<HopDistance>(1 + round % 3);

    // Every other candidate vertex, unsorted coverage metadata (the
    // construction only reads .vertex).
    std::vector<Candidate> cands;
    for (VertexId v = 0; v < g.num_vertices(); v += 2) {
      Candidate c;
      c.vertex = v;
      cands.push_back(c);
    }

    BfsChecker bfs(g.graph());
    const ConflictAdjacency pw = BuildConflictAdjacency(
        g.graph(), bfs, cands, k, ConflictBuild::kPairwise);
    const ConflictAdjacency ball = BuildConflictAdjacency(
        g.graph(), bfs, cands, k, ConflictBuild::kBallWalk);
    KHopBitmapChecker bitmap(g.graph(), k);
    const ConflictAdjacency rows = BuildConflictAdjacency(
        g.graph(), bitmap, cands, k, ConflictBuild::kBallWalk);
    // The pooled builds split the same row loops into chunks.
    ThreadPool pool(4);
    const ConflictAdjacency pooled_ball = BuildConflictAdjacency(
        g.graph(), bfs, cands, k, ConflictBuild::kBallWalk, &pool);
    const ConflictAdjacency pooled_rows = BuildConflictAdjacency(
        g.graph(), bitmap, cands, k, ConflictBuild::kBallWalk, &pool);

    for (const ConflictAdjacency* other :
         {&ball, &rows, &pooled_ball, &pooled_rows}) {
      EXPECT_EQ(pw.edges, other->edges)
          << "round " << round << " k=" << int{k};
      ASSERT_EQ(pw.adj.size(), other->adj.size());
      for (size_t i = 0; i < pw.adj.size(); ++i) {
        EXPECT_TRUE(pw.adj[i] == other->adj[i]) << "row " << i;
      }
    }
  }
}

// Property: the residual bound and the degeneracy order are exact — both
// return the identical coverage profile as the plain configuration, and
// the residual bound never expands more nodes.
TEST(ConflictGraphEngineTest, ResidualBoundAndDegeneracyExact) {
  Rng rng(0xCF64);
  KeywordModel model;
  model.vocabulary_size = 18;
  for (int round = 0; round < 6; ++round) {
    const AttributedGraph g =
        AssignKeywords(WattsStrogatz(90, 3, 0.25, rng), model, rng);
    const InvertedIndex idx(g);
    WorkloadOptions wopts;
    wopts.num_queries = 2;
    wopts.keyword_count = 5;
    wopts.group_size = 3 + round % 2;
    wopts.tenuity = static_cast<HopDistance>(1 + round % 2);
    wopts.top_n = 2;
    for (const auto& q : GenerateWorkload(g, wopts, rng)) {
      BfsChecker checker(g.graph());
      ConflictEngineOptions plain;
      plain.residual_bound = false;
      const auto base = RunKtgConflictGraph(g, idx, checker, q, plain);

      const auto tight =
          RunKtgConflictGraph(g, idx, checker, q, ConflictEngineOptions{});

      ConflictEngineOptions degen;
      degen.degeneracy_order = true;
      const auto reordered = RunKtgConflictGraph(g, idx, checker, q, degen);

      ASSERT_TRUE(base.ok() && tight.ok() && reordered.ok());
      // The residual bound prunes tied-or-worse subtrees only: identical
      // groups (not just coverage), never more nodes.
      EXPECT_EQ(tight->groups, base->groups);
      EXPECT_LE(tight->stats.nodes_expanded, base->stats.nodes_expanded);
      // Degeneracy reorders tie-breaks: the coverage profile must match,
      // membership may differ.
      EXPECT_EQ(Counts(reordered->groups), Counts(base->groups));
      BfsChecker validator(g.graph());
      for (const auto& grp : reordered->groups) {
        EXPECT_TRUE(IsKDistanceGroup(grp.members, q.tenuity, validator));
      }
    }
  }
}

}  // namespace
}  // namespace ktg
