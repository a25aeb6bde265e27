// Copyright (c) 2026 The ktg Authors.
// Randomized differential-testing harness for the cross-query cache.
//
// A seeded generator drives interleaved query/update sequences against one
// evolving small graph and asserts, at every step, that
//
//     cached engine == uncached engine == brute force
//
// — exact group equality between the serial engines (both are
// deterministic, so a cache hit must be bit-identical to a recomputation),
// coverage-profile equality against brute force (the correctness oracle).
// The sweep covers (p, k, N) and cache budgets down to a single-entry
// cache, where every store evicts the previous entry and the hit path is
// exercised only by immediate repeats.
//
// The ParallelBatch test runs the same comparison through the batch runner
// with a cache shared by four workers; it is tsan-labelled, so the TSan CI
// job proves the sharing is race-free.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "cache/ktg_cache.h"
#include "core/batch.h"
#include "core/brute_force.h"
#include "core/ktg_engine.h"
#include "datagen/generators.h"
#include "datagen/keyword_assigner.h"
#include "graph/bfs.h"
#include "index/bfs_checker.h"
#include "keywords/inverted_index.h"
#include "util/rng.h"

namespace ktg {
namespace {

std::vector<int> CoverageCounts(const std::vector<Group>& groups) {
  std::vector<int> out;
  out.reserve(groups.size());
  for (const auto& g : groups) out.push_back(g.covered());
  return out;
}

constexpr uint32_t kVocabulary = 10;

AttributedGraph BuildInitialGraph(Rng& rng) {
  Graph topo = ErdosRenyi(24, 0.13, rng);
  KeywordModel model;
  model.vocabulary_size = kVocabulary;
  model.min_per_vertex = 1;
  model.max_per_vertex = 3;
  model.empty_fraction = 0.1;
  return AssignKeywords(std::move(topo), model, rng);
}

// Rebinds keyword assignments (and vocabulary ids) to a new topology.
AttributedGraph RebuildWithTopology(const AttributedGraph& g, Graph topo) {
  AttributedGraphBuilder builder;
  builder.SetGraph(std::move(topo));
  builder.mutable_vocabulary() = g.vocabulary();
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    for (const KeywordId kw : g.Keywords(v)) builder.AddKeywordId(v, kw);
  }
  return builder.Build();
}

KtgQuery RandomQuery(Rng& rng) {
  KtgQuery q;
  const size_t num_kw = 3 + rng.Below(3);  // |W_Q| in {3,4,5}
  for (const uint64_t kw : rng.SampleDistinct(kVocabulary, num_kw)) {
    q.keywords.push_back(static_cast<KeywordId>(kw));
  }
  q.group_size = 2 + static_cast<uint32_t>(rng.Below(2));      // p in {2,3}
  q.tenuity = static_cast<HopDistance>(1 + rng.Below(2));      // k in {1,2}
  q.top_n = rng.Chance(0.5) ? 1 : 3;                           // N in {1,3}
  return q;
}

// Flips one random vertex pair: deletes the edge if present (keeping at
// least a few edges around), inserts it otherwise. Notifies the cache with
// the OLD topology, as the invalidation contract requires.
AttributedGraph ApplyRandomUpdate(const AttributedGraph& g, KtgCache& cache,
                                  Rng& rng) {
  const Graph& topo = g.graph();
  const auto n = topo.num_vertices();
  VertexId a = 0, b = 0;
  do {
    a = static_cast<VertexId>(rng.Below(n));
    b = static_cast<VertexId>(rng.Below(n));
  } while (a == b);
  if (topo.HasEdge(a, b) && topo.num_edges() > 4) {
    cache.AdvanceEpoch(cache.epoch() + 1);
    return RebuildWithTopology(g, WithEdgeRemoved(topo, a, b));
  }
  if (!topo.HasEdge(a, b)) {
    cache.AdvanceEpoch(cache.epoch() + 1);
    return RebuildWithTopology(g, WithEdgeAdded(topo, a, b));
  }
  return RebuildWithTopology(g, topo);  // no-op round (too few edges)
}

class DifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(DifferentialTest, CachedEqualsUncachedEqualsBruteForce) {
  const int round = GetParam();
  Rng rng(0xD1FF0000 + round * 7919);

  AttributedGraph g = BuildInitialGraph(rng);

  // Cache-size sweep: a ~single-entry cache (budget 1 byte, one shard —
  // constant eviction), 2 KB (heavy churn), and an ample budget.
  CacheOptions copts;
  const bool tight = round % 3 != 2;
  switch (round % 3) {
    case 0:
      copts.query_budget_bytes = 1;
      copts.shards = 1;
      break;
    case 1:
      copts.query_budget_bytes = 2 << 10;
      copts.shards = 2;
      break;
    default:
      copts = CacheOptions{};
      break;
  }
  KtgCache cache(copts);

  constexpr int kOps = 90;
  int queries_run = 0, updates_run = 0;
  for (int op = 0; op < kOps; ++op) {
    if (rng.Chance(0.3)) {
      g = ApplyRandomUpdate(g, cache, rng);
      ++updates_run;
      continue;
    }
    ++queries_run;
    const InvertedIndex idx(g);
    const KtgQuery query = RandomQuery(rng);

    BfsChecker oracle_checker(g.graph());
    const auto truth = BruteForceKtg(g, idx, oracle_checker, query);
    ASSERT_TRUE(truth.ok());

    BfsChecker plain_checker(g.graph());
    const auto uncached = RunKtg(g, idx, plain_checker, query, EngineOptions{});
    ASSERT_TRUE(uncached.ok());

    EngineOptions cached_opts;
    cached_opts.cache = &cache;
    BfsChecker cached_checker(g.graph());
    const auto cached = RunKtg(g, idx, cached_checker, query, cached_opts);
    ASSERT_TRUE(cached.ok());
    // Immediate repeat: must be served consistently whether or not the
    // result tier still holds the entry (a 1-entry cache may have evicted
    // it between queries, never *during* one).
    const auto repeat = RunKtg(g, idx, cached_checker, query, cached_opts);
    ASSERT_TRUE(repeat.ok());

    const auto expected = CoverageCounts(truth->groups);
    ASSERT_EQ(CoverageCounts(uncached->groups), expected)
        << "round=" << round << " op=" << op;
    // The serial engine is deterministic, so the cached path must be
    // bit-identical to the uncached one — group members and masks.
    ASSERT_EQ(cached->groups, uncached->groups)
        << "round=" << round << " op=" << op << " epoch=" << cache.epoch();
    ASSERT_EQ(repeat->groups, uncached->groups)
        << "round=" << round << " op=" << op << " (repeat run)";
  }
  // ~63 queries and ~27 updates per round; 16 rounds clear the 1000-op bar.
  EXPECT_GT(queries_run, 0);
  EXPECT_GT(updates_run, 0);
  if (tight) {
    EXPECT_GT(cache.QueryStats().evictions, 0u) << "round=" << round;
  }
}

INSTANTIATE_TEST_SUITE_P(Rounds, DifferentialTest, ::testing::Range(0, 16));

// Shared-cache batch execution: four workers, interleaved updates between
// batches. Runs under `ctest -L tsan` in the TSan CI job.
TEST(DifferentialParallelTest, SharedCacheBatchMatchesSerialAcrossUpdates) {
  Rng rng(0xBA7C4);
  AttributedGraph g = BuildInitialGraph(rng);
  KtgCache cache;  // ample budget; all workers share it

  for (int phase = 0; phase < 4; ++phase) {
    const InvertedIndex idx(g);

    // A workload with deliberate repeats so the result tier gets concurrent
    // hits, not just concurrent fills.
    std::vector<KtgQuery> workload;
    for (int i = 0; i < 10; ++i) workload.push_back(RandomQuery(rng));
    for (int i = 0; i < 20; ++i) workload.push_back(workload[i % 10]);
    rng.Shuffle(workload);

    BatchOptions bopts;
    bopts.threads = 4;
    bopts.engine.cache = &cache;
    const auto batch = RunKtgBatch(
        g, idx, [&] { return std::make_unique<BfsChecker>(g.graph()); },
        workload, bopts);
    ASSERT_TRUE(batch.ok());
    ASSERT_EQ(batch->results.size(), workload.size());

    for (size_t i = 0; i < workload.size(); ++i) {
      BfsChecker checker(g.graph());
      const auto fresh =
          RunKtg(g, idx, checker, workload[i], EngineOptions{});
      ASSERT_TRUE(fresh.ok());
      ASSERT_EQ(batch->results[i].groups, fresh->groups)
          << "phase=" << phase << " query=" << i;
    }

    for (int u = 0; u < 3; ++u) g = ApplyRandomUpdate(g, cache, rng);
  }
  EXPECT_GT(cache.QueryStats().hits, 0u);
}

}  // namespace
}  // namespace ktg
