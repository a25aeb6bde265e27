// Copyright (c) 2026 The ktg Authors.
// Unit tests for the cross-query cache: sharded-LRU mechanics, canonical
// query keys (metamorphic permutation/duplication properties), the
// CachingChecker decorator, precise ball invalidation through the
// affected-vertex path, epoch rejection of stale query results (including
// the edge-delete-then-reinsert ABA case) and metric export.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "cache/caching_checker.h"
#include "cache/ktg_cache.h"
#include "cache/query_key.h"
#include "cache/sharded_lru.h"
#include "core/brute_force.h"
#include "core/ktg_engine.h"
#include "datagen/generators.h"
#include "datagen/keyword_assigner.h"
#include "datagen/query_gen.h"
#include "graph/bfs.h"
#include "index/affected.h"
#include "index/bfs_checker.h"
#include "index/checker_factory.h"
#include "keywords/inverted_index.h"
#include "obs/metrics.h"
#include "util/rng.h"
#include "util/sorted_vector.h"

namespace ktg {
namespace {

// --- ShardedLru ------------------------------------------------------------

struct IntHash {
  uint64_t operator()(int x) const { return Mix64(static_cast<uint64_t>(x)); }
};
using IntLru = ShardedLru<int, int, IntHash>;

TEST(ShardedLruTest, PutGetAndMissCounting) {
  IntLru lru(/*budget_bytes=*/1 << 20, /*shards=*/4);
  EXPECT_EQ(lru.Get(1), nullptr);
  lru.Put(1, std::make_shared<int>(10), sizeof(int));
  auto v = lru.Get(1);
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(*v, 10);
  const CacheTierStats st = lru.Stats();
  EXPECT_EQ(st.hits, 1u);
  EXPECT_EQ(st.misses, 1u);
  EXPECT_EQ(st.entries, 1u);
  EXPECT_GT(st.bytes, 0u);
}

TEST(ShardedLruTest, EvictsColdEntriesToBudget) {
  // One shard, budget for ~2 entries (entry overhead dominates).
  IntLru lru(2 * (IntLru::kEntryOverhead + 8), 1);
  lru.Put(1, std::make_shared<int>(1), 8);
  lru.Put(2, std::make_shared<int>(2), 8);
  ASSERT_NE(lru.Get(1), nullptr);  // refresh 1; now 2 is coldest
  lru.Put(3, std::make_shared<int>(3), 8);
  EXPECT_NE(lru.Get(1), nullptr);
  EXPECT_EQ(lru.Get(2), nullptr) << "coldest entry should have been evicted";
  EXPECT_NE(lru.Get(3), nullptr);
  EXPECT_GE(lru.Stats().evictions, 1u);
}

TEST(ShardedLruTest, OneByteBudgetStillAdmitsNewest) {
  IntLru lru(/*budget_bytes=*/1, /*shards=*/1);
  for (int i = 0; i < 100; ++i) {
    lru.Put(i, std::make_shared<int>(i), 64);
    auto v = lru.Get(i);
    ASSERT_NE(v, nullptr) << "newest entry must always be admitted";
    EXPECT_EQ(*v, i);
  }
  EXPECT_EQ(lru.Stats().entries, 1u);
  EXPECT_EQ(lru.Stats().evictions, 99u);
}

TEST(ShardedLruTest, GetIfPresentDoesNotCountMisses) {
  IntLru lru(1 << 20, 1);
  EXPECT_EQ(lru.GetIfPresent(7), nullptr);
  EXPECT_EQ(lru.Stats().misses, 0u);
  lru.Put(7, std::make_shared<int>(7), 8);
  EXPECT_NE(lru.GetIfPresent(7), nullptr);
  EXPECT_EQ(lru.Stats().hits, 1u);
}

TEST(ShardedLruTest, EraseAndEraseIfCountInvalidations) {
  IntLru lru(1 << 20, 4);
  for (int i = 0; i < 10; ++i) lru.Put(i, std::make_shared<int>(i), 8);
  EXPECT_EQ(lru.Erase(3), 1u);
  EXPECT_EQ(lru.Erase(3), 0u);
  EXPECT_EQ(lru.EraseIf([](int k) { return k % 2 == 0; }), 5u);
  EXPECT_EQ(lru.Stats().invalidations, 6u);
  EXPECT_EQ(lru.Stats().entries, 4u);
  EXPECT_EQ(lru.Clear(), 4u);
  EXPECT_EQ(lru.Stats().entries, 0u);
  EXPECT_EQ(lru.Stats().bytes, 0u);
}

// --- Fixtures over small attributed graphs ---------------------------------

AttributedGraph SmallGraph(uint64_t seed, uint32_t n = 30) {
  Rng rng(seed);
  Graph topo = ErdosRenyi(n, 0.12, rng);
  KeywordModel model;
  model.vocabulary_size = 10;
  model.min_per_vertex = 1;
  model.max_per_vertex = 3;
  model.empty_fraction = 0.1;
  return AssignKeywords(std::move(topo), model, rng);
}

KtgQuery SimpleQuery(std::vector<KeywordId> keywords, uint32_t p = 2,
                     HopDistance k = 2, uint32_t n = 2) {
  KtgQuery q;
  q.keywords = std::move(keywords);
  q.group_size = p;
  q.tenuity = k;
  q.top_n = n;
  return q;
}

// --- QueryKey canonicalization ---------------------------------------------

TEST(QueryKeyTest, KeywordPermutationYieldsIdenticalKey) {
  const KtgQuery a = SimpleQuery({3, 1, 7, 2});
  const KtgQuery b = SimpleQuery({7, 2, 3, 1});
  const QueryKey ka = CanonicalQueryKey(a, SortStrategy::kVkcDeg, true);
  const QueryKey kb = CanonicalQueryKey(b, SortStrategy::kVkcDeg, true);
  EXPECT_EQ(ka, kb);
  EXPECT_EQ(ka.Hash(), kb.Hash());
}

TEST(QueryKeyTest, InvalidKeywordsAreCountedNotOrdered) {
  // kInvalidKeyword entries are interchangeable: each widens |W_Q| by one
  // and can never be covered, so only their count is keyed.
  KtgQuery a = SimpleQuery({kInvalidKeyword, 3, kInvalidKeyword, 1});
  KtgQuery b = SimpleQuery({3, 1, kInvalidKeyword, kInvalidKeyword});
  const QueryKey ka = CanonicalQueryKey(a, SortStrategy::kVkcDeg, true);
  const QueryKey kb = CanonicalQueryKey(b, SortStrategy::kVkcDeg, true);
  EXPECT_EQ(ka, kb);
  EXPECT_EQ(ka.invalid_keywords, 2u);
  // One fewer invalid entry is a different query (different denominator).
  KtgQuery c = SimpleQuery({3, 1, kInvalidKeyword});
  EXPECT_NE(CanonicalQueryKey(c, SortStrategy::kVkcDeg, true), ka);
}

TEST(QueryKeyTest, DistinguishesEverythingResultRelevant) {
  const KtgQuery base = SimpleQuery({1, 2, 3});
  const QueryKey k0 = CanonicalQueryKey(base, SortStrategy::kVkcDeg, true);

  KtgQuery q = base;
  q.group_size = 3;
  EXPECT_NE(CanonicalQueryKey(q, SortStrategy::kVkcDeg, true), k0);
  q = base;
  q.tenuity = 1;
  EXPECT_NE(CanonicalQueryKey(q, SortStrategy::kVkcDeg, true), k0);
  q = base;
  q.top_n = 5;
  EXPECT_NE(CanonicalQueryKey(q, SortStrategy::kVkcDeg, true), k0);
  q = base;
  q.excluded_vertices = {4};
  EXPECT_NE(CanonicalQueryKey(q, SortStrategy::kVkcDeg, true), k0);
  // Sort strategy and tie-break direction select among tied groups, so
  // they key too.
  EXPECT_NE(CanonicalQueryKey(base, SortStrategy::kQkc, true), k0);
  EXPECT_NE(CanonicalQueryKey(base, SortStrategy::kVkcDeg, false), k0);
}

TEST(QueryKeyTest, VertexListsUseSetSemantics) {
  KtgQuery a = SimpleQuery({1, 2});
  a.excluded_vertices = {5, 3, 5, 3};
  a.query_vertices = {9, 8, 9};
  KtgQuery b = SimpleQuery({1, 2});
  b.excluded_vertices = {3, 5};
  b.query_vertices = {8, 9};
  EXPECT_EQ(CanonicalQueryKey(a, SortStrategy::kVkcDeg, true),
            CanonicalQueryKey(b, SortStrategy::kVkcDeg, true));
}

// --- CachingChecker --------------------------------------------------------

TEST(CachingCheckerTest, AgreesWithPlainBfsOnAllPairs) {
  const AttributedGraph g = SmallGraph(0xCAFE);
  KtgCache cache;
  CachingChecker cached(std::make_unique<BfsChecker>(g.graph()), g.graph(),
                        &cache);
  BfsChecker plain(g.graph());
  const auto n = g.num_vertices();
  for (HopDistance k = 1; k <= 3; ++k) {
    // Interleave bulk ball materializations so later per-pair checks hit
    // the cached balls — both read paths must agree with plain BFS.
    for (VertexId u = 0; u < n; u += 3) cached.BallWithinK(u, k);
    for (VertexId u = 0; u < n; ++u) {
      for (VertexId v = 0; v < n; ++v) {
        EXPECT_EQ(cached.IsFartherThan(u, v, k), plain.IsFartherThan(u, v, k))
            << "u=" << u << " v=" << v << " k=" << k;
      }
    }
  }
  EXPECT_GT(cache.BallStats().hits, 0u);
}

TEST(CachingCheckerTest, BallMatchesBfsAndSecondCallHits) {
  const AttributedGraph g = SmallGraph(0xBEEF);
  KtgCache cache;
  CachingChecker checker(std::make_unique<BfsChecker>(g.graph()), g.graph(),
                         &cache);
  BoundedBfs bfs(g.graph());
  const std::vector<VertexId>* ball = checker.BallWithinK(4, 2);
  ASSERT_NE(ball, nullptr);
  EXPECT_EQ(*ball, bfs.Ball(4, 2));
  const CacheTierStats before = cache.BallStats();
  checker.BallWithinK(4, 2);
  EXPECT_EQ(cache.BallStats().hits, before.hits + 1);
  EXPECT_EQ(cache.BallStats().misses, before.misses);
}

// The ktgd pattern: a per-run wrapper around a snapshot's shared checker.
// A check that falls through to the inner checker counts once, into the
// run's tally, and never on the shared inner checker's own counter.
TEST(CachingCheckerTest, FallThroughChecksCountOnceInTheRun) {
  const AttributedGraph g = SmallGraph(0xC0DE, 40);
  const InvertedIndex idx(g);
  const auto inner = MakeChecker(CheckerKind::kNlrnl, g.graph());
  KtgQuery query = SimpleQuery({0, 1, 2, 3, 4}, 3, 2, 3);
  query.query_vertices = {7};
  EngineOptions opts;
  opts.mode = EngineMode::kAnytime;  // greedy seeds check per pair too
  opts.bulk_filtering = false;       // no balls: every check falls through
  const auto plain = RunKtg(g, idx, *inner, query, opts);
  ASSERT_TRUE(plain.ok());
  ASSERT_GT(plain->stats.distance_checks, 0u);

  KtgCache cache;
  CachingChecker wrapped(inner.get(), g.graph(), &cache);
  opts.cache = &cache;
  const uint64_t inner_before = inner->num_checks();
  const auto cached = RunKtg(g, idx, wrapped, query, opts);
  ASSERT_TRUE(cached.ok());
  EXPECT_EQ(cached->groups, plain->groups);
  EXPECT_EQ(cached->stats.distance_checks, plain->stats.distance_checks);
  EXPECT_EQ(inner->num_checks(), inner_before);
  EXPECT_EQ(wrapped.num_checks(), 0u);
}

// --- Invalidation through the affected-vertex path -------------------------

// Warms a ball entry for every vertex at radius `k`.
void WarmAllBalls(KtgCache& cache, const Graph& topo, HopDistance k) {
  BoundedBfs bfs(topo);
  for (VertexId v = 0; v < topo.num_vertices(); ++v) {
    cache.PutBall(
        v, k, std::make_shared<const std::vector<VertexId>>(bfs.Ball(v, k)));
  }
}

TEST(CacheInvalidationTest, NoStaleBallSurvivesAnUpdate) {
  Rng rng(0xD1FF);
  for (int round = 0; round < 20; ++round) {
    const AttributedGraph g = SmallGraph(0xA100 + round);
    const Graph& topo = g.graph();
    const HopDistance k = static_cast<HopDistance>(1 + round % 3);
    KtgCache cache;
    WarmAllBalls(cache, topo, k);

    // Random update: insert a non-edge (or delete an edge on odd rounds).
    const bool deletion = round % 2 == 1;
    VertexId a = 0, b = 0;
    do {
      a = static_cast<VertexId>(rng.Below(topo.num_vertices()));
      b = static_cast<VertexId>(rng.Below(topo.num_vertices()));
    } while (a == b || topo.HasEdge(a, b) != deletion);

    const Graph updated =
        deletion ? WithEdgeRemoved(topo, a, b) : WithEdgeAdded(topo, a, b);
    const auto affected = deletion ? AffectedByDeletion(topo, updated, a, b)
                                   : AffectedByInsertion(topo, a, b);
    if (deletion) {
      cache.OnEdgeRemoved(topo, a, b);
    } else {
      cache.OnEdgeInserted(topo, a, b);
    }

    BoundedBfs fresh(updated);
    for (VertexId v = 0; v < updated.num_vertices(); ++v) {
      const auto ball = cache.PeekBall(v, k);
      if (SortedContains(affected, v)) {
        EXPECT_EQ(ball, nullptr)
            << "stale ball survived for affected vertex " << v;
      } else if (ball != nullptr) {
        // Survivors must be indistinguishable from recomputation on the
        // updated graph — the correctness claim behind precise
        // invalidation.
        EXPECT_EQ(*ball, fresh.Ball(v, k)) << "v=" << v << " round=" << round;
      }
    }
  }
}

TEST(CacheInvalidationTest, QueryTierRejectsPreEpochEntries) {
  const AttributedGraph g = SmallGraph(0xE10);
  const InvertedIndex idx(g);
  BfsChecker checker(g.graph());
  const KtgQuery query = SimpleQuery({0, 1, 2});

  KtgCache cache;
  EngineOptions opts;
  opts.cache = &cache;
  auto first = RunKtg(g, idx, checker, query, opts);
  ASSERT_TRUE(first.ok());
  ASSERT_EQ(cache.QueryStats().entries, 1u);

  // Any topology change voids stored results, hit or not near the groups.
  VertexId a = 0, b = 1;
  while (g.graph().HasEdge(a, b)) ++b;
  cache.OnEdgeInserted(g.graph(), a, b);

  const QueryKey key =
      CanonicalQueryKey(query, opts.sort, opts.degree_ascending);
  KtgResult out;
  EXPECT_FALSE(cache.LookupQuery(key, g, query, &out));
  EXPECT_EQ(cache.QueryStats().entries, 0u) << "stale entry must be dropped";
  EXPECT_GE(cache.QueryStats().invalidations, 1u);
}

TEST(CacheInvalidationTest, DeleteThenReinsertAbaStillInvalidates) {
  const AttributedGraph g = SmallGraph(0xABA);
  const Graph& topo = g.graph();
  const auto edges = topo.EdgeList();
  ASSERT_FALSE(edges.empty());
  const auto [a, b] = edges[edges.size() / 2];

  KtgCache cache;
  WarmAllBalls(cache, topo, 2);
  const InvertedIndex idx(g);
  BfsChecker checker(g.graph());
  const KtgQuery query = SimpleQuery({0, 1, 2, 3});
  EngineOptions opts;
  opts.cache = &cache;
  auto original = RunKtg(g, idx, checker, query, opts);
  ASSERT_TRUE(original.ok());
  const uint64_t epoch0 = cache.epoch();

  // Delete {a,b} and reinsert it: the final topology is bit-identical to
  // the original, but entries stored before the churn must not be served
  // as if nothing happened (the classic ABA hazard).
  cache.OnEdgeRemoved(topo, a, b);
  const Graph without = WithEdgeRemoved(topo, a, b);
  cache.OnEdgeInserted(without, a, b);
  EXPECT_EQ(cache.epoch(), epoch0 + 2);

  const QueryKey key =
      CanonicalQueryKey(query, opts.sort, opts.degree_ascending);
  KtgResult out;
  EXPECT_FALSE(cache.LookupQuery(key, g, query, &out))
      << "pre-churn result served after delete+reinsert";

  // Ball entries of vertices affected by either step are gone...
  for (const VertexId v : AffectedByDeletion(topo, without, a, b)) {
    EXPECT_EQ(cache.PeekBall(v, 2), nullptr);
  }
  // ...and a rerun through the cache repopulates and matches the original
  // (the graph really is back to its old self).
  auto rerun = RunKtg(g, idx, checker, query, opts);
  ASSERT_TRUE(rerun.ok());
  EXPECT_EQ(rerun->groups, original->groups);
}

// --- Metamorphic: permuted / duplicated W_Q --------------------------------

TEST(CacheMetamorphicTest, PermutedKeywordsHitAndMatchFreshRun) {
  Rng rng(0x3E7A);
  for (int round = 0; round < 10; ++round) {
    const AttributedGraph g = SmallGraph(0x5EED + round, 32);
    const InvertedIndex idx(g);

    WorkloadOptions wopts;
    wopts.num_queries = 2;
    wopts.keyword_count = 4;
    wopts.group_size = 2 + round % 2;
    wopts.tenuity = static_cast<HopDistance>(1 + round % 2);
    wopts.top_n = 2;
    const auto queries = GenerateWorkload(g, wopts, rng);

    for (const KtgQuery& query : queries) {
      KtgQuery permuted = query;
      rng.Shuffle(permuted.keywords);

      KtgCache cache;
      EngineOptions opts;
      opts.cache = &cache;
      BfsChecker checker(g.graph());
      auto warm = RunKtg(g, idx, checker, query, opts);
      ASSERT_TRUE(warm.ok());
      const uint64_t hits_before = cache.QueryStats().hits;

      auto from_cache = RunKtg(g, idx, checker, permuted, opts);
      ASSERT_TRUE(from_cache.ok());
      EXPECT_EQ(cache.QueryStats().hits, hits_before + 1)
          << "permuted keywords must map to the same cache key";

      // The served result must be bit-identical (members AND masks) to an
      // uncached run of the permuted query: masks are recomputed against
      // the incoming keyword order on every hit.
      BfsChecker fresh_checker(g.graph());
      auto fresh = RunKtg(g, idx, fresh_checker, permuted, EngineOptions{});
      ASSERT_TRUE(fresh.ok());
      EXPECT_EQ(from_cache->groups, fresh->groups);
      EXPECT_EQ(from_cache->query_keyword_count, fresh->query_keyword_count);
    }
  }
}

TEST(CacheMetamorphicTest, DuplicateKeywordsBehaveIdenticallyCachedOrNot) {
  // ValidateQuery rejects duplicated *valid* keywords; the cached path must
  // reject them the same way (never consult or populate the cache), and
  // duplicated kInvalidKeyword entries — which validation allows — must
  // canonicalize by count.
  const AttributedGraph g = SmallGraph(0xD0B);
  const InvertedIndex idx(g);
  KtgQuery dup = SimpleQuery({1, 2, 1});
  BfsChecker checker(g.graph());

  const auto uncached = RunKtg(g, idx, checker, dup, EngineOptions{});
  KtgCache cache;
  EngineOptions opts;
  opts.cache = &cache;
  const auto cached = RunKtg(g, idx, checker, dup, opts);
  ASSERT_FALSE(uncached.ok());
  ASSERT_FALSE(cached.ok());
  EXPECT_EQ(uncached.status().code(), cached.status().code());
  EXPECT_EQ(cache.QueryStats().entries, 0u);
  EXPECT_EQ(cache.QueryStats().misses, 0u)
      << "invalid queries must not touch the cache";
}

// --- Engine integration ----------------------------------------------------

TEST(EngineCacheTest, SecondRunServesBitIdenticalResultFromCache) {
  const AttributedGraph g = SmallGraph(0xF00D);
  const InvertedIndex idx(g);
  BfsChecker checker(g.graph());
  const KtgQuery query = SimpleQuery({0, 1, 2, 3}, 2, 2, 3);

  KtgCache cache;
  EngineOptions opts;
  opts.cache = &cache;
  auto cold = RunKtg(g, idx, checker, query, opts);
  ASSERT_TRUE(cold.ok());
  auto warm = RunKtg(g, idx, checker, query, opts);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(cache.QueryStats().hits, 1u);
  EXPECT_EQ(warm->groups, cold->groups);
  EXPECT_EQ(warm->query_keyword_count, cold->query_keyword_count);
  EXPECT_EQ(warm->stats.nodes_expanded, 0u) << "hit must skip the search";
}

TEST(EngineCacheTest, TruncatedSearchesBypassTheCache) {
  const AttributedGraph g = SmallGraph(0x77C);
  const InvertedIndex idx(g);
  BfsChecker checker(g.graph());
  const KtgQuery query = SimpleQuery({0, 1, 2, 3}, 3, 1, 2);

  KtgCache cache;
  EngineOptions opts;
  opts.cache = &cache;
  opts.max_nodes = 2;  // truncation: best-effort result
  ASSERT_TRUE(RunKtg(g, idx, checker, query, opts).ok());
  EXPECT_EQ(cache.QueryStats().entries, 0u);
  EXPECT_EQ(cache.QueryStats().misses, 0u);
}

// The cache rule (core/run_frame.h): look up only in exact mode, without a
// node budget or stop_at_count; store only complete one-worker runs.
// Drives the engine through the rule's sequence, checking the cache's
// hit/miss/entry counts after every step and that every hit is
// bit-identical to an uncached serial run.
TEST(EngineCacheTest, EngineFollowsTheCacheRule) {
  const AttributedGraph g = SmallGraph(0xCAC4E);
  const InvertedIndex idx(g);
  // Concurrent-read-safe, so KtgEngine really runs root-parallel.
  const auto checker = MakeChecker(CheckerKind::kNlrnl, g.graph());
  const KtgQuery query = SimpleQuery({0, 1, 2, 3}, 2, 2, 3);
  const KtgQuery other = SimpleQuery({4, 5, 6, 7}, 2, 2, 3);
  const auto run = [&](const EngineOptions& o, const KtgQuery& q) {
    return RunKtg(g, idx, *checker, q, o);
  };

  const Result<KtgResult> serial = run(EngineOptions{}, query);
  ASSERT_TRUE(serial.ok());
  KtgCache cache;
  const auto expect_counts = [&](const char* step, uint64_t hits,
                                 uint64_t misses, uint64_t entries) {
    const CacheTierStats st = cache.QueryStats();
    EXPECT_EQ(st.hits, hits) << step;
    EXPECT_EQ(st.misses, misses) << step;
    EXPECT_EQ(st.entries, entries) << step;
  };
  const auto expect_serial_answer = [&](const Result<KtgResult>& r,
                                        const char* step) {
    ASSERT_TRUE(r.ok()) << step;
    EXPECT_EQ(r->groups, serial->groups) << step;
    EXPECT_EQ(r->query_keyword_count, serial->query_keyword_count) << step;
    EXPECT_TRUE(r->stats.complete) << step;
  };

  EngineOptions cached;
  cached.cache = &cache;
  expect_serial_answer(run(cached, query), "serial exact");
  expect_counts("serial exact stores", 0, 1, 1);
  expect_serial_answer(run(cached, query), "repeat");
  expect_counts("repeat hits", 1, 1, 1);

  EngineOptions parallel = cached;
  parallel.num_threads = 4;
  expect_serial_answer(run(parallel, query), "threads=4");
  expect_counts("threads=4 hits", 2, 1, 1);
  const Result<KtgResult> fresh = run(parallel, other);
  ASSERT_TRUE(fresh.ok());
  ASSERT_GT(fresh->stats.candidates, other.group_size) << "must run parallel";
  expect_counts("threads=4 never stores", 2, 2, 1);

  EngineOptions budgeted = cached;
  budgeted.time_budget_ms = 60000.0;
  expect_serial_answer(run(budgeted, query), "time budget");
  expect_counts("time budget hits", 3, 2, 1);

  EngineOptions node_budget = cached;
  node_budget.max_nodes = uint64_t{1} << 30;
  EngineOptions anytime = cached;
  anytime.mode = EngineMode::kAnytime;
  EngineOptions stop_early = cached;
  stop_early.stop_at_count = 1;
  for (const EngineOptions& bypass : {node_budget, anytime, stop_early}) {
    ASSERT_TRUE(run(bypass, query).ok());
  }
  expect_counts("max_nodes, anytime and stop_at_count runs bypass", 3, 2, 1);
}

// --- Metrics export --------------------------------------------------------

TEST(CacheMetricsTest, ExportsCountersAndDeltas) {
  const AttributedGraph g = SmallGraph(0x3213);
  KtgCache cache;
  CachingChecker checker(std::make_unique<BfsChecker>(g.graph()), g.graph(),
                         &cache);
  checker.BallWithinK(0, 2);  // miss + fill
  checker.BallWithinK(0, 2);  // hit

  obs::MetricsRegistry registry;
  cache.ExportMetrics(registry);
  EXPECT_EQ(registry.CounterValue("cache.ball.hits"), 1u);
  EXPECT_EQ(registry.CounterValue("cache.ball.misses"), 1u);
  EXPECT_GT(registry.gauge("cache.ball.bytes").value(), 0.0);
  EXPECT_EQ(registry.gauge("cache.ball.entries").value(), 1.0);
  EXPECT_EQ(registry.gauge("cache.epoch").value(), 0.0);

  // Second export adds only the delta since the first.
  checker.BallWithinK(0, 2);  // another hit
  cache.ExportMetrics(registry);
  EXPECT_EQ(registry.CounterValue("cache.ball.hits"), 2u);
  EXPECT_EQ(registry.CounterValue("cache.ball.misses"), 1u);
}

TEST(CacheOptionsTest, MbSplitAndBatchSeeds) {
  const CacheOptions o = CacheOptionsForMb(16);
  EXPECT_EQ(o.ball_budget_bytes + o.query_budget_bytes, 16u << 20);
  EXPECT_GT(o.ball_budget_bytes, o.query_budget_bytes);

  EXPECT_EQ(DeriveBatchSeed(42, 0), 42u) << "batch 0 must replay the master";
  EXPECT_NE(DeriveBatchSeed(42, 1), 42u);
  EXPECT_NE(DeriveBatchSeed(42, 1), DeriveBatchSeed(42, 2));
  EXPECT_NE(DeriveBatchSeed(42, 1), DeriveBatchSeed(43, 1));
}

}  // namespace
}  // namespace ktg
