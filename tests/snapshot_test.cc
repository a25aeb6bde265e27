// Copyright (c) 2026 The ktg Authors.
// The epoch-snapshot layer (core/snapshot.h): incremental publishes must be
// indistinguishable from full rebuilds, retired epochs must stay valid for
// their pinned readers and reclaim on drain, the ABA delete/reinsert case
// must not resurrect stale state, and the whole pin/publish path must be
// clean under concurrent readers (this binary carries the tsan label).

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "cache/ktg_cache.h"
#include "cache/query_key.h"
#include "core/ktg_engine.h"
#include "core/snapshot.h"
#include "datagen/generators.h"
#include "datagen/mutation_gen.h"
#include "datagen/presets.h"
#include "datagen/query_gen.h"
#include "index/bfs_checker.h"
#include "index/nlrnl_index.h"
#include "util/macros.h"
#include "util/rng.h"

namespace ktg {
namespace {

AttributedGraph TestGraph() {
  auto spec = GetPreset("gowalla", 0.05);
  KTG_CHECK_MSG(spec.ok(), "preset");
  return BuildDataset(*spec);
}

std::vector<KtgQuery> TestWorkload(const AttributedGraph& graph,
                                   uint32_t num_queries) {
  WorkloadOptions opts;
  opts.num_queries = num_queries;
  opts.group_size = 4;
  opts.tenuity = 2;
  opts.top_n = 5;
  opts.keyword_count = 6;
  Rng rng(11);
  return GenerateWorkload(graph, opts, rng);
}

std::vector<MutationBatch> TestMutations(const AttributedGraph& graph,
                                         uint32_t batches) {
  MutationWorkloadOptions mopts;
  mopts.num_batches = batches;
  mopts.edges_per_batch = 3;
  mopts.keywords_per_batch = 1;
  Rng rng(29);
  return GenerateMutationWorkload(graph, mopts, rng);
}

/// Engine results at `pin` for every query, via the snapshot's shared
/// checker (or a per-run BFS when the kind carries none).
std::vector<KtgResult> RunAll(const EngineSnapshot& snap,
                              const std::vector<KtgQuery>& queries) {
  std::unique_ptr<DistanceChecker> bfs;
  DistanceChecker* checker = snap.checker();
  if (checker == nullptr) {
    bfs = std::make_unique<BfsChecker>(snap.graph().graph());
    checker = bfs.get();
  }
  std::vector<KtgResult> out;
  for (const KtgQuery& q : queries) {
    auto r = RunKtg(snap.graph(), snap.index(), *checker, q, {});
    KTG_CHECK_MSG(r.ok(), "engine run");
    out.push_back(std::move(*r));
  }
  return out;
}

void ExpectSameResults(const std::vector<KtgResult>& a,
                       const std::vector<KtgResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].groups.size(), b[i].groups.size()) << "query " << i;
    for (size_t g = 0; g < a[i].groups.size(); ++g) {
      EXPECT_EQ(a[i].groups[g].members, b[i].groups[g].members)
          << "query " << i << " group " << g;
      EXPECT_EQ(a[i].groups[g].covered(), b[i].groups[g].covered());
    }
  }
}

// ---------------------------------------------------------------------------
// Incremental publish == full rebuild, for every checker kind.

class SnapshotEquivalenceTest
    : public ::testing::TestWithParam<CheckerKind> {};

TEST_P(SnapshotEquivalenceTest, IncrementalApplyMatchesFullRebuild) {
  const AttributedGraph graph = TestGraph();
  const auto queries = TestWorkload(graph, 4);
  const auto batches = TestMutations(graph, 6);
  ASSERT_FALSE(queries.empty());
  ASSERT_FALSE(batches.empty());

  SnapshotStore::Options opts;
  opts.checker = GetParam();
  opts.bitmap_k = 2;
  SnapshotStore store(AttributedGraph(graph), opts);

  for (const MutationBatch& batch : batches) {
    auto info = store.Apply(batch);
    ASSERT_TRUE(info.ok()) << info.status().ToString();
    const SnapshotPin pin = store.Pin();
    EXPECT_EQ(pin->epoch(), info->epoch);

    // A from-scratch snapshot of the same graph state is the ground truth
    // for the incrementally maintained index/checker.
    const EngineSnapshot fresh(pin->epoch(),
                               AttributedGraph(pin->graph()), GetParam(),
                               /*bitmap_k=*/2, /*build_threads=*/0);
    ExpectSameResults(RunAll(*pin, queries), RunAll(fresh, queries));
  }
}

INSTANTIATE_TEST_SUITE_P(AllCheckers, SnapshotEquivalenceTest,
                         ::testing::Values(CheckerKind::kBfs, CheckerKind::kNl,
                                           CheckerKind::kNlrnl,
                                           CheckerKind::kKHopBitmap));

// ---------------------------------------------------------------------------
// Differential: 30 seeded batches on a sparse, disconnected graph; every
// epoch answers every pair and k like an index built from scratch on its
// graph, and pinned older epochs keep doing so while later epochs (whose
// NLRNL copies share entries with them) are published.

struct DifferentialCase {
  CheckerKind kind;
  HopDistance bitmap_k;  // the bitmap answers only the k it was built for
};

std::vector<HopDistance> CheckedKs(const DifferentialCase& c) {
  if (c.kind == CheckerKind::kKHopBitmap) return {c.bitmap_k};
  return {1, 2, 3, 4};
}

// IsFartherThan over every ordered pair and every k in `ks`.
std::vector<bool> AllAnswers(DistanceChecker& checker, uint32_t n,
                             const std::vector<HopDistance>& ks) {
  std::vector<bool> out;
  out.reserve(static_cast<size_t>(n) * n * ks.size());
  for (VertexId u = 0; u < n; ++u) {
    for (VertexId v = 0; v < n; ++v) {
      for (const HopDistance k : ks) {
        out.push_back(checker.IsFartherThan(u, v, k));
      }
    }
  }
  return out;
}

class SnapshotDifferentialTest
    : public ::testing::TestWithParam<DifferentialCase> {};

TEST_P(SnapshotDifferentialTest, EveryEpochMatchesAFreshIndex) {
  const DifferentialCase c = GetParam();
  const std::vector<HopDistance> ks = CheckedKs(c);
  Rng rng(0xD1FF);
  AttributedGraphBuilder builder;
  builder.SetGraph(ErdosRenyi(80, 0.035, rng));
  builder.AddKeyword(0, "seed");
  SnapshotStore::Options opts;
  opts.checker = c.kind;
  opts.bitmap_k = c.bitmap_k;
  opts.build_threads = 1;
  SnapshotStore store(builder.Build(), opts);
  const uint32_t n = store.Pin()->graph().num_vertices();
  auto fresh_answers = [&](const EngineSnapshot& snap) {
    const auto fresh =
        MakeSnapshotChecker(c.kind, snap.graph().graph(), c.bitmap_k, 1);
    return AllAnswers(*fresh, n, ks);
  };

  // The reader pins the current epoch and re-verifies it until the writer
  // is two epochs past it, verifying once more after that, then re-pins.
  std::atomic<bool> done{false};
  std::atomic<bool> reader_exited{false};
  std::atomic<uint64_t> reverified{0};
  auto verify_pins = [&] {
    while (!done.load(std::memory_order_acquire)) {
      const SnapshotPin pin = store.Pin();
      const std::vector<bool> expected = fresh_answers(*pin);
      bool last = false;
      while (!last) {
        last = done.load(std::memory_order_acquire) ||
               store.epoch() >= pin->epoch() + 2;
        ASSERT_TRUE(AllAnswers(*pin->checker(), n, ks) == expected)
            << "pinned epoch " << pin->epoch() << " changed under its reader";
        reverified.fetch_add(1, std::memory_order_release);
      }
    }
  };
  std::thread reader([&] {
    verify_pins();
    reader_exited.store(true, std::memory_order_release);
  });

  std::vector<SnapshotPin> pins = {store.Pin()};
  for (int round = 0; round < 30; ++round) {
    const Graph& g = pins.back()->graph().graph();
    const auto edges = g.EdgeList();
    MutationBatch batch;
    for (int i = 0; i < 3; ++i) {
      const auto a = static_cast<VertexId>(rng.Below(n));
      const auto b = static_cast<VertexId>((a + 1 + rng.Below(n - 1)) % n);
      batch.add_edges.emplace_back(a, b);
    }
    for (int i = 0; i < 2; ++i) {
      batch.remove_edges.push_back(edges[rng.Below(edges.size())]);
    }
    if (round % 5 == 0) {
      batch.add_keywords.emplace_back(static_cast<VertexId>(rng.Below(n)),
                                      "kw" + std::to_string(round));
    }
    const uint64_t seen = reverified.load(std::memory_order_acquire);
    auto info = store.Apply(batch);
    ASSERT_TRUE(info.ok()) << info.status().ToString();
    EXPECT_EQ(info->checker_rebuilds, info->affected_vertices);

    const SnapshotPin pin = store.Pin();
    pins.push_back(pin);
    ASSERT_TRUE(AllAnswers(*pin->checker(), n, ks) == fresh_answers(*pin))
        << "epoch " << pin->epoch();
    if (c.kind == CheckerKind::kNlrnl) {
      const auto& got = dynamic_cast<const NlrnlIndex&>(*pin->checker());
      const NlrnlIndex want(pin->graph().graph());
      for (VertexId v = 0; v < n; ++v) {
        ASSERT_EQ(got.c_value(v), want.c_value(v)) << "v=" << v;
        ASSERT_EQ(got.num_forward_levels(v), want.num_forward_levels(v));
        ASSERT_EQ(got.num_reverse_levels(v), want.num_reverse_levels(v));
      }
    }
    // Let the reader verify at least once against every epoch's publish.
    while (reverified.load(std::memory_order_acquire) == seen &&
           !reader_exited.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
  }
  done.store(true, std::memory_order_release);
  reader.join();
  EXPECT_GE(reverified.load(), 30u);

  // Every retained epoch still answers like a fresh build of its own graph.
  for (const SnapshotPin& pin : pins) {
    EXPECT_TRUE(AllAnswers(*pin->checker(), n, ks) == fresh_answers(*pin))
        << "retained epoch " << pin->epoch();
  }
}

INSTANTIATE_TEST_SUITE_P(
    IndexCheckers, SnapshotDifferentialTest,
    ::testing::Values(DifferentialCase{CheckerKind::kNl, 2},
                      DifferentialCase{CheckerKind::kNlrnl, 2},
                      DifferentialCase{CheckerKind::kKHopBitmap, 1},
                      DifferentialCase{CheckerKind::kKHopBitmap, 2},
                      DifferentialCase{CheckerKind::kKHopBitmap, 3},
                      DifferentialCase{CheckerKind::kKHopBitmap, 4}));

// ---------------------------------------------------------------------------
// Epoch lifecycle.

TEST(SnapshotStoreTest, RejectsInvalidBatchesAtomically) {
  SnapshotStore store(TestGraph(), {});
  const uint64_t n = store.Pin()->graph().num_vertices();
  const bool had_edge = store.Pin()->graph().graph().HasEdge(0, 1);

  EXPECT_FALSE(store.Apply({}).ok());  // empty
  MutationBatch self_loop;
  self_loop.add_edges = {{1, 1}};
  EXPECT_FALSE(store.Apply(self_loop).ok());
  MutationBatch out_of_range;
  out_of_range.add_edges = {{0, 1}};
  out_of_range.remove_edges = {{0, static_cast<VertexId>(n)}};
  EXPECT_FALSE(store.Apply(out_of_range).ok());
  MutationBatch bad_keyword;
  bad_keyword.add_keywords = {{static_cast<VertexId>(n), "x"}};
  EXPECT_FALSE(store.Apply(bad_keyword).ok());

  // Nothing published: still epoch 0, and the valid half of the mixed
  // batch (the (0,1) add) was not applied either.
  EXPECT_EQ(store.epoch(), 0u);
  EXPECT_EQ(store.Pin()->graph().graph().HasEdge(0, 1), had_edge);
}

TEST(SnapshotStoreTest, RetiredEpochStaysValidUntilItsReaderDrains) {
  AttributedGraph graph = TestGraph();
  const auto edges = graph.graph().EdgeList();
  ASSERT_FALSE(edges.empty());
  SnapshotStore store(std::move(graph), {});

  SnapshotPin old_pin = store.Pin();
  MutationBatch batch;
  batch.remove_edges = {edges.front()};
  auto info = store.Apply(batch);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->epoch, 1u);
  // The pinned predecessor is retired but must remain fully readable.
  EXPECT_EQ(info->retired_live, 1u);
  EXPECT_EQ(old_pin->epoch(), 0u);
  EXPECT_TRUE(old_pin->graph().graph().HasEdge(edges.front().first,
                                               edges.front().second));
  EXPECT_FALSE(store.Pin()->graph().graph().HasEdge(edges.front().first,
                                                    edges.front().second));

  // Reclamation is observed (weak_ptr expiry) once the last pin drops.
  EXPECT_EQ(store.SweepRetired(), 1u);
  old_pin.reset();
  EXPECT_EQ(store.SweepRetired(), 0u);
}

// Delete an edge, then re-insert it: the final graph equals the original,
// but epoch state must not be resurrected across the round trip (the
// classic ABA hazard for anything keyed by topology alone).
TEST(SnapshotStoreTest, AbaDeleteReinsertDoesNotResurrectStaleState) {
  AttributedGraph graph = TestGraph();
  const auto queries = TestWorkload(graph, 3);
  const auto edges = graph.graph().EdgeList();
  ASSERT_FALSE(edges.empty());
  const auto [a, b] = edges.front();

  KtgCache cache;
  SnapshotStore::Options opts;
  opts.cache = &cache;
  SnapshotStore store(AttributedGraph(graph), opts);
  const SnapshotPin pin0 = store.Pin();

  // Warm the cache at epoch 0 through real engine runs.
  const auto results0 = RunAll(*pin0, queries);
  for (size_t i = 0; i < queries.size(); ++i) {
    cache.StoreQuery(CanonicalQueryKey(queries[i], SortStrategy::kVkcDeg, true),
                     results0[i], pin0->epoch());
  }

  MutationBatch del;
  del.remove_edges = {{a, b}};
  ASSERT_TRUE(store.Apply(del).ok());
  const SnapshotPin pin1 = store.Pin();
  MutationBatch add;
  add.add_edges = {{a, b}};
  ASSERT_TRUE(store.Apply(add).ok());
  const SnapshotPin pin2 = store.Pin();

  // Topology round-tripped...
  EXPECT_TRUE(pin2->graph().graph().HasEdge(a, b));
  EXPECT_EQ(pin2->graph().graph().num_edges(),
            pin0->graph().graph().num_edges());
  // ...but the epochs are distinct, and every epoch's results match a
  // fresh build of that epoch's graph (no stale checker rows at pin1, no
  // epoch-0 leftovers at pin2).
  EXPECT_EQ(pin2->epoch(), 2u);
  for (const SnapshotPin& pin : {pin1, pin2}) {
    const EngineSnapshot fresh(pin->epoch(), AttributedGraph(pin->graph()),
                               CheckerKind::kNlrnl, 2, 0);
    ExpectSameResults(RunAll(*pin, queries), RunAll(fresh, queries));
  }

  // Cache rules across the ABA round trip: epoch-0 query results are not
  // served to epoch 1 or 2 readers even though epoch 2's graph is
  // identical to epoch 0's.
  for (size_t i = 0; i < queries.size(); ++i) {
    KtgResult out;
    EXPECT_FALSE(cache.LookupQuery(
        CanonicalQueryKey(queries[i], SortStrategy::kVkcDeg, true),
        pin2->graph(), queries[i], &out, pin2->epoch()));
  }
  EXPECT_EQ(cache.epoch(), 2u);
}

TEST(SnapshotStoreTest, KeywordOnlyBatchSharesPredecessorChecker) {
  SnapshotStore store(TestGraph(), {});
  const SnapshotPin before = store.Pin();
  MutationBatch batch;
  batch.add_keywords = {{1, "fresh_term"}, {2, "fresh_term"}};
  auto info = store.Apply(batch);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->keywords_added, 2u);
  EXPECT_EQ(info->affected_vertices, 0u);
  const SnapshotPin after = store.Pin();
  // Topology unchanged: the checker object is shared, not copied, and the
  // vocabulary is append-only (old ids stable, new term appended).
  EXPECT_EQ(after->shared_checker().get(), before->shared_checker().get());
  const KeywordId kw = after->graph().vocabulary().Find("fresh_term");
  ASSERT_NE(kw, kInvalidKeyword);
  EXPECT_TRUE(after->graph().HasKeyword(1, kw));
  EXPECT_EQ(before->graph().vocabulary().Find("fresh_term"), kInvalidKeyword);
}

// ---------------------------------------------------------------------------
// Concurrency (the tsan label runs this under -DKTG_SANITIZE=thread).

TEST(SnapshotConcurrencyTest, ReadersPinConsistentStateAcrossPublishes) {
  AttributedGraph graph = TestGraph();
  const auto queries = TestWorkload(graph, 2);
  const auto batches = TestMutations(graph, 12);
  ASSERT_FALSE(batches.empty());

  KtgCache cache;
  SnapshotStore::Options opts;
  opts.cache = &cache;
  SnapshotStore store(AttributedGraph(graph), opts);

  // The writer records each epoch's expected edge count *before* readers
  // can observe it (Apply publishes after the map insert's mutex release).
  std::mutex mu;
  std::map<uint64_t, uint64_t> expected_edges;
  expected_edges[0] = store.Pin()->graph().graph().num_edges();

  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      size_t spins = 0;
      while (!stop.load(std::memory_order_acquire)) {
        const SnapshotPin pin = store.Pin();
        // Internal consistency: the pinned epoch's graph matches what the
        // writer published for that epoch, and an engine run against the
        // pin succeeds (graph/index/checker are one coherent state).
        {
          std::lock_guard<std::mutex> lock(mu);
          const auto it = expected_edges.find(pin->epoch());
          ASSERT_NE(it, expected_edges.end());
          ASSERT_EQ(pin->graph().graph().num_edges(), it->second);
        }
        auto r = RunKtg(pin->graph(), pin->index(), *pin->checker(),
                        queries[t % queries.size()], {});
        ASSERT_TRUE(r.ok());
        ++spins;
      }
      EXPECT_GT(spins, 0u);
    });
  }

  uint64_t published = 0;
  for (const MutationBatch& batch : batches) {
    // Pre-register the successor epoch's edge count; a racing reader that
    // pins it before Apply returns still finds the entry.
    {
      Graph g = store.Pin()->graph().graph();
      for (const auto& [x, y] : batch.add_edges) {
        if (!g.HasEdge(x, y)) g = WithEdgeAdded(g, x, y);
      }
      for (const auto& [x, y] : batch.remove_edges) {
        if (g.HasEdge(x, y)) g = WithEdgeRemoved(g, x, y);
      }
      std::lock_guard<std::mutex> lock(mu);
      expected_edges[store.epoch() + 1] = g.num_edges();
    }
    auto info = store.Apply(batch);
    ASSERT_TRUE(info.ok()) << info.status().ToString();
    ++published;
    EXPECT_EQ(info->epoch, published);
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  // Once every reader has dropped its pins, the retired list drains.
  EXPECT_EQ(store.SweepRetired(), 0u);
  EXPECT_EQ(store.epoch(), published);
  EXPECT_EQ(cache.epoch(), published);
}

}  // namespace
}  // namespace ktg
