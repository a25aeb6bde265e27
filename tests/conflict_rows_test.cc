// Copyright (c) 2026 The ktg Authors.
// Graph-side k-line rows (core/conflict_rows.h): every row a pivot fills
// from one shared build must equal, bit for bit, the per-pair answer a BFS
// gives for each candidate slot, whatever the graph shape, k or number of
// slots, and whichever thread fills it.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "core/conflict_rows.h"
#include "datagen/generators.h"
#include "graph/bfs.h"
#include "util/rng.h"

namespace ktg {
namespace {

struct Shape {
  std::string name;
  Graph graph;
  // Vertices the slots are drawn from first (isolated ones, say).
  std::vector<VertexId> preferred;
};

// Disjoint union of `a` and `b`, b's vertices shifted past a's.
Graph Union(const Graph& a, const Graph& b) {
  GraphBuilder builder(a.num_vertices() + b.num_vertices());
  for (const auto& [u, v] : a.EdgeList()) builder.AddEdge(u, v);
  for (const auto& [u, v] : b.EdgeList()) {
    builder.AddEdge(u + a.num_vertices(), v + a.num_vertices());
  }
  return builder.Build();
}

std::vector<Shape> Shapes() {
  std::vector<Shape> out;
  Rng rng(0xC0F1);
  out.push_back({"er", ErdosRenyi(180, 0.02, rng), {}});
  out.push_back({"ba", BarabasiAlbert(180, 2, rng), {}});
  GraphBuilder star(181);
  for (VertexId v = 1; v <= 180; ++v) star.AddEdge(0, v);
  out.push_back({"star", star.Build(), {0}});
  out.push_back({"two_components",
                 Union(BarabasiAlbert(90, 2, rng), ErdosRenyi(90, 0.05, rng)),
                 {}});
  // 40 isolated vertices after a BA core; the slots take them first.
  Shape isolated{"isolated",
                 Union(BarabasiAlbert(140, 2, rng), GraphBuilder(40).Build()),
                 {}};
  for (VertexId v = 140; v < 180; ++v) isolated.preferred.push_back(v);
  out.push_back(std::move(isolated));
  return out;
}

// `count` distinct vertices: the preferred ones, then a seeded shuffle.
std::vector<VertexId> PickSlots(const Shape& shape, size_t count,
                                uint64_t seed) {
  std::vector<VertexId> rest(shape.graph.num_vertices());
  std::iota(rest.begin(), rest.end(), 0);
  Rng rng(seed);
  for (size_t i = rest.size(); i > 1; --i) {
    std::swap(rest[i - 1], rest[rng.Below(i)]);
  }
  std::vector<VertexId> slots = shape.preferred;
  for (const VertexId v : rest) {
    if (slots.size() >= count) break;
    if (std::find(slots.begin(), slots.end(), v) == slots.end()) {
      slots.push_back(v);
    }
  }
  slots.resize(std::min(slots.size(), count));
  return slots;
}

// The row per-pair BFS gives: bit s set when Dis(slots[s], pivot) <= k.
std::vector<uint64_t> ReferenceRow(const Graph& graph,
                                   const std::vector<VertexId>& slots,
                                   VertexId pivot, HopDistance k) {
  const std::vector<HopDistance> dist = DistancesFrom(graph, pivot);
  std::vector<uint64_t> row((slots.size() + 63) / 64, 0);
  for (size_t s = 0; s < slots.size(); ++s) {
    if (dist[slots[s]] != kUnreachable && dist[slots[s]] <= k) {
      row[s / 64] |= uint64_t{1} << (s % 64);
    }
  }
  return row;
}

// Fill()'s row at stride 2, as the engine's memo interleaves it, with the
// words in between left alone.
std::vector<uint64_t> FilledRow(const ConflictRows& rows, VertexId pivot) {
  constexpr uint64_t kUntouched = 0x5A5A5A5A5A5A5A5A;
  std::vector<uint64_t> memo(2 * rows.words(), 0);
  for (size_t w = 0; w < rows.words(); ++w) memo[2 * w] = kUntouched;
  rows.Fill(pivot, memo.data() + 1, 2);
  std::vector<uint64_t> row(rows.words());
  for (size_t w = 0; w < rows.words(); ++w) {
    EXPECT_EQ(memo[2 * w], kUntouched);
    row[w] = memo[2 * w + 1];
  }
  return row;
}

TEST(ConflictRowsTest, EveryRowEqualsPerPairBfs) {
  const std::vector<HopDistance> ks = {0, 1, 2, 3, 4, 5, 65535};
  const std::vector<size_t> counts = {0, 1, 63, 64, 65, 130};
  ConflictRows rows;  // one object across graphs and builds
  for (const Shape& shape : Shapes()) {
    for (const size_t count : counts) {
      const std::vector<VertexId> slots = PickSlots(shape, count, count + 1);
      ASSERT_EQ(slots.size(), count);
      for (const HopDistance k : ks) {
        rows.Build(shape.graph, slots, k);
        ASSERT_EQ(rows.words(), (count + 63) / 64);
        // Every slot as a pivot, plus vertices outside S_R.
        std::vector<VertexId> pivots = slots;
        for (VertexId v = 0; v < shape.graph.num_vertices(); v += 17) {
          pivots.push_back(v);
        }
        for (const VertexId pivot : pivots) {
          ASSERT_EQ(FilledRow(rows, pivot),
                    ReferenceRow(shape.graph, slots, pivot, k))
              << shape.name << " |S_R|=" << count << " k=" << k
              << " pivot=" << pivot;
        }
      }
    }
  }
}

TEST(ConflictRowsTest, FourThreadsFillFromOneBuild) {
  Rng rng(0xF111);
  const Shape shape{"ba", BarabasiAlbert(400, 3, rng), {}};
  const std::vector<VertexId> slots = PickSlots(shape, 130, 7);
  for (const HopDistance k : {HopDistance{2}, HopDistance{3}}) {
    ConflictRows rows;
    rows.Build(shape.graph, slots, k);
    std::vector<std::vector<uint64_t>> expected;
    for (const VertexId pivot : slots) {
      expected.push_back(ReferenceRow(shape.graph, slots, pivot, k));
    }
    constexpr size_t kThreads = 4;
    std::vector<std::vector<std::vector<uint64_t>>> got(kThreads);
    std::vector<std::thread> threads;
    for (size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (size_t i = t; i < slots.size(); i += kThreads) {
          std::vector<uint64_t> row(2 * rows.words(), 0);
          rows.Fill(slots[i], row.data() + 1, 2);
          got[t].push_back(std::move(row));
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    for (size_t i = 0; i < slots.size(); ++i) {
      const std::vector<uint64_t>& memo = got[i % kThreads][i / kThreads];
      for (size_t w = 0; w < rows.words(); ++w) {
        EXPECT_EQ(memo[2 * w + 1], expected[i][w]) << "k=" << k << " i=" << i;
      }
    }
  }
}

// A capped price is the exact one when that fits under the cap, and
// otherwise some price above the cap: never a price the walk beats.
TEST(ConflictRowsTest, CappedFillCostIsExactOrAboveTheCap) {
  Rng rng(0xCA9);
  const Graph graph = BarabasiAlbert(300, 4, rng);
  for (const HopDistance k : {HopDistance{1}, HopDistance{3}, HopDistance{5}}) {
    for (VertexId v = 0; v < graph.num_vertices(); v += 7) {
      const uint64_t exact = ConflictRows::FillCost(graph, v, k, 3);
      for (const uint64_t cap : {uint64_t{0}, uint64_t{100}, exact - 1,
                                 exact, exact + 1}) {
        const uint64_t capped = ConflictRows::FillCost(graph, v, k, 3, cap);
        if (exact <= cap) {
          EXPECT_EQ(capped, exact);
        } else {
          EXPECT_GT(capped, cap);
          EXPECT_LE(capped, exact);
        }
      }
    }
  }
}

}  // namespace
}  // namespace ktg
