// Copyright (c) 2026 The ktg Authors.
// Kernel microbench (docs/kernels.md): two questions, one binary.
//
//   1. What does each SIMD dispatch tier (AVX2, AVX-512, NEON) buy over
//      the scalar loops at the word counts the engines actually see?
//      (Every tier the build compiled is called directly, bypassing the
//      runtime dispatch, so the comparison works even on machines where
//      the dispatcher would pick a lower tier.)
//   2. What does the ball-walk conflict-graph construction buy over the
//      all-pairs probe loop as the candidate set grows? (The acceptance
//      bar for the rewrite: >= 3x at >= 5k candidates.)
//
// Honors --repeat R / KTG_BENCH_REPEAT (min/median across repeats) and
// writes the standard metrics sidecar.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/common.h"
#include "core/conflict_graph_engine.h"
#include "datagen/generators.h"
#include "index/bfs_checker.h"
#include "index/khop_bitmap.h"
#include "util/bitset_ops.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace ktg::bench {
namespace {

// Prevent dead-code elimination without a memory barrier per op.
volatile uint64_t g_sink = 0;

template <typename Fn>
double TimePerCall(uint64_t reps, Fn&& fn) {
  // One warm-up pass populates caches; then take the min over repeats.
  fn();
  double best_ms = -1.0;
  for (uint32_t rep = 0; rep < BenchRepeats(); ++rep) {
    Stopwatch watch;
    for (uint64_t r = 0; r < reps; ++r) fn();
    const double ms = watch.ElapsedMillis();
    if (best_ms < 0.0 || ms < best_ms) best_ms = ms;
  }
  return best_ms * 1e6 / static_cast<double>(reps);
}

/// One compiled-and-runnable kernel tier, addressed by function pointer so
/// every kernel row shares the same timing loop.
struct KernelTier {
  const char* name;
  void (*and_not)(uint64_t*, const uint64_t*, const uint64_t*, size_t);
  uint64_t (*popcount)(const uint64_t*, size_t);
  uint64_t (*and_popcount)(const uint64_t*, const uint64_t*, size_t);
};

std::vector<KernelTier> RunnableTiers() {
  std::vector<KernelTier> tiers = {{"scalar", &bitset_scalar::AndNot,
                                    &bitset_scalar::Popcount,
                                    &bitset_scalar::AndPopcount}};
#if KTG_BITSET_AVX2_COMPILED
  if (Avx2Available()) {
    tiers.push_back({"avx2", &bitset_avx2::AndNot, &bitset_avx2::Popcount,
                     &bitset_avx2::AndPopcount});
  }
#endif
#if KTG_BITSET_AVX512_COMPILED
  if (Avx512Available()) {
    tiers.push_back({"avx512", &bitset_avx512::AndNot,
                     &bitset_avx512::Popcount, &bitset_avx512::AndPopcount});
  }
#endif
#if KTG_BITSET_NEON_COMPILED
  tiers.push_back({"neon", &bitset_neon::AndNot, &bitset_neon::Popcount,
                   &bitset_neon::AndPopcount});
#endif
  return tiers;
}

void BenchWordKernels() {
  const auto tiers = RunnableTiers();
  PrintHeader("Bit-parallel kernels: dispatch tiers vs scalar",
              std::string("dispatch on this machine: ") +
                  KernelDispatchName() + " (" +
                  std::to_string(tiers.size()) + " runnable tiers)");
  const std::vector<int> widths = {10, 14, 10, 12, 10};
  PrintRow({"words", "kernel", "tier", "ns/call", "speedup"}, widths);

  Rng rng(0xBE9C);
  for (const size_t words : {8u, 32u, 128u, 512u, 4096u}) {
    std::vector<uint64_t> a(words), b(words), dst(words);
    for (auto& w : a) w = rng.Next();
    for (auto& w : b) w = rng.Next();
    const uint64_t reps = words >= 4096 ? 20'000 : 200'000;

    struct Cell {
      const char* kernel;
      const char* tier;
      double ns;
    };
    std::vector<Cell> cells;
    for (const KernelTier& tier : tiers) {
      cells.push_back({"and_not", tier.name, TimePerCall(reps, [&] {
                         tier.and_not(dst.data(), a.data(), b.data(), words);
                         g_sink = g_sink + dst[0];
                       })});
      cells.push_back({"popcount", tier.name, TimePerCall(reps, [&] {
                         g_sink = g_sink + tier.popcount(a.data(), words);
                       })});
      cells.push_back({"and_popcount", tier.name, TimePerCall(reps, [&] {
                         g_sink = g_sink +
                                  tier.and_popcount(a.data(), b.data(), words);
                       })});
    }

    // Scalar is always tiers[0]; report each tier's speedup against it.
    for (const char* kernel : {"and_not", "popcount", "and_popcount"}) {
      double scalar_ns = 0.0;
      for (const Cell& c : cells) {
        if (c.kernel == kernel && std::string(c.tier) == "scalar") {
          scalar_ns = c.ns;
        }
      }
      for (const Cell& c : cells) {
        if (c.kernel != kernel) continue;
        const bool is_scalar = std::string(c.tier) == "scalar";
        PrintRow({std::to_string(words), c.kernel, c.tier, Fmt(c.ns),
                  is_scalar ? "1.00x" : Fmt(scalar_ns / c.ns) + "x"},
                 widths);
        Metrics()
            .gauge(std::string("kernel.bench.") + c.kernel + "." + c.tier +
                   "_ns.w" + std::to_string(words))
            .Set(c.ns);
      }
    }
  }
}

void BenchConflictConstruction() {
  // A Barabasi-Albert social topology: hubs give the 2-hop balls realistic
  // skew. Candidates are every other vertex, so the membership bitmap is
  // half-dense — the regime the engine sees on popular-keyword queries.
  constexpr uint32_t kVertices = 20'000;
  constexpr HopDistance kK = 2;
  Rng rng(0xBA11);
  const Graph graph = BarabasiAlbert(kVertices, 3, rng);

  PrintHeader(
      "Conflict-graph construction: all-pairs probes vs ball walk",
      "BarabasiAlbert n=20000 m0=3, k=2; pairwise uses KHopBitmap probes "
      "(one bit load each, the cheapest checker), ball walk reads the same "
      "bitmap's rows; bfs-ball is the index-free path");
  const std::vector<int> widths = {12, 14, 18, 14, 12, 14};
  PrintRow({"candidates", "pairwise ms", "rows (bitmap) ms", "bfs-ball ms",
            "speedup", "edges"},
           widths);

  std::printf("[bench] building KHopBitmap (n=%u, k=%d)...\n", kVertices,
              int{kK});
  KHopBitmapChecker bitmap(graph, kK);
  BfsChecker bfs(graph);

  for (const uint32_t n : {1'000u, 2'000u, 5'000u, 10'000u}) {
    std::vector<Candidate> cands;
    cands.reserve(n);
    for (uint32_t i = 0; i < n; ++i) {
      Candidate c;
      c.vertex = static_cast<VertexId>(i * 2);
      cands.push_back(c);
    }

    auto time_build = [&](DistanceChecker& checker, ConflictBuild mode,
                          uint64_t* edges) {
      double best_ms = -1.0;
      for (uint32_t rep = 0; rep < BenchRepeats(); ++rep) {
        Stopwatch watch;
        const auto cg = BuildConflictAdjacency(graph, checker, cands, kK,
                                               mode);
        const double ms = watch.ElapsedMillis();
        *edges = cg.edges;
        if (best_ms < 0.0 || ms < best_ms) best_ms = ms;
      }
      return best_ms;
    };

    uint64_t edges_pw = 0, edges_rows = 0, edges_bfs = 0;
    const double pairwise_ms =
        time_build(bitmap, ConflictBuild::kPairwise, &edges_pw);
    const double rows_ms =
        time_build(bitmap, ConflictBuild::kBallWalk, &edges_rows);
    const double bfs_ms = time_build(bfs, ConflictBuild::kBallWalk,
                                     &edges_bfs);
    KTG_CHECK(edges_pw == edges_rows && edges_pw == edges_bfs);

    PrintRow({std::to_string(n), Fmt(pairwise_ms), Fmt(rows_ms), Fmt(bfs_ms),
              Fmt(pairwise_ms / rows_ms) + "x", std::to_string(edges_pw)},
             widths);
    Metrics()
        .gauge("kernel.bench.conflict_pairwise_ms.c" + std::to_string(n))
        .Set(pairwise_ms);
    Metrics()
        .gauge("kernel.bench.conflict_ballwalk_ms.c" + std::to_string(n))
        .Set(rows_ms);
    Metrics()
        .gauge("kernel.bench.conflict_bfsball_ms.c" + std::to_string(n))
        .Set(bfs_ms);
  }
}

void BenchPooledConflictBuild() {
  // The same bitmap-row ball walk, serial vs split over a ThreadPool with
  // ParallelFor (one AND-scratch vector per chunk). Edge counts must
  // agree — the parallel build is a partitioning of the same row loop,
  // not an approximation.
  constexpr uint32_t kVertices = 20'000;
  constexpr HopDistance kK = 2;
  Rng rng(0xBA11);
  const Graph graph = BarabasiAlbert(kVertices, 3, rng);
  std::printf("[bench] building KHopBitmap (n=%u, k=%d)...\n", kVertices,
              int{kK});
  KHopBitmapChecker bitmap(graph, kK);

  const uint32_t threads = std::max(2u, BenchThreads());
  ThreadPool pool(threads);

  PrintHeader("Conflict-graph construction: serial vs thread pool",
              "BarabasiAlbert n=20000 m0=3, k=2, bitmap rows; pool: " +
                  std::to_string(threads) + " worker(s)");
  const std::vector<int> widths = {12, 12, 12, 10, 14};
  PrintRow({"candidates", "serial ms", "pooled ms", "speedup", "edges"},
           widths);

  for (const uint32_t n : {2'000u, 5'000u, 10'000u}) {
    std::vector<Candidate> cands;
    cands.reserve(n);
    for (uint32_t i = 0; i < n; ++i) {
      Candidate c;
      c.vertex = static_cast<VertexId>(i * 2);
      cands.push_back(c);
    }
    auto time_build = [&](ThreadPool* p, uint64_t* edges) {
      double best_ms = -1.0;
      for (uint32_t rep = 0; rep < BenchRepeats(); ++rep) {
        Stopwatch watch;
        const auto cg = BuildConflictAdjacency(graph, bitmap, cands, kK,
                                               ConflictBuild::kBallWalk, p);
        const double ms = watch.ElapsedMillis();
        *edges = cg.edges;
        if (best_ms < 0.0 || ms < best_ms) best_ms = ms;
      }
      return best_ms;
    };
    uint64_t edges_serial = 0, edges_pool = 0;
    const double serial_ms = time_build(nullptr, &edges_serial);
    const double pooled_ms = time_build(&pool, &edges_pool);
    KTG_CHECK(edges_serial == edges_pool);
    PrintRow({std::to_string(n), Fmt(serial_ms), Fmt(pooled_ms),
              Fmt(serial_ms / pooled_ms) + "x", std::to_string(edges_serial)},
             widths);
    Metrics()
        .gauge("kernel.bench.conflict_pool_ms.c" + std::to_string(n))
        .Set(pooled_ms);
    Metrics()
        .gauge("kernel.bench.conflict_pool_speedup.c" + std::to_string(n))
        .Set(serial_ms / pooled_ms);
  }
}

}  // namespace
}  // namespace ktg::bench

int main(int argc, char** argv) {
  ktg::bench::ConsumeThreadsFlag(&argc, argv);
  ktg::bench::InstallBenchSignalFlush("bench_kernels");
  ktg::bench::ConsumeRepeatFlag(&argc, argv);
  ktg::bench::BenchWordKernels();
  ktg::bench::BenchConflictConstruction();
  ktg::bench::BenchPooledConflictBuild();
  ktg::bench::WriteMetricsSidecar("bench_kernels");
  return 0;
}
