// Copyright (c) 2026 The ktg Authors.
// google-benchmark microbenchmarks for the distance-check substrate: the
// per-call cost of IsFartherThan under each checker and k, plus index
// construction. These are the per-operation numbers behind the Figure 3-7
// latency gaps.

#include <benchmark/benchmark.h>

#include <vector>

#include "bench/common.h"
#include "graph/graph.h"
#include "index/nl_index.h"
#include "index/nlrnl_index.h"
#include "util/rng.h"

namespace ktg::bench {
namespace {

// Pre-drawn random vertex pairs shared by every checker benchmark so all
// measurements answer the identical query stream.
const std::vector<std::pair<VertexId, VertexId>>& QueryPairs(
    const Graph& graph) {
  static std::vector<std::pair<VertexId, VertexId>> pairs = [&] {
    Rng rng(0xF00D);
    std::vector<std::pair<VertexId, VertexId>> out;
    out.reserve(4096);
    for (int i = 0; i < 4096; ++i) {
      out.emplace_back(static_cast<VertexId>(rng.Below(graph.num_vertices())),
                       static_cast<VertexId>(rng.Below(graph.num_vertices())));
    }
    return out;
  }();
  return pairs;
}

void BM_DistanceCheck(benchmark::State& state) {
  const auto kind = static_cast<CheckerKind>(state.range(0));
  const auto k = static_cast<HopDistance>(state.range(1));
  BenchDataset& ds = BenchDataset::Get("gowalla");
  DistanceChecker& checker = ds.Checker(kind);
  const auto& pairs = QueryPairs(ds.graph().graph());

  size_t i = 0;
  uint64_t farther = 0;
  for (auto _ : state) {
    const auto& [u, v] = pairs[i++ & 4095];
    farther += checker.IsFartherThan(u, v, k);
  }
  benchmark::DoNotOptimize(farther);
  state.SetLabel(std::string(CheckerKindName(kind)) + "/k=" +
                 std::to_string(k));
}

// The build benchmarks honor --threads / KTG_BENCH_THREADS so the parallel
// construction speedup is measurable directly (compare --threads 1 vs N).
void BM_NlIndexBuild(benchmark::State& state) {
  BenchDataset& ds = BenchDataset::GetScaled("brightkite", 0.5);
  NlIndexOptions options;
  options.num_threads = BenchThreads();
  for (auto _ : state) {
    NlIndex index(ds.graph().graph(), options);
    benchmark::DoNotOptimize(index.MemoryBytes());
  }
}

void BM_NlrnlIndexBuild(benchmark::State& state) {
  BenchDataset& ds = BenchDataset::GetScaled("brightkite", 0.5);
  NlrnlIndexOptions options;
  options.num_threads = BenchThreads();
  for (auto _ : state) {
    NlrnlIndex index(ds.graph().graph(), options);
    benchmark::DoNotOptimize(index.MemoryBytes());
  }
}

}  // namespace
}  // namespace ktg::bench

BENCHMARK(ktg::bench::BM_DistanceCheck)
    ->ArgsProduct({{static_cast<int>(ktg::CheckerKind::kBfs),
                    static_cast<int>(ktg::CheckerKind::kNl),
                    static_cast<int>(ktg::CheckerKind::kNlrnl)},
                   {1, 2, 4}});
BENCHMARK(ktg::bench::BM_NlIndexBuild)->Unit(benchmark::kMillisecond);
BENCHMARK(ktg::bench::BM_NlrnlIndexBuild)->Unit(benchmark::kMillisecond);

// Expanded BENCHMARK_MAIN so --threads can be consumed before
// google-benchmark sees (and rejects) unknown flags.
int main(int argc, char** argv) {
  ktg::bench::ConsumeThreadsFlag(&argc, argv);
  ktg::bench::InstallBenchSignalFlush("bench_micro_index");
  ktg::bench::ConsumeRepeatFlag(&argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  ktg::bench::WriteMetricsSidecar("bench_micro_index");
  return 0;
}
