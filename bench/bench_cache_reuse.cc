// Copyright (c) 2026 The ktg Authors.
// Warm-vs-cold batch throughput with the cross-query cache (src/cache/).
//
// Unlike the figure benches this one does not reproduce a paper plot; it
// measures the serving-system win of caching across query batches. Each
// dataset gets a Zipf-skewed workload (hot keywords repeat across
// queries). Three conditions per dataset, all BFS-checker (index-free, so
// distance work dominates and the cache has something to save):
//
//   off        cache disabled
//   cold       fresh cache, first batch (all fills, shows overhead vs off)
//   warm-rep   the same batch repeated on the warm cache (result hits)
//
// Acceptance: warm-rep >= 2x faster than cold; off within noise of cold.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/common.h"
#include "cache/ktg_cache.h"
#include "core/batch.h"
#include "datagen/query_gen.h"
#include "index/bfs_checker.h"
#include "util/macros.h"
#include "util/rng.h"
#include "util/timer.h"

namespace ktg::bench {
namespace {

constexpr double kZipfExponent = 0.9;
constexpr size_t kCacheMb = 32;
constexpr uint64_t kMasterSeed = 0xCAC4E0DULL;

uint64_t DatasetSalt(const std::string& name) {
  uint64_t h = kMasterSeed;
  for (const char c : name) h = Mix64(h ^ static_cast<uint64_t>(c));
  return h;
}

std::vector<KtgQuery> ZipfBatch(const BenchDataset& dataset, uint32_t count) {
  WorkloadOptions opts;
  opts.num_queries = count;
  opts.keyword_count = kDefaultWq;
  opts.group_size = kDefaultP;
  opts.tenuity = kDefaultK;
  opts.top_n = kDefaultN;
  opts.keyword_zipf = kZipfExponent;
  opts.frequency_banded = false;
  Rng rng(DatasetSalt(dataset.name()));
  return GenerateWorkload(dataset.graph(), opts, rng);
}

/// Average ms per query for one batch; `cache` may be null (cache off).
double TimedBatch(const BenchDataset& dataset,
                  const std::vector<KtgQuery>& queries, KtgCache* cache) {
  BatchOptions bopts;
  bopts.threads = BenchThreads();
  bopts.engine.metrics = &Metrics();
  bopts.engine.cache = cache;
  const Stopwatch timer;
  const auto batch = RunKtgBatch(
      dataset.graph(), dataset.index(),
      [&] { return std::make_unique<BfsChecker>(dataset.graph().graph()); },
      queries, bopts);
  const double elapsed = timer.ElapsedMillis();
  KTG_CHECK(batch.ok());
  return elapsed / static_cast<double>(queries.size());
}

void RunCacheReuse() {
  const uint32_t per_batch = BenchQueries() * 2;
  PrintHeader(
      "Cache reuse: warm vs cold batch latency",
      "Zipf(" + Fmt(kZipfExponent) + ") workloads, " +
          std::to_string(per_batch) + " queries/batch, BFS checker, " +
          std::to_string(kCacheMb) + " MB cache; ms/query");
  const std::vector<int> widths = {12, 9, 9, 9, 8};
  PrintRow({"dataset", "off", "cold", "warm-rep", "rep-x"}, widths);

  for (const std::string preset : {"brightkite", "gowalla"}) {
    BenchDataset& dataset = BenchDataset::Get(preset);
    const auto batch = ZipfBatch(dataset, per_batch);

    const double off_ms = TimedBatch(dataset, batch, nullptr);

    KtgCache cache(CacheOptionsForMb(kCacheMb));
    const double cold_ms = TimedBatch(dataset, batch, &cache);
    const double warm_rep_ms = TimedBatch(dataset, batch, &cache);

    PrintRow({dataset.name(), Fmt(off_ms, 3), Fmt(cold_ms, 3),
              Fmt(warm_rep_ms, 3),
              Fmt(warm_rep_ms > 0 ? cold_ms / warm_rep_ms : 0.0, 1)},
             widths);
  }
  std::printf(
      "\nwarm-rep replays the cold batch (result-tier hits); rep-x is its\n"
      "speedup over the cold batch; acceptance wants rep-x >= 2.\n");
}

}  // namespace
}  // namespace ktg::bench

int main(int argc, char** argv) {
  ktg::bench::ConsumeThreadsFlag(&argc, argv);
  ktg::bench::InstallBenchSignalFlush("bench_cache_reuse");
  ktg::bench::ConsumeRepeatFlag(&argc, argv);
  ktg::bench::RunCacheReuse();
  ktg::bench::WriteMetricsSidecar("bench_cache_reuse");
  return 0;
}
