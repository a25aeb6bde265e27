// Copyright (c) 2026 The ktg Authors.
// Mixed read/write serving throughput for ktgd's epoch-snapshot layer.
//
// In-process: reads go through KtgServer::SubmitQuery (queue, batching,
// per-epoch pinned engine runs, cache) and writes through the typed
// KtgServer::Apply writer path, so the numbers isolate snapshot publishing
// from socket transport. Two sweeps — a read-mostly 95/5 mix and an
// adversarial 50/50 mix — each over a fixed slot budget whose write slots
// are chosen by the same deterministic hash the loadgen uses. Driver
// threads interleave reads and writes, so every publish races live pinned
// readers, exactly the regime docs/concurrency.md argues about.
//
// Reported per mix: completed read QPS, snapshot-publish latency
// (mean/p95 over ApplyInfo.publish_ms), mean affected vertices per batch,
// and the reader-drain histogram + retired/reclaimed counters from the
// server's snapshot.* metrics. Everything lands in the sidecar as
// server.mixed.<pct>.* gauges.

#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.h"
#include "datagen/mutation_gen.h"
#include "server/server.h"
#include "util/executor.h"
#include "util/percentiles.h"
#include "util/rng.h"
#include "util/timer.h"

namespace ktg::bench {
namespace {

constexpr size_t kSlots = 2000;
constexpr size_t kCacheMb = 32;
constexpr uint32_t kDrivers = 4;
constexpr uint64_t kSeed = 17;

bool IsWriteSlot(uint64_t slot, double ratio) {
  const uint64_t h = Mix64(kSeed ^ (slot * 0x9E3779B97F4A7C15ULL));
  return static_cast<double>(h >> 11) * 0x1.0p-53 < ratio;
}

struct MixResult {
  uint64_t reads = 0;
  uint64_t writes = 0;
  double wall_s = 0;
  std::vector<double> publish_ms;
  double affected_mean = 0;
  uint64_t reclaimed = 0;
  double drain_p95_ms = 0;
};

MixResult RunMix(BenchDataset& dataset, const std::vector<KtgQuery>& queries,
                 double write_ratio) {
  // Enough batches that no write slot ever runs dry.
  MutationWorkloadOptions mopts;
  mopts.num_batches = static_cast<uint32_t>(kSlots * write_ratio) + 8;
  mopts.edges_per_batch = 3;
  mopts.keywords_per_batch = 1;
  Rng rng(kSeed);
  const std::vector<MutationBatch> mutations =
      GenerateMutationWorkload(dataset.graph(), mopts, rng);

  server::ServerOptions sopts;
  sopts.workers = std::max(1u, ResolveThreads(0) / 2);
  sopts.max_queue = kSlots;
  sopts.cache_mb = kCacheMb;
  sopts.build_threads = 0;
  server::KtgServer server(dataset.graph(), sopts);
  const Status st = server.Start();
  KTG_CHECK_MSG(st.ok(), st.ToString().c_str());

  MixResult result;
  std::mutex mu;
  std::condition_variable done_cv;
  size_t reads_done = 0;
  size_t reads_sent = 0;
  std::atomic<uint64_t> next{0};
  std::atomic<uint64_t> next_mutation{0};
  uint64_t affected_total = 0;

  Stopwatch watch;
  std::vector<std::thread> drivers;
  for (uint32_t d = 0; d < kDrivers; ++d) {
    drivers.emplace_back([&] {
      for (;;) {
        const uint64_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= kSlots) return;
        const uint64_t mi = IsWriteSlot(i, write_ratio)
                                ? next_mutation.fetch_add(1)
                                : mutations.size();
        if (mi < mutations.size()) {
          auto info = server.Apply(mutations[mi]);
          KTG_CHECK_MSG(info.ok(), info.status().ToString().c_str());
          std::lock_guard<std::mutex> lock(mu);
          result.writes++;
          result.publish_ms.push_back(info->publish_ms);
          affected_total += info->affected_vertices;
        } else {
          {
            std::lock_guard<std::mutex> lock(mu);
            reads_sent++;
          }
          server.SubmitQuery(i, queries[i % queries.size()],
                             SortStrategy::kVkcDeg, /*deadline_ms=*/0.0,
                             [&](std::string) {
                               std::lock_guard<std::mutex> lock(mu);
                               if (++reads_done == reads_sent) {
                                 done_cv.notify_one();
                               }
                             });
        }
      }
    });
  }
  for (std::thread& t : drivers) t.join();
  {
    std::unique_lock<std::mutex> lock(mu);
    done_cv.wait(lock, [&] { return reads_done == reads_sent; });
    result.reads = reads_done;
  }
  result.wall_s = watch.ElapsedSeconds();
  server.Stop();

  result.affected_mean =
      result.writes > 0
          ? static_cast<double>(affected_total) / result.writes
          : 0.0;
  result.reclaimed = server.metrics().CounterValue("snapshot.reclaimed");
  result.drain_p95_ms =
      server.metrics().histogram("snapshot.reader_drain_ms").Quantile(0.95);
  return result;
}

void RunMixedWorkload() {
  BenchDataset& dataset = BenchDataset::Get("gowalla");
  const std::vector<KtgQuery> queries =
      MakeWorkload(dataset, kDefaultP, kDefaultK, kDefaultWq, kDefaultN);
  if (queries.empty()) {
    std::fprintf(stderr, "[bench] empty workload, nothing to serve\n");
    return;
  }

  PrintHeader("ktgd mixed read/write: epoch publishes under live readers",
              dataset.Summary() + "  slots=" + std::to_string(kSlots) +
                  "  drivers=" + std::to_string(kDrivers));
  const std::vector<int> widths = {8, 8, 8, 10, 11, 11, 11, 10};
  PrintRow({"mix", "reads", "writes", "read-qps", "pub-mean", "pub-p95",
            "affected", "drain-p95"},
           widths);

  for (const double ratio : {0.05, 0.5}) {
    const MixResult r = RunMix(dataset, queries, ratio);
    const double qps =
        r.wall_s > 0 ? static_cast<double>(r.reads) / r.wall_s : 0.0;
    double pub_mean = 0;
    for (const double v : r.publish_ms) pub_mean += v;
    if (!r.publish_ms.empty()) {
      pub_mean /= static_cast<double>(r.publish_ms.size());
    }
    const double pub_p95 = Percentile(r.publish_ms, 0.95);

    const std::string prefix =
        "server.mixed." + std::to_string(static_cast<int>(ratio * 100));
    Metrics().gauge(prefix + ".read_qps").Set(qps);
    Metrics().gauge(prefix + ".publish_ms_mean").Set(pub_mean);
    Metrics().gauge(prefix + ".publish_ms_p95").Set(pub_p95);
    Metrics().gauge(prefix + ".affected_per_batch").Set(r.affected_mean);
    Metrics().gauge(prefix + ".reader_drain_p95_ms").Set(r.drain_p95_ms);
    Metrics().gauge(prefix + ".reclaimed").Set(
        static_cast<double>(r.reclaimed));

    PrintRow({Fmt(ratio, 2), std::to_string(r.reads),
              std::to_string(r.writes), Fmt(qps, 0), Fmt(pub_mean, 2),
              Fmt(pub_p95, 2), Fmt(r.affected_mean, 1),
              Fmt(r.drain_p95_ms, 2)},
             widths);
  }
  std::printf(
      "\npub-* is ApplyInfo.publish_ms (batch entry to epoch publish);\n"
      "affected is the mean affected-vertex set per batch; drain-p95 is\n"
      "the server's snapshot.reader_drain_ms histogram (observation-lag\n"
      "bounded — retired epochs are noticed at the next sweep).\n");
}

}  // namespace
}  // namespace ktg::bench

int main(int argc, char** argv) {
  ktg::bench::ConsumeThreadsFlag(&argc, argv);
  ktg::bench::InstallBenchSignalFlush("bench_mixed_workload");
  ktg::bench::RunMixedWorkload();
  ktg::bench::WriteMetricsSidecar("bench_mixed_workload");
  return 0;
}
