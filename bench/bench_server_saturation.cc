// Copyright (c) 2026 The ktg Authors.
// QPS-vs-workers saturation curve for the resident query service (ktgd).
//
// In-process: requests go straight into KtgServer::SubmitQuery, so the
// numbers isolate the serving layer (queue, batching, per-worker engine
// runs, cache) from socket transport. For each worker count the same
// request stream is played twice against one server instance — the first
// pass is cold (result cache empty), the second warm — so the table
// shows both the scaling curve and the cache's contribution at every
// point. Requests draw from a small workload round-robin, the repeat-heavy
// regime the query-result tier is built for.
//
// Results land in the console table and, as gauges
// (server.saturation.w<N>.{cold,warm}_qps), in the metrics sidecar.

#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

#include "bench/common.h"
#include "server/server.h"
#include "util/executor.h"
#include "util/timer.h"

namespace ktg::bench {
namespace {

constexpr size_t kRequestsPerPass = 2000;
constexpr size_t kCacheMb = 32;

/// Submits `total` requests round-robin over `queries` and blocks until
/// every response callback has fired. Returns the wall seconds of the
/// whole pass.
double RunPass(server::KtgServer& server, const std::vector<KtgQuery>& queries,
               size_t total) {
  std::mutex mu;
  std::condition_variable done_cv;
  size_t done = 0;
  Stopwatch watch;
  for (size_t i = 0; i < total; ++i) {
    server.SubmitQuery(i, queries[i % queries.size()], SortStrategy::kVkcDeg,
                       /*deadline_ms=*/0.0, [&](std::string) {
                         std::lock_guard<std::mutex> lock(mu);
                         if (++done == total) done_cv.notify_one();
                       });
  }
  std::unique_lock<std::mutex> lock(mu);
  done_cv.wait(lock, [&] { return done == total; });
  return watch.ElapsedSeconds();
}

void RunSaturation() {
  BenchDataset& dataset = BenchDataset::Get("gowalla");
  const std::vector<KtgQuery> queries =
      MakeWorkload(dataset, kDefaultP, kDefaultK, kDefaultWq, kDefaultN);
  if (queries.empty()) {
    std::fprintf(stderr, "[bench] empty workload, nothing to serve\n");
    return;
  }

  const uint32_t hw = ResolveThreads(0);
  std::vector<uint32_t> worker_counts;
  for (uint32_t w = 1; w < hw; w *= 2) worker_counts.push_back(w);
  worker_counts.push_back(hw);

  PrintHeader("ktgd saturation: QPS vs worker threads",
              dataset.Summary() + "  requests/pass=" +
                  std::to_string(kRequestsPerPass));
  const std::vector<int> widths = {9, 12, 12, 9, 12};
  PrintRow({"workers", "cold-qps", "warm-qps", "warm-x", "coalesced"},
           widths);

  for (const uint32_t w : worker_counts) {
    server::ServerOptions sopts;
    sopts.workers = w;
    // Throughput run: admit everything, let the batcher see deep queues.
    sopts.max_queue = kRequestsPerPass;
    sopts.cache_mb = kCacheMb;
    sopts.build_threads = 0;
    server::KtgServer server(dataset.graph(), sopts);
    const Status st = server.Start();
    KTG_CHECK_MSG(st.ok(), st.ToString().c_str());

    const double cold_s = RunPass(server, queries, kRequestsPerPass);
    const double warm_s = RunPass(server, queries, kRequestsPerPass);
    server.Stop();

    const double cold_qps =
        cold_s > 0 ? static_cast<double>(kRequestsPerPass) / cold_s : 0.0;
    const double warm_qps =
        warm_s > 0 ? static_cast<double>(kRequestsPerPass) / warm_s : 0.0;
    const uint64_t coalesced =
        server.metrics().counter("server.batch.coalesced").value();

    const std::string prefix = "server.saturation.w" + std::to_string(w);
    Metrics().gauge(prefix + ".cold_qps").Set(cold_qps);
    Metrics().gauge(prefix + ".warm_qps").Set(warm_qps);

    PrintRow({std::to_string(w), Fmt(cold_qps, 0), Fmt(warm_qps, 0),
              Fmt(cold_qps > 0 ? warm_qps / cold_qps : 0.0, 2),
              std::to_string(coalesced)},
             widths);
  }
  std::printf(
      "\ncold fills the cache, warm replays the same stream against it;\n"
      "warm-x is the warm/cold QPS ratio. coalesced counts requests\n"
      "answered by another request's engine run (both passes).\n");
}

}  // namespace
}  // namespace ktg::bench

int main(int argc, char** argv) {
  ktg::bench::ConsumeThreadsFlag(&argc, argv);
  ktg::bench::InstallBenchSignalFlush("bench_server_saturation");
  ktg::bench::RunSaturation();
  ktg::bench::WriteMetricsSidecar("bench_server_saturation");
  return 0;
}
