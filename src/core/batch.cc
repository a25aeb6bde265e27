// Copyright (c) 2026 The ktg Authors.

#include "core/batch.h"

#include <atomic>

#include "cache/caching_checker.h"
#include "cache/ktg_cache.h"
#include "core/obs_bridge.h"
#include "util/executor.h"

namespace ktg {

Result<BatchResult> RunKtgBatch(const AttributedGraph& graph,
                                const InvertedIndex& index,
                                const CheckerFactory& checker_factory,
                                const std::vector<KtgQuery>& queries,
                                BatchOptions options) {
  if (!checker_factory) {
    return Status::InvalidArgument("checker_factory must be callable");
  }
  // Validate everything up front so no worker can fail mid-flight.
  for (const auto& q : queries) {
    KTG_RETURN_IF_ERROR(ValidateQuery(q, graph));
  }

  BatchResult batch;
  batch.results.resize(queries.size());
  if (queries.empty()) return batch;

  const uint32_t workers =
      std::min<uint32_t>(ResolveThreads(options.threads),
                         static_cast<uint32_t>(queries.size()));

  // With a cache attached, every worker's checker is wrapped so its ball
  // tier is consulted (and warmed) before any traversal. The wrapper is
  // stateful, so it is per-worker; the KtgCache behind it is shared. Note
  // the trade-off: a wrapped checker is not concurrent_read_safe, so
  // within-query root parallelism (EngineOptions::num_threads > 1) falls
  // back to serial — across-query parallelism (options.threads) is where a
  // shared cache pays off.
  auto make_checker = [&]() -> std::unique_ptr<DistanceChecker> {
    auto checker = checker_factory();
    if (checker == nullptr) return nullptr;
    return MaybeWrapWithCache(std::move(checker), graph.graph(),
                              options.engine.cache);
  };

  // Build every checker serially first (factories may share caches), one
  // per worker id, so each worker owns a dedicated checker.
  std::vector<std::unique_ptr<DistanceChecker>> checkers;
  checkers.reserve(workers);
  for (uint32_t w = 0; w < workers; ++w) {
    checkers.push_back(make_checker());
    KTG_CHECK_MSG(checkers.back() != nullptr, "checker_factory returned null");
  }

  std::atomic<size_t> next{0};
  RunWorkers(workers, [&](uint32_t worker_id) {
    KtgEngine engine(graph, index, *checkers[worker_id], options.engine);
    while (true) {
      const size_t i = next.fetch_add(1);
      if (i >= queries.size()) break;
      auto r = engine.Run(queries[i]);
      // Queries were pre-validated; Run can only fail on validation.
      KTG_CHECK_MSG(r.ok(), r.status().ToString().c_str());
      batch.results[i] = std::move(r).value();
    }
  });

  std::vector<double> latencies;
  latencies.reserve(batch.results.size());
  for (const auto& r : batch.results) {
    latencies.push_back(r.stats.elapsed_ms);
    // Note the merge semantics: totals.elapsed_ms becomes the slowest
    // query (queries overlap across workers), totals.cpu_ms the summed
    // compute — batch.latency carries the full per-query distribution.
    batch.totals += r.stats;
  }
  batch.latency = LatencySummary::FromSamples(latencies);
  if (options.engine.metrics != nullptr) {
    // Per-query engine counters were flushed by each Run() under "engine";
    // the batch view adds the latency distribution and job size.
    obs::MetricsRegistry& m = *options.engine.metrics;
    m.counter("batch.jobs").Add(1);
    m.counter("batch.queries").Add(batch.results.size());
    obs::Histogram& h = m.histogram("batch.query_ms");
    for (const double ms : latencies) h.Record(ms);
    if (options.engine.cache != nullptr) {
      options.engine.cache->ExportMetrics(m);
    }
  }
  return batch;
}

}  // namespace ktg
