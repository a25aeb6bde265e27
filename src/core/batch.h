// Copyright (c) 2026 The ktg Authors.
// Batch query execution with optional parallelism.
//
// The paper's evaluation methodology is "run a group of queries, report
// the average"; BatchRunner packages that (and the serving-system view of
// it) as a library feature: a fixed set of queries executed across worker
// threads, each worker owning its own DistanceChecker (checkers carry
// per-search scratch and are not thread-safe), with a latency digest at
// the end. Results come back in query order regardless of scheduling.

#ifndef KTG_CORE_BATCH_H_
#define KTG_CORE_BATCH_H_

#include <functional>
#include <memory>
#include <vector>

#include "core/ktg_engine.h"
#include "core/options.h"
#include "core/query.h"
#include "index/distance_checker.h"
#include "keywords/attributed_graph.h"
#include "keywords/inverted_index.h"
#include "util/percentiles.h"
#include "util/status.h"

namespace ktg {

/// Creates one DistanceChecker per worker; must be thread-safe itself
/// (workers call it once at startup, serialized by the runner).
using CheckerFactory = std::function<std::unique_ptr<DistanceChecker>()>;

/// Knobs for batch execution.
struct BatchOptions {
  EngineOptions engine;
  /// Worker threads across queries (1 = run inline on the calling thread,
  /// 0 = the CPUs the calling thread may run on). Each worker owns a
  /// private checker from the factory; this is independent of
  /// EngineOptions::num_threads, which parallelizes within a single query.
  uint32_t threads = 1;
};

/// Outcome of a batch run.
struct BatchResult {
  /// Per-query results, in the order the queries were supplied.
  std::vector<KtgResult> results;
  /// Digest over per-query wall-clock latencies (ms).
  LatencySummary latency;
  /// Aggregate search counters.
  SearchStats totals;
};

/// Executes `queries` against the graph with `options.threads` workers.
/// Returns the first query error encountered (queries are validated up
/// front, so malformed input fails before any work starts).
Result<BatchResult> RunKtgBatch(const AttributedGraph& graph,
                                const InvertedIndex& index,
                                const CheckerFactory& checker_factory,
                                const std::vector<KtgQuery>& queries,
                                BatchOptions options = {});

}  // namespace ktg

#endif  // KTG_CORE_BATCH_H_
