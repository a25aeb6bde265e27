// Copyright (c) 2026 The ktg Authors.
// Glue between the engines' per-run counters and the obs layer.
//
// Engines accumulate SearchStats locally during a run (no shared-state
// writes on the hot path) and flush once at the end through these helpers,
// so an attached MetricsRegistry sees exactly the counters the result
// carries — the two can be cross-checked field by field, which the metrics
// wiring test does.

#ifndef KTG_CORE_OBS_BRIDGE_H_
#define KTG_CORE_OBS_BRIDGE_H_

#include <string_view>

#include "core/query.h"
#include "index/distance_checker.h"
#include "obs/metrics.h"

namespace ktg {

/// Flushes one run's SearchStats into `metrics` (no-op when null) under
/// `prefix` ("engine", "greedy", "dktg"): counters
/// <prefix>.queries/.candidates/.nodes_expanded/.groups_completed/
/// .prune.keyword/.prune.ub/.prune.kline/.distance_checks, histograms
/// <prefix>.query_ms/.cpu_ms, and phase.<name>_ms histograms for every
/// phase the run spent time in.
void RecordSearchStats(obs::MetricsRegistry* metrics, const SearchStats& stats,
                       std::string_view prefix);

/// Flushes the anytime-layer view of one budgeted or anytime run (no-op when
/// `metrics` is null): counters search.anytime.runs / .truncated (runs whose
/// budget cut the search) / .optimal (runs whose reported gap closed to 0) /
/// .seeded (warm-start groups offered), histograms search.anytime.gap and
/// search.anytime.upper_bound. Engines call it for every run whose mode is
/// not kExact or that carried a node/time budget.
void RecordAnytimeStats(obs::MetricsRegistry* metrics,
                        const SearchStats& stats, bool complete,
                        size_t seeded);

/// Snapshot of a checker's counters, for delta attribution around a run.
struct CheckerCounters {
  uint64_t checks = 0;
  uint64_t farther = 0;
  uint64_t within = 0;
  uint64_t probes = 0;
};

CheckerCounters SnapshotChecker(const DistanceChecker& checker);

/// Flushes the delta since `before` into counters
/// checker.<name>.checks/.farther/.within/.probes and gauge
/// checker.<name>.memory_bytes. No-op when `metrics` is null.
void RecordCheckerDelta(obs::MetricsRegistry* metrics,
                        DistanceChecker& checker,
                        const CheckerCounters& before);

}  // namespace ktg

#endif  // KTG_CORE_OBS_BRIDGE_H_
