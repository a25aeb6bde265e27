// Copyright (c) 2026 The ktg Authors.

#include "core/obs_bridge.h"

#include <string>

namespace ktg {

void RecordSearchStats(obs::MetricsRegistry* metrics, const SearchStats& stats,
                       std::string_view prefix) {
  if (metrics == nullptr) return;
  const std::string p(prefix);
  metrics->counter(p + ".queries").Add(1);
  metrics->counter(p + ".candidates").Add(stats.candidates);
  metrics->counter(p + ".nodes_expanded").Add(stats.nodes_expanded);
  metrics->counter(p + ".groups_completed").Add(stats.groups_completed);
  metrics->counter(p + ".prune.keyword").Add(stats.keyword_prunes);
  metrics->counter(p + ".prune.ub").Add(stats.ub_prunes);
  metrics->counter(p + ".prune.kline").Add(stats.kline_filtered);
  metrics->counter(p + ".distance_checks").Add(stats.distance_checks);
  metrics->histogram(p + ".query_ms").Record(stats.elapsed_ms);
  metrics->histogram(p + ".cpu_ms").Record(stats.cpu_ms);
  for (int i = 0; i < obs::kNumPhases; ++i) {
    if (stats.phases.ms[i] <= 0.0) continue;  // phase not reached
    const auto phase = static_cast<obs::Phase>(i);
    metrics->histogram(std::string("phase.") + obs::PhaseName(phase) + "_ms")
        .Record(stats.phases.ms[i]);
  }
}

void RecordAnytimeStats(obs::MetricsRegistry* metrics,
                        const SearchStats& stats, bool complete,
                        size_t seeded) {
  if (metrics == nullptr) return;
  metrics->counter("search.anytime.runs").Add(1);
  if (!complete) metrics->counter("search.anytime.truncated").Add(1);
  if (stats.gap == 0) metrics->counter("search.anytime.optimal").Add(1);
  metrics->counter("search.anytime.seeded").Add(seeded);
  metrics->histogram("search.anytime.gap")
      .Record(static_cast<double>(stats.gap));
  if (stats.upper_bound >= 0) {
    metrics->histogram("search.anytime.upper_bound")
        .Record(static_cast<double>(stats.upper_bound));
  }
}

CheckerCounters SnapshotChecker(const DistanceChecker& checker) {
  CheckerCounters c;
  c.farther = checker.num_farther();
  c.within = checker.num_within();
  c.probes = checker.num_probes();
  return c;
}

void RecordCheckerDelta(obs::MetricsRegistry* metrics,
                        DistanceChecker& checker,
                        const CheckerCounters& before, uint64_t checks) {
  if (metrics == nullptr) return;
  const CheckerCounters now = SnapshotChecker(checker);
  const std::string p = "checker." + checker.name();
  metrics->counter(p + ".checks").Add(checks);
  metrics->counter(p + ".farther").Add(now.farther - before.farther);
  metrics->counter(p + ".within").Add(now.within - before.within);
  metrics->counter(p + ".probes").Add(now.probes - before.probes);
  metrics->gauge(p + ".memory_bytes")
      .Set(static_cast<double>(checker.MemoryBytes()));
}

}  // namespace ktg
