// Copyright (c) 2026 The ktg Authors.
// A thread-safe metrics registry: named counters, gauges and log-scale
// histograms, exportable as JSON.
//
// Design constraints, in order:
//   1. Updates must be safe from parallel workers (relaxed atomics; counter
//      increments are exact, never sampled or lossy).
//   2. Hot loops must not pay for the registry: callers resolve a metric
//      once (one mutex-protected map lookup) and then touch only the
//      returned object, whose address is stable for the registry's
//      lifetime.
//   3. No third-party dependency: export reuses util/json_writer.h and the
//      percentile conventions of util/percentiles.h.
//
// The schema written by WriteJson is documented in docs/observability.md
// and versioned via the top-level "schema" key ("ktg.metrics.v1").

#ifndef KTG_OBS_METRICS_H_
#define KTG_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#include "util/align.h"
#include "util/json_writer.h"
#include "util/percentiles.h"

namespace ktg::obs {

/// A monotonically increasing 64-bit counter. Exact under concurrency.
/// Cache-line aligned: counters are individually heap-allocated by the
/// registry, and without the alignment two hot counters can land on one
/// line and false-share across threads. (Search hot loops still must not
/// touch counters per node — the engines accumulate locally and flush once
/// per run; the alignment protects the per-request paths like the server's.)
class alignas(kCacheLineBytes) Counter {
 public:
  void Add(uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// A last-write-wins double. Set/value are atomic but not read-modify-write;
/// use a Counter for anything that accumulates. Aligned for the same
/// false-sharing reason as Counter.
class alignas(kCacheLineBytes) Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// A log-scale histogram for positive values (latencies in ms, sizes).
///
/// Buckets grow by powers of two from kMinValue: bucket 0 holds values
/// <= kMinValue, bucket i holds (kMinValue*2^(i-1), kMinValue*2^i]. The
/// count per bucket is exact; quantiles are estimated by log-linear
/// interpolation inside the selected bucket, so estimates carry at most a
/// factor-sqrt(2) relative error — plenty for latency reporting, constant
/// memory regardless of sample volume.
class Histogram {
 public:
  static constexpr int kNumBuckets = 64;
  static constexpr double kMinValue = 1e-6;  // 1 ns when recording ms

  /// Records one sample. Non-positive values land in bucket 0.
  void Record(double value);

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const;
  double min() const;
  double max() const;

  /// Estimated q-quantile (q in [0,1]); 0 when empty.
  double Quantile(double q) const;

  /// Digest in the same shape the exact-sample path uses
  /// (util/percentiles.h): count/mean/min/max and estimated p50/p90/p99.
  LatencySummary Summary() const;

 private:
  std::atomic<uint64_t> buckets_[kNumBuckets] = {};
  std::atomic<uint64_t> count_{0};
  // Sum/min/max are doubles maintained with CAS loops (no atomic<double>
  // fetch_add until C++26); contention is per-histogram and low.
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{std::numeric_limits<double>::infinity()};
  std::atomic<double> max_{-std::numeric_limits<double>::infinity()};
};

/// Owner of named metrics. Lookup is mutex-protected; returned references
/// stay valid (and lock-free to update) for the registry's lifetime.
class MetricsRegistry {
 public:
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  /// Value of a counter, or 0 when it was never created (test/export aid).
  uint64_t CounterValue(std::string_view name) const;

  /// Emits {"schema":"ktg.metrics.v1","counters":{...},"gauges":{...},
  /// "histograms":{name:{count,mean,min,max,p50,p90,p99,sum}}}.
  void WriteJson(JsonWriter& w) const;
  std::string ToJson() const;

 private:
  mutable std::mutex mu_;
  // node-based maps: element addresses survive rehash/insert.
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

}  // namespace ktg::obs

#endif  // KTG_OBS_METRICS_H_
