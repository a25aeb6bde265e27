// The benchmark's own arithmetic: the percentile rule, the clocks,
// failure accounting, in-memory spans with self time, and the one-line
// result document. It needs nothing of ktg but the JSON writer, so
// tests/harness_test.cc can pin it down on its own.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <time.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Median with linear interpolation between the two middle order
/// statistics; 0 for an empty sample.
double Median(std::vector<double> samples);

/// Arithmetic mean; 0 for an empty sample.
double Mean(const std::vector<double>& samples);

/// A tail percentile as the benchmark reports it: `value` is the sample at
/// percentile `q` (in [0, 1]) of `n` samples.
struct TailPercentile {
  double value = 0.0;
  double q = 0.0;
  size_t n = 0;
};

/// The reporting rule for a tail timing: the p99 when the run holds at
/// least 1000 samples, otherwise the highest percentile that still has at
/// least 10 samples beyond it (so the reported figure never rests on fewer
/// than 10 observations). Nearest-rank on the sorted sample: index
/// ceil(q*n)-1 for the p99, index n-11 for the fallback, whose q is
/// (n-10)/n. With 10 or fewer samples no percentile qualifies and the
/// maximum is returned with q = 1.
TailPercentile TailRule(std::vector<double> samples);

/// Attempt accounting shared by every workload. Every attempt ends in
/// exactly one of ok / error / rejected / timeout; validation failures are
/// found later and may hit an ok attempt, so they are counted on top.
struct FailureTally {
  uint64_t attempted = 0;
  uint64_t errors = 0;     ///< error responses, broken connections
  uint64_t rejected = 0;   ///< admission-control rejections
  uint64_t timeouts = 0;   ///< deadline expiry or truncated searches
  uint64_t invalid = 0;    ///< ok answers the correctness gate refused

  /// Attempts that did not yield a correct answer, capped at attempted.
  uint64_t failed() const;
  /// failed() / attempted (0 when nothing was attempted).
  double failed_frac() const;
  FailureTally& operator+=(const FailureTally& o);
};

/// One span: a named interval on one thread. `parent` indexes the same
/// log (-1 for a root); spans of one request share `request`.
struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;
  uint64_t request = 0;
};

/// Monotonic nanoseconds since an arbitrary process-wide origin.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU time consumed so far by every thread of the process, in
/// nanoseconds. On a KVM guest with steal-time accounting this clock does
/// not advance while the hypervisor runs another tenant on the vCPU, nor
/// while another process holds the CPU; with every thread of a run on one
/// CPU that never idles, it reads the wall time the run would take on a
/// CPU of its own. The end-to-end timings use it (see README.md).
inline int64_t CpuNs() {
  timespec ts;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return int64_t{ts.tv_sec} * 1'000'000'000 + ts.tv_nsec;
}

/// Spans of one thread, kept in memory until the run ends. Not
/// thread-safe: give each thread its own log and merge afterwards.
class SpanLog {
 public:
  /// Opens a span starting now; returns its index for End().
  int32_t Begin(const char* name, uint64_t request, int32_t parent = -1);
  void End(int32_t index);
  /// Records a span whose bounds are already known.
  int32_t Add(const char* name, int64_t start_ns, int64_t end_ns,
              uint64_t request, int32_t parent = -1);
  const std::vector<Span>& spans() const { return spans_; }
  void Reserve(size_t n) { spans_.reserve(n); }

 private:
  std::vector<Span> spans_;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by the union of its children (children clipped to the parent;
/// overlapping children are counted once).
std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans);

/// Per-name totals over a log: span count and summed self time.
struct NameTotals {
  uint64_t count = 0;
  int64_t self_ns = 0;
};
std::map<std::string, NameTotals> SelfTimeByName(
    const std::vector<Span>& spans);

/// Self times of the spans named `name`, in milliseconds.
std::vector<double> SelfTimesMs(const std::vector<Span>& spans,
                                const char* name);

/// Writes `spans` as tab-separated lines (thread, index, name, start_ns,
/// end_ns, parent, request); false on I/O failure.
bool WriteSpans(const std::string& path,
                const std::vector<std::vector<Span>>& per_thread);

/// A reported metric.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The final line of a run: {"correct", "attempted", "failed", "metrics"}.
std::string ResultLine(bool correct, const FailureTally& tally,
                       const std::vector<Metric>& metrics);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
