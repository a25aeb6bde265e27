// Checks the benchmark's own arithmetic: the tail percentile rule and its
// fallback, the reference-time factor, failure accounting, and span self
// time. Exits non-zero on the
// first failed expectation.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "calibrate.h"
#include "harness.h"

namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    std::fprintf(stderr, "FAILED: %s\n", what.c_str());
    ++failures;
  }
}

void ExpectNear(double got, double want, const std::string& what) {
  Expect(std::fabs(got - want) < 1e-9,
         what + ": got " + std::to_string(got) + ", want " +
             std::to_string(want));
}

std::vector<double> Range(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

void TestMedian() {
  ExpectNear(perfbench::Median({}), 0.0, "median of nothing");
  ExpectNear(perfbench::Median({3, 1, 2}), 2.0, "odd median");
  ExpectNear(perfbench::Median({4, 1, 3, 2}), 2.5, "even median");
}

void TestTailRule() {
  // 1000 samples or more: the nearest-rank p99.
  auto t = perfbench::TailRule(Range(1000));
  ExpectNear(t.q, 0.99, "p99 at n=1000");
  ExpectNear(t.value, 990.0, "p99 value at n=1000 leaves 10 beyond");
  t = perfbench::TailRule(Range(2000));
  ExpectNear(t.value, 1980.0, "p99 value at n=2000");
  // Fewer: the highest percentile with exactly 10 samples beyond it.
  t = perfbench::TailRule(Range(200));
  ExpectNear(t.q, 0.95, "fallback percentile at n=200");
  ExpectNear(t.value, 190.0, "fallback value at n=200");
  t = perfbench::TailRule(Range(999));
  ExpectNear(t.value, 989.0, "fallback value at n=999");
  t = perfbench::TailRule(Range(11));
  ExpectNear(t.value, 1.0, "fallback value at n=11");
  ExpectNear(t.q, 1.0 / 11.0, "fallback percentile at n=11");
  // Ten or fewer: no percentile qualifies; the maximum is reported.
  t = perfbench::TailRule(Range(10));
  ExpectNear(t.value, 10.0, "maximum at n=10");
  ExpectNear(t.q, 1.0, "q=1 at n=10");
  Expect(perfbench::TailRule({}).n == 0, "empty sample");
}

void TestSpeedFactor() {
  using perfbench::kReferenceNs;
  using perfbench::SpeedFactor;
  const std::vector<double> marks = {kReferenceNs, 2 * kReferenceNs,
                                     kReferenceNs / 2};
  // A chunk takes the mean of the marks either side of it.
  ExpectNear(SpeedFactor(marks, 0), 1.0 / 1.5, "host slowing down");
  ExpectNear(SpeedFactor(marks, 1), 1.0 / 1.25, "host speeding up");
  // Without a closing mark the opening one stands alone.
  ExpectNear(SpeedFactor(marks, 2), 2.0, "last chunk");
  ExpectNear(SpeedFactor(marks, 3), 0.0, "no such chunk");
  ExpectNear(SpeedFactor({0.0, 0.0}, 0), 0.0, "no calibration time");
}

void TestFailureTally() {
  perfbench::FailureTally t;
  ExpectNear(t.failed_frac(), 0.0, "nothing attempted");
  t.attempted = 200;
  t.errors = 1;
  t.rejected = 2;
  t.timeouts = 3;
  t.invalid = 4;
  Expect(t.failed() == 10, "failed sums every kind");
  ExpectNear(t.failed_frac(), 0.05, "failed_frac");
  perfbench::FailureTally u;
  u.attempted = 100;
  u.invalid = 500;  // one bad answer may be returned many times
  Expect(u.failed() == 100, "failed is capped at attempted");
  t += u;
  Expect(t.attempted == 300 && t.invalid == 504, "tallies add");
}

void TestSelfTime() {
  using perfbench::Span;
  std::vector<Span> spans;
  spans.push_back({"root", 0, 100, -1, 1});
  spans.push_back({"a", 10, 30, 0, 1});
  spans.push_back({"b", 20, 50, 0, 1});     // overlaps a: union 10..50
  spans.push_back({"c", 90, 130, 0, 1});    // clipped to 90..100
  spans.push_back({"a.child", 12, 18, 1, 1});
  spans.push_back({"other", 0, 7, -1, 2});
  const auto self = perfbench::SelfTimesNs(spans);
  Expect(self[0] == 100 - 40 - 10, "root minus the union of its children");
  Expect(self[1] == 20 - 6, "child minus its own child");
  Expect(self[2] == 30, "leaf keeps its duration");
  Expect(self[3] == 40, "a child's own self time is not clipped");
  Expect(self[5] == 7, "unrelated root");
  const auto by_name = perfbench::SelfTimeByName(spans);
  Expect(by_name.at("a").self_ns == 14 && by_name.at("a").count == 1,
         "per-name totals");
  const auto ms = perfbench::SelfTimesMs(spans, "root");
  Expect(ms.size() == 1 && std::fabs(ms[0] - 50e-6) < 1e-12,
         "self time in ms");
}

void TestResultLine() {
  perfbench::FailureTally t;
  t.attempted = 3;
  t.errors = 1;
  const std::string line =
      perfbench::ResultLine(true, t, {{"latency_ms", 1.25, "ms"}});
  Expect(line ==
             "{\"correct\":true,\"attempted\":3,\"failed\":1,\"metrics\":"
             "{\"latency_ms\":{\"value\":1.25,\"unit\":\"ms\"}}}",
         "result line: " + line);
}

}  // namespace

int main() {
  TestMedian();
  TestTailRule();
  TestSpeedFactor();
  TestFailureTally();
  TestSelfTime();
  TestResultLine();
  if (failures > 0) return 1;
  std::printf("harness tests passed\n");
  return 0;
}
