// Copyright (c) 2026 The ktg Authors.
// Wall-clock timing helpers for the benchmark harness and index builders.

#ifndef KTG_UTIL_TIMER_H_
#define KTG_UTIL_TIMER_H_

#include <chrono>
#include <cstdint>

namespace ktg {

/// A monotonic stopwatch. Starts running on construction, unless built
/// from kUnstarted: that one reads no clock until Reset().
class Stopwatch {
 public:
  struct Unstarted {};
  static constexpr Unstarted kUnstarted{};

  Stopwatch() : start_(Clock::now()) {}
  explicit Stopwatch(Unstarted) {}

  /// Restarts the stopwatch.
  void Reset() { start_ = Clock::now(); }

  /// Elapsed time since construction / last Reset.
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }
  double ElapsedMillis() const { return ElapsedSeconds() * 1e3; }
  uint64_t ElapsedMicros() const {
    return static_cast<uint64_t>(ElapsedSeconds() * 1e6);
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace ktg

#endif  // KTG_UTIL_TIMER_H_
