// Copyright (c) 2026 The ktg Authors.
// The social-distance check abstraction of Section V.
//
// The single operation the KTG engines need from the social graph during
// branch-and-bound search is the k-line test of Theorem 3: "is the hop
// distance between u and v greater than k?". The paper offers three ways to
// answer it — on-the-fly BFS, the NL index and the NLRNL index — and its
// Figures 3-7 and 9 compare them. DistanceChecker is the common interface;
// every implementation also counts its invocations so benchmarks can report
// check volume next to latency.

#ifndef KTG_INDEX_DISTANCE_CHECKER_H_
#define KTG_INDEX_DISTANCE_CHECKER_H_

#include <atomic>
#include <cstdint>
#include <string>

#include "graph/types.h"

namespace ktg {

/// Answers k-line queries over a fixed social graph.
///
/// Implementations may keep internal scratch; by default they are stateful
/// and not thread-safe — create one checker per worker thread. The purely
/// read-only implementations advertise concurrent_read_safe() so the
/// root-parallel engine can share a single instance across its workers.
///
/// Check counting. A call without a tally counts on the checker's own
/// relaxed-atomic counter (num_checks()). The engines pass a tally
/// instead — a plain counter of the run's (or the worker's) own — so
/// workers sharing one checker never contend on a counter, and concurrent
/// runs on one checker never count each other's checks.
class DistanceChecker {
 public:
  virtual ~DistanceChecker() = default;

  /// Returns true iff the hop distance Dis(u, v) is strictly greater than
  /// `k` (Definition 1/2: "not a k-line"). A vertex is at distance 0 from
  /// itself; vertices in different components are infinitely far apart.
  /// Counts one check into `*tally` when given, else into num_checks().
  bool IsFartherThan(VertexId u, VertexId v, HopDistance k,
                     uint64_t* tally = nullptr) {
    CountChecks(1, tally);
    const bool farther = IsFartherThanImpl(u, v, k);
    if (detail_stats_.load(std::memory_order_relaxed)) {
      (farther ? num_farther_ : num_within_)
          .fetch_add(1, std::memory_order_relaxed);
    }
    return farther;
  }

  /// True when IsFartherThan may be invoked from multiple threads
  /// concurrently with no external synchronization. Only implementations
  /// whose check path never mutates index state qualify: NLRNL and NL
  /// with memoization disabled. BFS (shared traversal scratch) and
  /// memoizing NL stay single-threaded.
  virtual bool concurrent_read_safe() const { return false; }

  /// Short implementation name used in benchmark tables ("BFS", "NL", ...).
  virtual std::string name() const = 0;

  /// Approximate heap footprint of the index structures in bytes.
  virtual size_t MemoryBytes() const { return 0; }

  /// Checks counted on the checker itself (calls without a tally) since
  /// construction / ResetStats.
  uint64_t num_checks() const {
    return num_checks_.load(std::memory_order_relaxed);
  }

  /// Detail attribution (hit/miss split + probe counts) is off by default
  /// so the per-check hot path pays only one predictable branch; engines
  /// turn it on when a MetricsRegistry is attached and leave it on — the
  /// flag is sticky because checkers are shared across runs and workers.
  void EnableDetailStats() {
    detail_stats_.store(true, std::memory_order_relaxed);
  }
  bool detail_stats_enabled() const {
    return detail_stats_.load(std::memory_order_relaxed);
  }

  /// Checks that answered "farther than k" (the pair stays feasible) /
  /// "within k" (a k-line conflict). Only counted while detail stats are
  /// enabled, and checker-wide: tallied and untallied calls alike, from
  /// every thread, so farther + within is every call in that window.
  uint64_t num_farther() const {
    return num_farther_.load(std::memory_order_relaxed);
  }
  uint64_t num_within() const {
    return num_within_.load(std::memory_order_relaxed);
  }

  /// Index-structure probes (per-level membership lookups for NL/NLRNL)
  /// while detail stats are enabled; 0 for checkers without an index
  /// (BFS). probes/checks is the "how hard did the index work per answer"
  /// ratio of Section V.
  uint64_t num_probes() const {
    return num_probes_.load(std::memory_order_relaxed);
  }

  void ResetStats() {
    num_checks_.store(0, std::memory_order_relaxed);
    num_farther_.store(0, std::memory_order_relaxed);
    num_within_.store(0, std::memory_order_relaxed);
    num_probes_.store(0, std::memory_order_relaxed);
  }

 protected:
  DistanceChecker() = default;
  // The atomic counters are not copyable/movable by themselves;
  // value-semantic subclasses (NL/NLRNL are moved out of serialization
  // loads) transfer the counts explicitly.
  DistanceChecker(const DistanceChecker& other)
      : num_checks_(other.num_checks()),
        num_farther_(other.num_farther()),
        num_within_(other.num_within()),
        num_probes_(other.num_probes()),
        detail_stats_(other.detail_stats_enabled()) {}
  DistanceChecker& operator=(const DistanceChecker& other) {
    num_checks_.store(other.num_checks(), std::memory_order_relaxed);
    num_farther_.store(other.num_farther(), std::memory_order_relaxed);
    num_within_.store(other.num_within(), std::memory_order_relaxed);
    num_probes_.store(other.num_probes(), std::memory_order_relaxed);
    detail_stats_.store(other.detail_stats_enabled(),
                        std::memory_order_relaxed);
    return *this;
  }

  virtual bool IsFartherThanImpl(VertexId u, VertexId v, HopDistance k) = 0;

  /// Answers through `other`'s implementation without counting a check or
  /// its farther/within split: for decorators whose own IsFartherThan has
  /// already counted the call.
  static bool IsFartherThanUncounted(DistanceChecker& other, VertexId u,
                                     VertexId v, HopDistance k) {
    return other.IsFartherThanImpl(u, v, k);
  }

  /// For index implementations: records `n` structure probes performed by
  /// the current check. Gated on the detail flag so disabled runs pay one
  /// branch, not an atomic RMW.
  void RecordProbes(uint64_t n) {
    if (detail_stats_.load(std::memory_order_relaxed)) {
      num_probes_.fetch_add(n, std::memory_order_relaxed);
    }
  }

 private:
  void CountChecks(uint64_t n, uint64_t* tally) {
    if (tally != nullptr) {
      *tally += n;
    } else {
      num_checks_.fetch_add(n, std::memory_order_relaxed);
    }
  }

  std::atomic<uint64_t> num_checks_{0};
  std::atomic<uint64_t> num_farther_{0};
  std::atomic<uint64_t> num_within_{0};
  std::atomic<uint64_t> num_probes_{0};
  std::atomic<bool> detail_stats_{false};
};

}  // namespace ktg

#endif  // KTG_INDEX_DISTANCE_CHECKER_H_
