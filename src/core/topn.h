// Copyright (c) 2026 The ktg Authors.
// Bounded top-N collection of result groups.
//
// The paper's update rule (Algorithm 1, lines 2-3 and the worked examples)
// admits a new feasible group only when its coverage is *strictly* greater
// than the current N-th best once N groups are held; before that, any
// feasible group enters. TopNCollector encapsulates that rule and exposes
// the pruning threshold C_max used by Theorem 2.

#ifndef KTG_CORE_TOPN_H_
#define KTG_CORE_TOPN_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

#include "core/query.h"
#include "util/align.h"

namespace ktg {

/// Collects the top-N groups by covered-keyword count.
class TopNCollector {
 public:
  explicit TopNCollector(uint32_t n) : n_(n) {}

  /// Offers a feasible group; returns true when it was admitted. A group
  /// with the same members as one already held is refused.
  bool Offer(Group group);

  /// True once N groups are held.
  bool full() const { return groups_.size() >= n_; }

  /// The keyword-pruning threshold: a branch whose optimistic bound does
  /// not exceed this cannot improve the result. Equals the N-th coverage
  /// count when full, -1 otherwise (any feasible group is useful).
  int threshold() const { return full() ? worst_count_ : -1; }

  size_t size() const { return groups_.size(); }

  /// Finalizes: groups ordered by coverage descending; ties keep insertion
  /// order (the order the search discovered them, as in the paper's
  /// examples). The collector is left empty.
  std::vector<Group> Take();

 private:
  void RecomputeWorst();

  uint32_t n_;
  int worst_count_ = -1;
  // Stored with insertion sequence numbers for stable tie ordering.
  std::vector<std::pair<uint64_t, Group>> groups_;
  uint64_t next_seq_ = 0;
};

/// Thread-safe top-N used by the root-parallel engine: a mutex-guarded
/// TopNCollector plus a lock-free snapshot of the pruning threshold, so the
/// Theorem-2 bound can be consulted on every tree node without taking the
/// lock. The snapshot may lag the true threshold by a moment, which only
/// weakens pruning — never correctness — because the threshold is monotone
/// non-decreasing over a run.
class SharedTopN {
 public:
  explicit SharedTopN(uint32_t n) : collector_(n) {}

  /// Offers a feasible group (serialized); returns true when admitted.
  bool Offer(Group group) {
    std::lock_guard<std::mutex> lock(mu_);
    const bool admitted = collector_.Offer(std::move(group));
    threshold_.store(collector_.threshold(), std::memory_order_relaxed);
    return admitted;
  }

  /// Relaxed snapshot of TopNCollector::threshold(): -1 until N groups are
  /// held, then the N-th coverage count.
  int threshold() const { return threshold_.load(std::memory_order_relaxed); }

  /// True once N groups are held (per the snapshot; real group coverage is
  /// never negative, so threshold > -1 iff the collector is full).
  bool full() const { return threshold() > -1; }

  /// Finalizes under the lock; same ordering contract as TopNCollector.
  std::vector<Group> Take() {
    std::lock_guard<std::mutex> lock(mu_);
    threshold_.store(-1, std::memory_order_relaxed);
    return collector_.Take();
  }

 private:
  std::mutex mu_;
  TopNCollector collector_;
  // On its own cache line: every worker reads this on every tree node,
  // and without the alignment it shares a line with the mutex — so each
  // Offer's lock traffic would invalidate every reader's hot snapshot.
  alignas(kCacheLineBytes) std::atomic<int> threshold_{-1};
};

}  // namespace ktg

#endif  // KTG_CORE_TOPN_H_
