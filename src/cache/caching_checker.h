// Copyright (c) 2026 The ktg Authors.
// CachingChecker — a DistanceChecker that forwards every answer to the
// checker it borrows. It caches nothing: the cache holds query results
// only (docs/caching.md). No library code uses it.

#ifndef KTG_CACHE_CACHING_CHECKER_H_
#define KTG_CACHE_CACHING_CHECKER_H_

#include <cstdint>
#include <string>

#include "cache/ktg_cache.h"
#include "graph/graph.h"
#include "index/distance_checker.h"
#include "util/macros.h"

namespace ktg {

// Kept only for perfbench/runner/layers.cc; goes with benchmark v2.
class CachingChecker : public DistanceChecker {
 public:
  /// `inner` is borrowed and must outlive the checker; `graph`, `cache`
  /// and `pinned_epoch` are accepted and ignored.
  CachingChecker(DistanceChecker* inner, const Graph& /*graph*/,
                 KtgCache* /*cache*/, uint64_t /*pinned_epoch*/ = kCurrentEpoch)
      : inner_(inner) {
    KTG_CHECK(inner_ != nullptr);
  }

  std::string name() const override { return inner_->name(); }
  bool concurrent_read_safe() const override {
    return inner_->concurrent_read_safe();
  }
  size_t MemoryBytes() const override { return inner_->MemoryBytes(); }

 protected:
  bool IsFartherThanImpl(VertexId u, VertexId v, HopDistance k) override {
    // This call's IsFartherThan has counted the check already.
    return IsFartherThanUncounted(*inner_, u, v, k);
  }

 private:
  DistanceChecker* inner_;
};

}  // namespace ktg

#endif  // KTG_CACHE_CACHING_CHECKER_H_
