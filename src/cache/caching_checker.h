// Copyright (c) 2026 The ktg Authors.
// CachingChecker — a DistanceChecker decorator that consults the shared
// KtgCache ball tier before computing.
//
// Two read paths:
//  * BallWithinK (the engines' bulk-filtering fast path): on a cache miss
//    the wrapper materializes the ball with its own hop-bounded BFS, stores
//    it, and serves it — so any checker gains the bulk path, including the
//    NL/NLRNL checkers that do not offer one natively.
//  * IsFartherThan: probes the cache for either endpoint's ball (a binary
//    search on a hit) and falls through to the wrapped checker otherwise —
//    a probe miss is NOT a cache miss, because the fallback is the inner
//    index, not a traversal.
//
// The wrapper carries the epoch its graph was pinned at and passes it on
// every cache access, so a wrapper serving an old snapshot never reads or
// parks balls from another epoch. Non-snapshot callers construct it with
// kCurrentEpoch (the default), which reproduces the pre-snapshot
// semantics: always read/store against the cache's current epoch.
//
// The wrapper is stateful (ball holder + BFS scratch), hence not
// concurrent_read_safe: create one per worker (or per engine run), all
// sharing one KtgCache. It must be bound to the graph of the epoch it is
// created for and recreated when topology changes.

#ifndef KTG_CACHE_CACHING_CHECKER_H_
#define KTG_CACHE_CACHING_CHECKER_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cache/ktg_cache.h"
#include "graph/bfs.h"
#include "graph/graph.h"
#include "index/distance_checker.h"

namespace ktg {

class CachingChecker : public DistanceChecker {
 public:
  /// `graph` and `cache` are borrowed and must outlive the checker; `inner`
  /// must answer over the same graph. `pinned_epoch` tags every cache
  /// access (kCurrentEpoch = follow the cache's live epoch).
  CachingChecker(std::unique_ptr<DistanceChecker> inner, const Graph& graph,
                 KtgCache* cache, uint64_t pinned_epoch = kCurrentEpoch);

  /// Non-owning variant: `inner` is borrowed (a snapshot's shared
  /// read-safe checker) and must outlive the wrapper. The per-run wrapper
  /// the server builds around a pinned snapshot uses this.
  CachingChecker(DistanceChecker* inner, const Graph& graph, KtgCache* cache,
                 uint64_t pinned_epoch = kCurrentEpoch);

  std::string name() const override { return "Cached" + inner_->name(); }
  bool concurrent_read_safe() const override { return false; }
  size_t MemoryBytes() const override { return inner_->MemoryBytes(); }

  DistanceChecker& inner() { return *inner_; }
  uint64_t pinned_epoch() const { return epoch_; }

 protected:
  const std::vector<VertexId>* BallWithinKImpl(VertexId pivot, HopDistance k,
                                               uint64_t* traversals) override;
  bool IsFartherThanImpl(VertexId u, VertexId v, HopDistance k) override;

 private:
  std::unique_ptr<DistanceChecker> owned_;
  DistanceChecker* inner_;  // == owned_.get() unless borrowed
  KtgCache* cache_;
  uint64_t epoch_;
  BoundedBfs bfs_;
  // Keeps the ball returned by BallWithinK alive until the next call on
  // this checker (the interface's validity contract).
  KtgCache::BallPtr holder_;
};

/// Wraps `inner` when `cache` is non-null; otherwise returns it unchanged.
std::unique_ptr<DistanceChecker> MaybeWrapWithCache(
    std::unique_ptr<DistanceChecker> inner, const Graph& graph,
    KtgCache* cache, uint64_t pinned_epoch = kCurrentEpoch);

}  // namespace ktg

#endif  // KTG_CACHE_CACHING_CHECKER_H_
