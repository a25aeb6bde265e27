// Copyright (c) 2026 The ktg Authors.
// KtgCache — the cross-query cache: a query-result tier keyed by canonical
// QueryKey. Every entry is tagged with the graph epoch it was computed
// under, and readers pass the epoch they have pinned, so a result is never
// served across a topology change.
//
// Validity rule (docs/concurrency.md argues it): a stored result is valid
// iff entry.epoch == E exactly, for a reader pinned at E. Results depend on
// the whole (graph, keywords) state; only the epoch they were computed
// under may reuse them. Writers hand epochs over with AdvanceEpoch; the
// rule retires older entries lazily.
//
// Thread-safe: the tier is a sharded LRU with per-shard mutexes, so one
// KtgCache is meant to be shared by every batch worker and server thread.
//
// See docs/caching.md for keying, invalidation and accounting semantics.

#ifndef KTG_CACHE_KTG_CACHE_H_
#define KTG_CACHE_KTG_CACHE_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

#include "cache/query_key.h"
#include "cache/sharded_lru.h"
#include "core/query.h"
#include "graph/types.h"
#include "keywords/attributed_graph.h"

namespace ktg::obs {
class MetricsRegistry;
}  // namespace ktg::obs

namespace ktg {

/// Sentinel epoch: "whatever the cache's current epoch is at access time".
/// Callers that run against a single mutable dataset (CLI, batch runner)
/// use this and keep the pre-snapshot semantics; snapshot readers pass the
/// epoch they pinned instead.
inline constexpr uint64_t kCurrentEpoch = ~uint64_t{0};

/// Sizing of one KtgCache.
struct CacheOptions {
  /// Byte budget of the query-result tier.
  size_t query_budget_bytes = 16 << 20;
  /// Shard count (rounded up to a power of two, capped at 64).
  uint32_t shards = 16;
};

/// The `--cache-mb` sizing: the whole budget goes to query results.
CacheOptions CacheOptionsForMb(size_t mb);

class KtgCache {
 public:
  explicit KtgCache(const CacheOptions& options = {});

  KtgCache(const KtgCache&) = delete;
  KtgCache& operator=(const KtgCache&) = delete;

  // --- Query-result tier ---------------------------------------------------

  /// Looks up `key` as a reader pinned at `pinned_epoch`. On a same-epoch
  /// hit, fills `out` with the cached groups — masks recomputed against
  /// `query.keywords` bit order (members are invariant under keyword
  /// permutation; masks are not) — and returns true. An entry older than
  /// the reader's epoch is erased (counted as an invalidation) and
  /// reported as a miss; an entry from a *newer* epoch is left alone (an
  /// older pinned reader must not evict current results).
  bool LookupQuery(const QueryKey& key, const AttributedGraph& g,
                   const KtgQuery& query, KtgResult* out,
                   uint64_t pinned_epoch = kCurrentEpoch);

  /// Stores a completed result under `key`, tagged with `pinned_epoch`
  /// (kCurrentEpoch tags with the current epoch).
  void StoreQuery(const QueryKey& key, const KtgResult& result,
                  uint64_t pinned_epoch = kCurrentEpoch);

  // --- Invalidation / epoch handoff ---------------------------------------

  /// The snapshot writer's handoff: publishes `new_epoch`, which must be
  /// greater than the current epoch. Stored results are not touched; the
  /// per-epoch equality rule retires them lazily.
  void AdvanceEpoch(uint64_t new_epoch);

  /// Current graph epoch (starts at 0, advanced once per update/handoff).
  uint64_t epoch() const { return epoch_.load(std::memory_order_acquire); }

  // --- Introspection -------------------------------------------------------

  // Always empty; read only by perfbench/runner/layers.cc until benchmark v2.
  CacheTierStats BallStats() const { return {}; }
  CacheTierStats QueryStats() const { return queries_.Stats(); }

  /// Publishes the result tier into `registry` under cache.query.*
  /// (hits/misses/evictions/invalidations counters, bytes/entries gauges)
  /// plus the cache.epoch gauge. Counters in the registry are cumulative,
  /// so repeated exports add only the delta since the previous export to
  /// the same or any other registry.
  void ExportMetrics(obs::MetricsRegistry& registry);

 private:
  /// A stored result: member lists only — masks depend on the querying
  /// W_Q's bit order and are recomputed on every hit. The lists are
  /// flattened (group i is members[ends[i-1], ends[i])), so an entry holds
  /// two allocations whatever N is.
  struct StoredResult {
    uint64_t epoch = 0;
    std::vector<VertexId> members;
    std::vector<uint32_t> ends;
  };

  uint64_t ResolveEpoch(uint64_t pinned_epoch) const {
    return pinned_epoch == kCurrentEpoch ? epoch() : pinned_epoch;
  }

  ShardedLru<QueryKey, StoredResult, QueryKeyHash> queries_;
  std::atomic<uint64_t> epoch_{0};

  // Last-exported snapshot so registry counters receive deltas.
  std::mutex export_mu_;
  CacheTierStats exported_queries_;
};

}  // namespace ktg

#endif  // KTG_CACHE_KTG_CACHE_H_
