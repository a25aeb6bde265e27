// Copyright (c) 2026 The ktg Authors.
// KtgCache — the cross-query cache: a ball tier (k-hop neighborhoods keyed
// by (vertex, k), consulted by CachingChecker before any traversal) and a
// query-result tier (keyed by canonical QueryKey). Both tiers are
// epoch-aware: every entry is tagged with the graph epoch it was computed
// under, and readers pass the epoch they have pinned so entries from other
// epochs are never served across a topology change.
//
// Validity rules (docs/concurrency.md argues both):
//  * Ball entries: valid for a reader pinned at E iff entry.epoch <= E.
//    Every epoch transition erases the balls of its affected vertices, so
//    an entry still present was unaffected by every transition since it was
//    stored — its ball is identical at all epochs >= entry.epoch.
//  * Query results: valid iff entry.epoch == E exactly. Results depend on
//    the whole (graph, keywords) state; only the epoch they were computed
//    under may reuse them.
//
// Writers hand epochs over with AdvanceEpoch(new_epoch, affected): the
// epoch counter is published *before* the affected balls are erased, and
// ball stores are epoch-guarded under the shard lock (ShardedLru::PutIf),
// so a reader racing the transition can never park a stale ball that the
// erase pass has already swept past.
//
// Thread-safe: the tiers are sharded LRUs with per-shard mutexes, so one
// KtgCache is meant to be shared by every batch worker (that sharing is the
// whole point — worker 3's traversal work warms worker 5's queries).
//
// See docs/caching.md for keying, invalidation and accounting semantics.

#ifndef KTG_CACHE_KTG_CACHE_H_
#define KTG_CACHE_KTG_CACHE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "cache/query_key.h"
#include "cache/sharded_lru.h"
#include "core/query.h"
#include "graph/graph.h"
#include "graph/types.h"
#include "keywords/attributed_graph.h"
#include "util/rng.h"

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
  /// Byte budget of the ball tier (k-hop neighborhood vectors).
  size_t ball_budget_bytes = 48 << 20;
  /// Byte budget of the query-result tier.
  size_t query_budget_bytes = 16 << 20;
  /// Shard count per tier (rounded up to a power of two, capped at 64).
  uint32_t shards = 16;
};

/// The `--cache-mb` split: 3/4 of the budget to the ball tier (the bulky,
/// high-reuse one), 1/4 to query results.
CacheOptions CacheOptionsForMb(size_t mb);

class KtgCache {
 public:
  using BallPtr = std::shared_ptr<const std::vector<VertexId>>;

  explicit KtgCache(const CacheOptions& options = {});

  KtgCache(const KtgCache&) = delete;
  KtgCache& operator=(const KtgCache&) = delete;

  // --- Ball tier -----------------------------------------------------------

  /// The cached sorted ball of `v` (vertices within `k` hops, excluding
  /// `v`), or nullptr. Counts a hit or a miss. `pinned_epoch` is the epoch
  /// the caller has pinned; entries stored under a later epoch are not
  /// served (kCurrentEpoch accepts every resident entry).
  BallPtr GetBall(VertexId v, HopDistance k,
                  uint64_t pinned_epoch = kCurrentEpoch);

  /// Like GetBall but a probe: absence is not a miss (used by per-pair
  /// checks whose fallback is the inner checker, not a cache fill).
  BallPtr PeekBall(VertexId v, HopDistance k,
                   uint64_t pinned_epoch = kCurrentEpoch);

  /// Stores the ball of `v` at radius `k`, computed under `pinned_epoch`;
  /// `ball` must be sorted and must not contain `v`. Dropped (not stored)
  /// when the cache has already advanced past the caller's epoch — a stale
  /// ball must never outlive the erase pass that would have swept it.
  void PutBall(VertexId v, HopDistance k, BallPtr ball,
               uint64_t pinned_epoch = kCurrentEpoch);

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

  /// The snapshot writer's handoff: publishes `new_epoch` (must be greater
  /// than the current epoch) and then erases the ball entries of
  /// `affected` — in that order, so a racing ball store is either swept by
  /// this erase pass or rejected by its epoch guard. Query results are not
  /// touched; the per-epoch equality rule retires them lazily.
  void AdvanceEpoch(uint64_t new_epoch, const std::vector<VertexId>& affected);

  /// Call with the graph *before* the edge {a, b} is inserted/removed.
  /// Computes the affected set (AffectedByInsertion/Deletion) and advances
  /// the epoch by one. Convenience wrapper over AdvanceEpoch for callers
  /// that mutate a single live dataset in place.
  void OnEdgeInserted(const Graph& old_graph, VertexId a, VertexId b);
  void OnEdgeRemoved(const Graph& old_graph, VertexId a, VertexId b);

  /// Wholesale: drops both tiers and bumps the epoch. The fallback for
  /// updates whose affected set was not computed.
  void InvalidateAll();

  /// Current graph epoch (starts at 0, advanced once per update/handoff).
  uint64_t epoch() const { return epoch_.load(std::memory_order_acquire); }

  // --- Introspection -------------------------------------------------------

  CacheTierStats BallStats() const { return balls_.Stats(); }
  CacheTierStats QueryStats() const { return queries_.Stats(); }

  /// Publishes both tiers into `registry` under cache.ball.* /
  /// cache.query.* (hits/misses/evictions/invalidations counters,
  /// bytes/entries gauges) plus the cache.epoch gauge. Counters in the
  /// registry are cumulative, so repeated exports add only the delta since
  /// the previous export to the same or any other registry.
  void ExportMetrics(obs::MetricsRegistry& registry);

 private:
  struct BallKey {
    VertexId v;
    HopDistance k;
    bool operator==(const BallKey&) const = default;
  };
  struct BallKeyHash {
    uint64_t operator()(const BallKey& key) const {
      return Mix64((static_cast<uint64_t>(key.v) << 16) | key.k);
    }
  };

  /// A cached ball plus the epoch it was computed under.
  struct TaggedBall {
    uint64_t epoch = 0;
    BallPtr ball;
  };

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
  void EraseBallsOf(const std::vector<VertexId>& vertices);

  ShardedLru<BallKey, TaggedBall, BallKeyHash> balls_;
  ShardedLru<QueryKey, StoredResult, QueryKeyHash> queries_;
  std::atomic<uint64_t> epoch_{0};

  // Last-exported snapshots so registry counters receive deltas.
  std::mutex export_mu_;
  CacheTierStats exported_balls_;
  CacheTierStats exported_queries_;
};

}  // namespace ktg

#endif  // KTG_CACHE_KTG_CACHE_H_
