// Copyright (c) 2026 The ktg Authors.

#include "cache/ktg_cache.h"

#include <utility>

#include "index/affected.h"
#include "keywords/inverted_index.h"
#include "obs/metrics.h"
#include "util/macros.h"

namespace ktg {

namespace {

// The ball tier caches one entry per (vertex, radius); radii above this are
// not worth caching (social tenuity k is small — the paper uses k <= 3) and
// bounding it keeps EraseBallsOf O(affected * kMaxRadius).
constexpr HopDistance kMaxCachedRadius = 8;

size_t BallBytes(const std::vector<VertexId>& ball) {
  return ball.capacity() * sizeof(VertexId) + sizeof(ball);
}

size_t ResultBytes(const std::vector<VertexId>& members,
                   const std::vector<uint32_t>& ends) {
  return sizeof(members) + members.capacity() * sizeof(VertexId) +
         sizeof(ends) + ends.capacity() * sizeof(uint32_t);
}

void ExportTier(obs::MetricsRegistry& registry, const char* hits,
                const char* misses, const char* evictions,
                const char* invalidations, const char* bytes,
                const char* entries, const CacheTierStats& now,
                CacheTierStats& last) {
  registry.counter(hits).Add(now.hits - last.hits);
  registry.counter(misses).Add(now.misses - last.misses);
  registry.counter(evictions).Add(now.evictions - last.evictions);
  registry.counter(invalidations).Add(now.invalidations - last.invalidations);
  registry.gauge(bytes).Set(static_cast<double>(now.bytes));
  registry.gauge(entries).Set(static_cast<double>(now.entries));
  last = now;
}

}  // namespace

CacheOptions CacheOptionsForMb(size_t mb) {
  CacheOptions o;
  const size_t total = mb << 20;
  o.ball_budget_bytes = total - total / 4;
  o.query_budget_bytes = total / 4;
  return o;
}

KtgCache::KtgCache(const CacheOptions& options)
    : balls_(options.ball_budget_bytes, options.shards),
      queries_(options.query_budget_bytes, options.shards) {}

KtgCache::BallPtr KtgCache::GetBall(VertexId v, HopDistance k,
                                    uint64_t pinned_epoch) {
  if (k > kMaxCachedRadius) return nullptr;
  auto tagged = balls_.Get(BallKey{v, k});
  if (tagged == nullptr) return nullptr;
  // An entry stored under a later epoch reflects a ball this reader's
  // pinned graph may not have; entries at or before the pinned epoch are
  // valid (presence means no transition since storage affected v).
  if (tagged->epoch > ResolveEpoch(pinned_epoch)) return nullptr;
  return tagged->ball;
}

KtgCache::BallPtr KtgCache::PeekBall(VertexId v, HopDistance k,
                                     uint64_t pinned_epoch) {
  if (k > kMaxCachedRadius) return nullptr;
  auto tagged = balls_.GetIfPresent(BallKey{v, k});
  if (tagged == nullptr) return nullptr;
  if (tagged->epoch > ResolveEpoch(pinned_epoch)) return nullptr;
  return tagged->ball;
}

void KtgCache::PutBall(VertexId v, HopDistance k, BallPtr ball,
                       uint64_t pinned_epoch) {
  if (k > kMaxCachedRadius || ball == nullptr) return;
  const uint64_t at = ResolveEpoch(pinned_epoch);
  const size_t bytes = BallBytes(*ball);
  auto tagged = std::make_shared<TaggedBall>();
  tagged->epoch = at;
  tagged->ball = std::move(ball);
  // The guard runs under the shard lock: either the store lands while `at`
  // is still current (and a concurrent AdvanceEpoch's later erase pass
  // sweeps it if v is affected), or the epoch has moved on and the stale
  // ball is dropped. Without the guard a slow reader could park a
  // pre-transition ball after the erase pass already ran.
  balls_.PutIf(BallKey{v, k}, std::move(tagged), bytes,
               [this, at] { return epoch() == at; });
}

bool KtgCache::LookupQuery(const QueryKey& key, const AttributedGraph& g,
                           const KtgQuery& query, KtgResult* out,
                           uint64_t pinned_epoch) {
  auto stored = queries_.Get(key);
  if (stored == nullptr) return false;
  const uint64_t at = ResolveEpoch(pinned_epoch);
  if (stored->epoch != at) {
    // Results are valid only for the exact epoch they were computed under.
    // Entries *older* than this reader are dead for every future reader
    // too — erase lazily. Entries newer than this (old, still-pinned)
    // reader stay: they are the current epoch's live results.
    if (stored->epoch < at) queries_.Erase(key);
    return false;
  }
  out->groups.clear();
  out->groups.reserve(stored->ends.size());
  uint32_t begin = 0;
  for (const uint32_t end : stored->ends) {
    Group group;
    group.members.assign(stored->members.begin() + begin,
                         stored->members.begin() + end);
    begin = end;
    // Masks are relative to W_Q bit order, which the canonical key erases;
    // recompute them for the *incoming* keyword order so a hit through a
    // permuted query is bit-exact with a fresh run of that query.
    for (VertexId v : group.members) {
      group.mask |= CoverMaskOf(g, v, query.keywords);
    }
    out->groups.push_back(std::move(group));
  }
  out->query_keyword_count = query.num_keywords();
  out->stats = SearchStats{};
  return true;
}

void KtgCache::StoreQuery(const QueryKey& key, const KtgResult& result,
                          uint64_t pinned_epoch) {
  auto stored = std::make_shared<StoredResult>();
  stored->epoch = ResolveEpoch(pinned_epoch);
  size_t num_members = 0;
  for (const Group& g : result.groups) num_members += g.members.size();
  stored->members.reserve(num_members);
  stored->ends.reserve(result.groups.size());
  for (const Group& g : result.groups) {
    stored->members.insert(stored->members.end(), g.members.begin(),
                           g.members.end());
    stored->ends.push_back(static_cast<uint32_t>(stored->members.size()));
  }
  const size_t bytes = ResultBytes(stored->members, stored->ends);
  queries_.Put(key, std::move(stored), bytes);
}

void KtgCache::EraseBallsOf(const std::vector<VertexId>& vertices) {
  for (VertexId v : vertices) {
    for (HopDistance k = 1; k <= kMaxCachedRadius; ++k) {
      balls_.Erase(BallKey{v, k});
    }
  }
}

void KtgCache::AdvanceEpoch(uint64_t new_epoch,
                            const std::vector<VertexId>& affected) {
  KTG_CHECK_MSG(new_epoch > epoch(),
                "AdvanceEpoch must move the epoch forward");
  // Publish first, erase second: a racing PutBall that read the old epoch
  // either lands before this store (and the erase below sweeps it if its
  // vertex is affected) or fails its PutIf guard. The reverse order would
  // leave a window where a stale ball survives both.
  epoch_.store(new_epoch, std::memory_order_release);
  EraseBallsOf(affected);
}

void KtgCache::OnEdgeInserted(const Graph& old_graph, VertexId a, VertexId b) {
  AdvanceEpoch(epoch() + 1, AffectedByInsertion(old_graph, a, b));
}

void KtgCache::OnEdgeRemoved(const Graph& old_graph, VertexId a, VertexId b) {
  AdvanceEpoch(epoch() + 1,
               AffectedByDeletion(old_graph, WithEdgeRemoved(old_graph, a, b),
                                  a, b));
}

void KtgCache::InvalidateAll() {
  balls_.Clear();
  queries_.Clear();
  epoch_.fetch_add(1, std::memory_order_acq_rel);
}

void KtgCache::ExportMetrics(obs::MetricsRegistry& registry) {
  std::lock_guard<std::mutex> lock(export_mu_);
  ExportTier(registry, "cache.ball.hits", "cache.ball.misses",
             "cache.ball.evictions", "cache.ball.invalidations",
             "cache.ball.bytes", "cache.ball.entries", balls_.Stats(),
             exported_balls_);
  ExportTier(registry, "cache.query.hits", "cache.query.misses",
             "cache.query.evictions", "cache.query.invalidations",
             "cache.query.bytes", "cache.query.entries", queries_.Stats(),
             exported_queries_);
  registry.gauge("cache.epoch").Set(static_cast<double>(epoch()));
}

}  // namespace ktg
