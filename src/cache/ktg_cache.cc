// Copyright (c) 2026 The ktg Authors.

#include "cache/ktg_cache.h"

#include <utility>

#include "keywords/inverted_index.h"
#include "obs/metrics.h"
#include "util/macros.h"

namespace ktg {

namespace {

size_t ResultBytes(const std::vector<VertexId>& members,
                   const std::vector<uint32_t>& ends) {
  return sizeof(members) + members.capacity() * sizeof(VertexId) +
         sizeof(ends) + ends.capacity() * sizeof(uint32_t);
}

}  // namespace

CacheOptions CacheOptionsForMb(size_t mb) {
  CacheOptions o;
  o.query_budget_bytes = mb << 20;
  return o;
}

KtgCache::KtgCache(const CacheOptions& options)
    : queries_(options.query_budget_bytes, options.shards) {}

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

void KtgCache::AdvanceEpoch(uint64_t new_epoch) {
  KTG_CHECK_MSG(new_epoch > epoch(),
                "AdvanceEpoch must move the epoch forward");
  epoch_.store(new_epoch, std::memory_order_release);
}

void KtgCache::ExportMetrics(obs::MetricsRegistry& registry) {
  std::lock_guard<std::mutex> lock(export_mu_);
  const CacheTierStats now = queries_.Stats();
  const CacheTierStats& last = exported_queries_;
  registry.counter("cache.query.hits").Add(now.hits - last.hits);
  registry.counter("cache.query.misses").Add(now.misses - last.misses);
  registry.counter("cache.query.evictions").Add(now.evictions - last.evictions);
  registry.counter("cache.query.invalidations")
      .Add(now.invalidations - last.invalidations);
  registry.gauge("cache.query.bytes").Set(static_cast<double>(now.bytes));
  registry.gauge("cache.query.entries").Set(static_cast<double>(now.entries));
  registry.gauge("cache.epoch").Set(static_cast<double>(epoch()));
  exported_queries_ = now;
}

}  // namespace ktg
