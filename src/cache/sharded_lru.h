// Copyright (c) 2026 The ktg Authors.
// A memory-bounded, thread-safe, sharded LRU map — the storage engine of
// the cross-query result cache (see docs/caching.md).
//
// Keys are hashed to one of `shards` independent sub-caches, each guarded by
// its own mutex, so concurrent batch workers contend only when they touch
// the same shard. Every shard keeps a recency list plus a byte account; an
// insert that pushes a shard over its share of the byte budget evicts from
// the cold end. The newest entry is always admitted (so a 1-byte budget
// degenerates to a 1-entry-per-shard cache, never to a cache that refuses
// everything — the differential harness exercises exactly that corner).
//
// Counters are relaxed atomics: exact under concurrency, never blocking the
// data path beyond the shard mutex.

#ifndef KTG_CACHE_SHARDED_LRU_H_
#define KTG_CACHE_SHARDED_LRU_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/macros.h"
#include "util/rng.h"

namespace ktg {

/// Point-in-time counter snapshot of one cache tier.
struct CacheTierStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;      ///< dropped for space (LRU order)
  uint64_t invalidations = 0;  ///< dropped for staleness (update/epoch)
  uint64_t bytes = 0;          ///< resident value bytes + entry overhead
  uint64_t entries = 0;
};

/// Sharded LRU from Key to shared_ptr<const V>. `KeyHash` must be a
/// stateless functor returning a well-mixed 64-bit hash (shard selection
/// uses the high bits, bucket selection the low bits).
template <typename Key, typename V, typename KeyHash>
class ShardedLru {
 public:
  using ValuePtr = std::shared_ptr<const V>;

  /// Accounting overhead charged per entry on top of the value bytes
  /// (list/map node, key, control block — an estimate, not a measurement).
  static constexpr size_t kEntryOverhead = 96;

  /// `budget_bytes` is the total across shards; `shards` is rounded up to a
  /// power of two.
  ShardedLru(size_t budget_bytes, uint32_t shards) {
    uint32_t n = 1;
    while (n < shards && n < 64) n <<= 1;
    shards_.reserve(n);
    for (uint32_t i = 0; i < n; ++i) {
      shards_.push_back(std::make_unique<Shard>());
    }
    shard_budget_ = budget_bytes / n;
  }

  /// Returns the cached value and refreshes its recency, or nullptr.
  ValuePtr Get(const Key& key) {
    Shard& s = ShardFor(key);
    std::lock_guard<std::mutex> lock(s.mu);
    auto it = s.map.find(key);
    if (it == s.map.end()) {
      misses_.fetch_add(1, std::memory_order_relaxed);
      return nullptr;
    }
    s.lru.splice(s.lru.begin(), s.lru, it->second);
    hits_.fetch_add(1, std::memory_order_relaxed);
    return it->second->value;
  }

  /// Inserts or replaces `key`. `value_bytes` is the caller-estimated value
  /// footprint; the entry is charged value_bytes + kEntryOverhead.
  void Put(const Key& key, ValuePtr value, size_t value_bytes) {
    const size_t charge = value_bytes + kEntryOverhead;
    Shard& s = ShardFor(key);
    std::lock_guard<std::mutex> lock(s.mu);
    size_t freed = 0;
    auto it = s.map.find(key);
    if (it != s.map.end()) {
      freed += it->second->bytes;
      s.bytes -= it->second->bytes;
      s.lru.erase(it->second);
      s.map.erase(it);
      entries_.fetch_sub(1, std::memory_order_relaxed);
    }
    s.lru.push_front(Entry{key, std::move(value), charge});
    s.map.emplace(key, s.lru.begin());
    s.bytes += charge;
    entries_.fetch_add(1, std::memory_order_relaxed);
    // Evict cold entries until the shard fits its budget share; the entry
    // just admitted is never evicted, even when oversized.
    while (s.bytes > shard_budget_ && s.lru.size() > 1) {
      const Entry& cold = s.lru.back();
      freed += cold.bytes;
      s.bytes -= cold.bytes;
      s.map.erase(cold.key);
      s.lru.pop_back();
      entries_.fetch_sub(1, std::memory_order_relaxed);
      evictions_.fetch_add(1, std::memory_order_relaxed);
    }
    bytes_.fetch_add(charge, std::memory_order_relaxed);
    bytes_.fetch_sub(freed, std::memory_order_relaxed);
  }

  /// Erases one key if present (counted as an invalidation); returns 1/0.
  size_t Erase(const Key& key) {
    Shard& s = ShardFor(key);
    size_t freed = 0;
    {
      std::lock_guard<std::mutex> lock(s.mu);
      auto it = s.map.find(key);
      if (it == s.map.end()) return 0;
      freed = it->second->bytes;
      s.bytes -= freed;
      s.lru.erase(it->second);
      s.map.erase(it);
    }
    entries_.fetch_sub(1, std::memory_order_relaxed);
    invalidations_.fetch_add(1, std::memory_order_relaxed);
    bytes_.fetch_sub(freed, std::memory_order_relaxed);
    return 1;
  }

  /// Erases every entry whose key satisfies `pred`; returns the count.
  /// Counted as invalidations, not evictions.
  template <typename Pred>
  size_t EraseIf(Pred&& pred) {
    size_t erased = 0;
    size_t freed = 0;
    for (const auto& sp : shards_) {
      Shard& s = *sp;
      std::lock_guard<std::mutex> lock(s.mu);
      for (auto it = s.lru.begin(); it != s.lru.end();) {
        if (pred(it->key)) {
          freed += it->bytes;
          s.bytes -= it->bytes;
          s.map.erase(it->key);
          it = s.lru.erase(it);
          ++erased;
        } else {
          ++it;
        }
      }
    }
    entries_.fetch_sub(erased, std::memory_order_relaxed);
    invalidations_.fetch_add(erased, std::memory_order_relaxed);
    bytes_.fetch_sub(freed, std::memory_order_relaxed);
    return erased;
  }

  /// Drops everything (wholesale invalidation).
  size_t Clear() {
    return EraseIf([](const Key&) { return true; });
  }

  CacheTierStats Stats() const {
    CacheTierStats st;
    st.hits = hits_.load(std::memory_order_relaxed);
    st.misses = misses_.load(std::memory_order_relaxed);
    st.evictions = evictions_.load(std::memory_order_relaxed);
    st.invalidations = invalidations_.load(std::memory_order_relaxed);
    st.entries = entries_.load(std::memory_order_relaxed);
    st.bytes = bytes_.load(std::memory_order_relaxed);
    return st;
  }

  size_t num_shards() const { return shards_.size(); }

 private:
  struct Entry {
    Key key;
    ValuePtr value;
    size_t bytes;
  };
  struct Shard {
    std::mutex mu;
    std::list<Entry> lru;  // front = most recently used
    std::unordered_map<Key, typename std::list<Entry>::iterator, KeyHash> map;
    size_t bytes = 0;
  };

  Shard& ShardFor(const Key& key) {
    // High bits pick the shard so the map's low-bit bucketing inside a
    // shard stays independent of shard selection.
    const uint64_t h = Mix64(KeyHash{}(key));
    return *shards_[(h >> 56) & (shards_.size() - 1)];
  }

  std::vector<std::unique_ptr<Shard>> shards_;
  size_t shard_budget_ = 0;
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> evictions_{0};
  std::atomic<uint64_t> invalidations_{0};
  std::atomic<uint64_t> entries_{0};
  std::atomic<uint64_t> bytes_{0};
};

}  // namespace ktg

#endif  // KTG_CACHE_SHARDED_LRU_H_
