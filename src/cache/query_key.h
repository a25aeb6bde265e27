// Copyright (c) 2026 The ktg Authors.
// Canonical cache key for a KTG query (the query-result tier of
// docs/caching.md).
//
// Two queries that must return the same groups must map to the same key;
// two queries that may differ must not collide. Canonicalization therefore
// sorts (and dedups where semantics allow) the order-insensitive parts of
// the query and records every engine knob that can change the result:
//
//  * keywords: W_Q order is irrelevant to the result (the engines tie-break
//    on coverage counts, degrees and vertex ids — never on raw mask bit
//    positions), so valid keyword ids are sorted. Duplicates of valid
//    keywords are rejected by ValidateQuery, so sorting alone canonicalizes
//    them; kInvalidKeyword entries are interchangeable and may legally
//    repeat, so only their *count* is kept (each one widens the QKC
//    denominator identically).
//  * query/excluded vertices: set semantics (candidate extraction runs
//    SortUnique over them), so sorted + deduped.
//  * engine knobs that select among tied groups (sort strategy, degree
//    direction) are part of the key; pruning toggles are not — they change
//    cost, never results.
//
// Full keys are stored in the cache and compared with operator== on lookup,
// so a 64-bit hash collision can never serve a wrong result.

#ifndef KTG_CACHE_QUERY_KEY_H_
#define KTG_CACHE_QUERY_KEY_H_

#include <cstdint>
#include <vector>

#include "core/options.h"
#include "core/query.h"
#include "graph/types.h"

namespace ktg {

/// Canonical identity of one query against one engine configuration.
struct QueryKey {
  uint8_t sort = 0;
  bool degree_ascending = true;

  uint32_t group_size = 0;
  uint32_t top_n = 0;
  HopDistance tenuity = 0;

  /// Valid keyword ids, sorted ascending (no duplicates survive
  /// validation); invalid entries are summarized by their count.
  std::vector<KeywordId> keywords;
  uint32_t invalid_keywords = 0;

  /// Sorted, deduplicated (set semantics in candidate extraction).
  std::vector<VertexId> query_vertices;
  std::vector<VertexId> excluded_vertices;

  bool operator==(const QueryKey&) const = default;

  /// Well-mixed 64-bit hash of the full key.
  uint64_t Hash() const;
};

/// Builds the canonical key for `query` under `options`. The query should
/// already have passed ValidateQuery; un-validated duplicate keywords would
/// canonicalize to the same key as their deduplicated form, which is only
/// correct because validation rejects them before any cache lookup.
QueryKey CanonicalQueryKey(const KtgQuery& query, SortStrategy sort,
                           bool degree_ascending);

struct QueryKeyHash {
  uint64_t operator()(const QueryKey& k) const { return k.Hash(); }
};

}  // namespace ktg

#endif  // KTG_CACHE_QUERY_KEY_H_
