// Copyright (c) 2026 The ktg Authors.

#include "cache/query_key.h"

#include <algorithm>

#include "util/rng.h"
#include "util/sorted_vector.h"

namespace ktg {

namespace {

uint64_t HashCombine(uint64_t h, uint64_t v) {
  return Mix64(h ^ (v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2)));
}

template <typename T>
uint64_t HashSpan(uint64_t h, const std::vector<T>& v) {
  h = HashCombine(h, v.size());
  for (const T& x : v) h = HashCombine(h, static_cast<uint64_t>(x));
  return h;
}

}  // namespace

uint64_t QueryKey::Hash() const {
  uint64_t h = 0x6b7467u;  // "ktg"
  h = HashCombine(h, sort);
  h = HashCombine(h, degree_ascending ? 1 : 0);
  h = HashCombine(h, group_size);
  h = HashCombine(h, top_n);
  h = HashCombine(h, tenuity);
  h = HashCombine(h, invalid_keywords);
  h = HashSpan(h, keywords);
  h = HashSpan(h, query_vertices);
  h = HashSpan(h, excluded_vertices);
  return h;
}

QueryKey CanonicalQueryKey(const KtgQuery& query, SortStrategy sort,
                           bool degree_ascending) {
  QueryKey key;
  key.sort = static_cast<uint8_t>(sort);
  key.degree_ascending = degree_ascending;
  key.group_size = query.group_size;
  key.top_n = query.top_n;
  key.tenuity = query.tenuity;
  for (KeywordId kw : query.keywords) {
    if (kw == kInvalidKeyword) {
      ++key.invalid_keywords;
    } else {
      key.keywords.push_back(kw);
    }
  }
  std::sort(key.keywords.begin(), key.keywords.end());
  key.query_vertices = query.query_vertices;
  SortUnique(key.query_vertices);
  key.excluded_vertices = query.excluded_vertices;
  SortUnique(key.excluded_vertices);
  return key;
}

}  // namespace ktg
