// Copyright (c) 2026 The ktg Authors.

#include "core/query.h"

namespace ktg {

KtgQuery MakeQuery(const AttributedGraph& g,
                   std::span<const std::string> keyword_terms,
                   uint32_t group_size, HopDistance tenuity, uint32_t top_n) {
  KtgQuery q;
  q.keywords.reserve(keyword_terms.size());
  for (const auto& term : keyword_terms) {
    q.keywords.push_back(g.vocabulary().Find(term));
  }
  q.group_size = group_size;
  q.tenuity = tenuity;
  q.top_n = top_n;
  return q;
}

Status ValidateQuery(const KtgQuery& query, const AttributedGraph& g) {
  if (query.keywords.empty()) {
    return Status::InvalidArgument("query keyword set W_Q is empty");
  }
  if (query.keywords.size() > 64) {
    return Status::InvalidArgument("at most 64 query keywords are supported");
  }
  // Duplicate keywords would double-count coverage bits; reject them
  // (kInvalidKeyword entries may repeat — each stands for a distinct
  // unknown term and can never be covered).
  for (size_t i = 0; i < query.keywords.size(); ++i) {
    for (size_t j = i + 1; j < query.keywords.size(); ++j) {
      if (query.keywords[i] != kInvalidKeyword &&
          query.keywords[i] == query.keywords[j]) {
        return Status::InvalidArgument("duplicate query keyword at positions " +
                                       std::to_string(i) + " and " +
                                       std::to_string(j));
      }
    }
  }
  if (query.group_size == 0) {
    return Status::InvalidArgument("group size p must be >= 1");
  }
  if (query.top_n == 0) {
    return Status::InvalidArgument("N must be >= 1");
  }
  for (const VertexId v : query.query_vertices) {
    if (v >= g.num_vertices()) {
      return Status::OutOfRange("query vertex " + std::to_string(v) +
                                " out of range");
    }
  }
  return Status::OK();
}

Status CheckQueryParams(int64_t p, int64_t k, int64_t n,
                        int64_t num_keywords) {
  struct Range {
    const char* name;
    int64_t value, lo, hi;
  };
  for (const Range& r : {Range{"p", p, 1, 64}, Range{"k", k, 0, 255},
                         Range{"n", n, 1, 4096},
                         Range{"keyword count", num_keywords, 1, 64}}) {
    if (r.value < r.lo || r.value > r.hi) {
      return Status::InvalidArgument(
          std::string(r.name) + " must be in [" + std::to_string(r.lo) +
          ", " + std::to_string(r.hi) + "] (got " + std::to_string(r.value) +
          ")");
    }
  }
  return Status::OK();
}

}  // namespace ktg
