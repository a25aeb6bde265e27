// Copyright (c) 2026 The ktg Authors.

#include "keywords/inverted_index.h"

#include <algorithm>
#include <map>

namespace ktg {

InvertedIndex::InvertedIndex(const AttributedGraph& g) {
  const uint32_t num_kw = g.num_keywords();
  std::vector<uint64_t> counts(num_kw + 1, 0);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    for (const KeywordId kw : g.Keywords(v)) ++counts[kw + 1];
  }
  offsets_.assign(num_kw + 1, 0);
  for (uint32_t i = 0; i < num_kw; ++i) {
    offsets_[i + 1] = offsets_[i] + counts[i + 1];
  }

  postings_.resize(offsets_[num_kw]);
  std::vector<uint64_t> cursor(offsets_.begin(), offsets_.end() - 1);
  // Vertices are visited in ascending order, so each posting list comes out
  // sorted without a final sort pass.
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    for (const KeywordId kw : g.Keywords(v)) postings_[cursor[kw]++] = v;
  }
}

std::span<const VertexId> InvertedIndex::Postings(KeywordId kw) const {
  // Note: kw can be kInvalidKeyword; the unsigned comparison below must not
  // wrap, so compare kw itself against the keyword count.
  if (offsets_.size() < 2 || kw >= offsets_.size() - 1) return {};
  return {postings_.data() + offsets_[kw], postings_.data() + offsets_[kw + 1]};
}

std::vector<VertexCover> InvertedIndex::Candidates(
    std::span<const KeywordId> query_keywords) const {
  KTG_CHECK_MSG(query_keywords.size() <= 64,
                "queries support at most 64 keywords");
  // Accumulate masks per vertex; std::map keeps the output id-sorted.
  std::map<VertexId, CoverMask> acc;
  for (size_t bit = 0; bit < query_keywords.size(); ++bit) {
    const CoverMask m = CoverMask{1} << bit;
    for (const VertexId v : Postings(query_keywords[bit])) {
      acc[v] |= m;
    }
  }
  std::vector<VertexCover> out;
  out.reserve(acc.size());
  for (const auto& [v, mask] : acc) out.push_back({v, mask});
  return out;
}

CoverMask CoverMaskOf(const AttributedGraph& g, VertexId v,
                      std::span<const KeywordId> query_keywords) {
  CoverMask mask = 0;
  for (size_t bit = 0; bit < query_keywords.size(); ++bit) {
    if (query_keywords[bit] != kInvalidKeyword &&
        g.HasKeyword(v, query_keywords[bit])) {
      mask |= CoverMask{1} << bit;
    }
  }
  return mask;
}

}  // namespace ktg
