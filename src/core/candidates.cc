// Copyright (c) 2026 The ktg Authors.

#include "core/candidates.h"

#include <algorithm>

#include "util/sorted_vector.h"

namespace ktg {

std::vector<Candidate> ExtractCandidates(const AttributedGraph& g,
                                         const InvertedIndex& index,
                                         const KtgQuery& query,
                                         DistanceChecker& checker,
                                         uint64_t* kline_removed,
                                         uint64_t* checks) {
  const auto covers = index.Candidates(query.keywords);
  std::vector<VertexId> barred(query.excluded_vertices);
  SortUnique(barred);
  std::vector<Candidate> out;
  out.reserve(covers.size());
  uint64_t removed = 0;
  for (const auto& vc : covers) {
    if (SortedContains(barred, vc.vertex)) continue;
    bool excluded = false;
    for (const VertexId qv : query.query_vertices) {
      // IsFartherThan(v, v) is false, so query vertices exclude themselves.
      if (!checker.IsFartherThan(vc.vertex, qv, query.tenuity, checks)) {
        excluded = true;
        break;
      }
    }
    if (excluded) {
      ++removed;
      continue;
    }
    Candidate c;
    c.vertex = vc.vertex;
    c.mask = vc.mask;
    c.degree = g.graph().Degree(vc.vertex);
    c.vkc = PopCount(vc.mask);
    out.push_back(c);
  }
  if (kline_removed != nullptr) *kline_removed = removed;
  return out;
}

void RankCandidates(std::vector<Candidate>& cands, SortStrategy sort,
                    bool degree_ascending) {
  std::sort(cands.begin(), cands.end(),
            [&](const Candidate& a, const Candidate& b) {
              if (sort == SortStrategy::kQkc && a.vkc != b.vkc) {
                return a.vkc > b.vkc;
              }
              if (sort == SortStrategy::kVkcDeg && a.degree != b.degree) {
                return degree_ascending ? a.degree < b.degree
                                        : a.degree > b.degree;
              }
              return a.vertex < b.vertex;
            });
  for (size_t i = 0; i < cands.size(); ++i) {
    cands[i].slot = static_cast<uint32_t>(i);
  }
  std::sort(cands.begin(), cands.end(),
            [](const Candidate& a, const Candidate& b) {
              return a.vkc != b.vkc ? a.vkc > b.vkc : a.slot < b.slot;
            });
}

}  // namespace ktg
