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

}  // namespace ktg
