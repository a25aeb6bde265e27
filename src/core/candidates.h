// Copyright (c) 2026 The ktg Authors.
// Candidate extraction: the initial S_R of Algorithm 1.
//
// Definition 7 requires every member to cover at least one query keyword, so
// the initial candidate set is the union of the query keywords' posting
// lists. The Section IV "Discussion" extension additionally removes
// candidates socially close to any query vertex (the paper's "authors").

#ifndef KTG_CORE_CANDIDATES_H_
#define KTG_CORE_CANDIDATES_H_

#include <algorithm>
#include <cstddef>
#include <vector>

#include "core/query.h"
#include "index/distance_checker.h"
#include "keywords/inverted_index.h"

namespace ktg {

/// One entry of the remaining-candidates set S_R.
struct Candidate {
  VertexId vertex = kInvalidVertex;
  /// Position in the run's initially ranked S_R; children copy it. The
  /// engine's k-line memo is indexed by it.
  uint32_t slot = 0;
  /// Coverage mask relative to the query keyword list.
  CoverMask mask = 0;
  /// Cached degree (for the VKC-DEG tie-break).
  uint32_t degree = 0;
  /// Valid keyword coverage count w.r.t. the current intermediate set
  /// (Definition 8, as a count); maintained by the engine.
  int vkc = 0;

  bool operator==(const Candidate&) const = default;
};

/// Materializes the initial candidate set of `query`: every vertex covering
/// >= 1 query keyword, minus vertices within `query.tenuity` hops of any
/// query vertex (and the query vertices themselves). `kline_removed`, when
/// non-null, receives the number of candidates dropped by the query-vertex
/// exclusion. `checks`, when non-null, is the tally the exclusion's
/// distance checks count into (see DistanceChecker).
std::vector<Candidate> ExtractCandidates(const AttributedGraph& g,
                                         const InvertedIndex& index,
                                         const KtgQuery& query,
                                         DistanceChecker& checker,
                                         uint64_t* kline_removed = nullptr,
                                         uint64_t* checks = nullptr);

/// Sorts `cands` by `less` in place, exploiting an order that is already
/// nearly sorted: an insertion pass, O(n + inversions). A child's S_R
/// keeps its parent's order with some vkc values lowered, so it has few
/// inversions. Past a budget of element moves the pass finishes with
/// std::sort instead, so a badly unsorted input costs O(n log n), not
/// O(n^2). When `less` is a total order the result is exactly
/// std::sort's.
template <typename Less>
void ResortCandidates(std::vector<Candidate>& cands, Less less) {
  const size_t n = cands.size();
  size_t moves_left = 8 * n;
  for (size_t i = 1; i < n; ++i) {
    if (!less(cands[i], cands[i - 1])) continue;
    Candidate x = cands[i];
    size_t j = i;
    do {
      if (moves_left == 0) {
        cands[j] = x;
        std::sort(cands.begin(), cands.end(), less);
        return;
      }
      --moves_left;
      cands[j] = cands[j - 1];
      --j;
    } while (j > 0 && less(x, cands[j - 1]));
    cands[j] = x;
  }
}

}  // namespace ktg

#endif  // KTG_CORE_CANDIDATES_H_
