// Copyright (c) 2026 The ktg Authors.
// Candidate extraction: the initial S_R of Algorithm 1.
//
// Definition 7 requires every member to cover at least one query keyword, so
// the initial candidate set is the union of the query keywords' posting
// lists. The Section IV "Discussion" extension additionally removes
// candidates socially close to any query vertex (the paper's "authors").

#ifndef KTG_CORE_CANDIDATES_H_
#define KTG_CORE_CANDIDATES_H_

#include <cstddef>
#include <vector>

#include "core/options.h"
#include "core/query.h"
#include "index/distance_checker.h"
#include "keywords/inverted_index.h"

namespace ktg {

/// One entry of the remaining-candidates set S_R.
struct Candidate {
  VertexId vertex = kInvalidVertex;
  /// The candidate's bit in the engine's S_R bitsets and k-line memo rows,
  /// numbered once per run by the sort strategy's tie key (RankCandidates).
  uint32_t slot = 0;
  /// Coverage mask relative to the query keyword list.
  CoverMask mask = 0;
  /// Cached degree (for the VKC-DEG tie-break).
  uint32_t degree = 0;
  /// Valid keyword coverage count (Definition 8, as a count), against an
  /// empty S_I at extraction. The greedy construction refreshes it; the
  /// exact engine keeps a node's values as vkc buckets (core/frontier.h).
  int vkc = 0;
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

/// Ranks a run's S_R for the exact engine. Each candidate's `slot` becomes
/// its position under `sort`'s static tie key: for VKC-DEG, degree in the
/// `degree_ascending` direction, then vertex; for VKC, vertex; for QKC,
/// the root rank (vkc descending, then vertex). `cands` ends in the root
/// order, vkc descending, then slot ascending, which is every strategy's
/// order at every node (core/frontier.h).
void RankCandidates(std::vector<Candidate>& cands, SortStrategy sort,
                    bool degree_ascending);

}  // namespace ktg

#endif  // KTG_CORE_CANDIDATES_H_
