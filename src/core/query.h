// Copyright (c) 2026 The ktg Authors.
// Query and result types for KTG / DKTG processing (Definitions 7 and 10).

#ifndef KTG_CORE_QUERY_H_
#define KTG_CORE_QUERY_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "graph/types.h"
#include "keywords/attributed_graph.h"
#include "obs/phases.h"
#include "util/bits.h"
#include "util/status.h"

namespace ktg {

/// A KTG query ⟨W_Q, p, k, N⟩.
struct KtgQuery {
  /// Query keyword ids (W_Q). At most 64; ids not present in the graph's
  /// vocabulary may be kInvalidKeyword — they stay in the denominator of
  /// QKC but can never be covered.
  std::vector<KeywordId> keywords;

  /// Group size p (>= 1).
  uint32_t group_size = 3;

  /// Tenuity constraint k: every member pair must satisfy Dis(u, v) > k.
  HopDistance tenuity = 1;

  /// Number of result groups N (>= 1).
  uint32_t top_n = 1;

  /// Optional query vertices (the "authors" of the Section IV discussion):
  /// candidates within `tenuity` hops of any of these — and the vertices
  /// themselves — are excluded from every result group.
  std::vector<VertexId> query_vertices;

  /// Vertices barred from appearing in any result group (exact exclusion,
  /// no neighborhood). DKTG-Greedy uses this to remove members of already
  /// accepted groups between rounds.
  std::vector<VertexId> excluded_vertices;

  uint32_t num_keywords() const {
    return static_cast<uint32_t>(keywords.size());
  }
};

/// Builds a KtgQuery from keyword strings; terms missing from the
/// vocabulary become kInvalidKeyword entries (uncoverable but counted in
/// |W_Q|, mirroring a user asking for an unknown topic).
KtgQuery MakeQuery(const AttributedGraph& g,
                   std::span<const std::string> keyword_terms,
                   uint32_t group_size, HopDistance tenuity, uint32_t top_n);

/// Validates structural constraints (sizes, vertex ranges, <= 64 keywords).
Status ValidateQuery(const KtgQuery& query, const AttributedGraph& g);

/// The parameter ranges every front end (wire requests, CLI flags) accepts:
/// p in [1, 64], k in [0, 255], N in [1, 4096] and 1 to 64 keywords.
/// Front ends check the raw values here before narrowing them into a
/// KtgQuery, so an out-of-range value is refused instead of wrapping onto
/// a valid one.
Status CheckQueryParams(int64_t p, int64_t k, int64_t n,
                        int64_t num_keywords);

/// A candidate result group.
struct Group {
  /// Member vertices, sorted ascending.
  std::vector<VertexId> members;

  /// Union of the members' coverage masks relative to the query keywords.
  CoverMask mask = 0;

  /// Number of query keywords jointly covered.
  int covered() const { return PopCount(mask); }

  bool operator==(const Group&) const = default;
};

/// Query keyword coverage of a group as a ratio (Definition 6).
inline double QkcRatio(const Group& g, uint32_t query_keyword_count) {
  return query_keyword_count == 0
             ? 0.0
             : static_cast<double>(g.covered()) / query_keyword_count;
}

/// Counters describing one engine run; benchmarks report these next to
/// latency so speedups can be attributed to pruning/filtering volume.
struct SearchStats {
  uint64_t nodes_expanded = 0;      ///< branch-and-bound tree nodes visited
  uint64_t groups_completed = 0;    ///< feasible size-p groups reached
  uint64_t keyword_prunes = 0;      ///< branches cut by Theorem 2
  /// Branches cut by the residual-coverage upper bound alone — the
  /// Theorem-2 additive bound had passed, the tighter clamp (see
  /// docs/bounds.md) did not. Disjoint from keyword_prunes.
  uint64_t ub_prunes = 0;
  uint64_t kline_filtered = 0;      ///< S_R removals by Theorem 3
  /// Checker invocations, tallied by the run itself, so concurrent runs
  /// on a shared checker never count each other's. A bulk ball traversal
  /// and a k-line row filled from the graph count as one each (see
  /// EngineOptions::bulk_filtering), so on the bulk path this counts
  /// answers obtained, not pairs answered.
  uint64_t distance_checks = 0;
  uint64_t candidates = 0;          ///< initial |S_R|
  /// Sound upper bound on the best achievable coverage count of this
  /// instance: min(|W_Q|, popcount of the candidate-mask union, sum of the
  /// p largest candidate coverages). A complete run tightens it to the
  /// found optimum; -1 = not computed (engines that predate the anytime
  /// layer, or zero-candidate instances short-circuited before the bound).
  int upper_bound = -1;
  /// Optimality gap of the returned groups: upper_bound minus the best
  /// coverage found. 0 for every complete run (the result is provably
  /// optimal); > 0 only when a budget truncated the search. Always >= 0 —
  /// the bound is sound (tests certify this against brute force).
  int gap = 0;
  /// True when an exact engine's search ran to the end (or the result was
  /// served from the cache): the groups are then the query's exact top-N.
  /// False when a node budget, deadline or stop_at_count cut the search,
  /// and always false for greedy, which never claims completeness. A
  /// per-run flag: operator+= leaves it unchanged.
  bool complete = false;
  double elapsed_ms = 0.0;          ///< wall-clock of the search
  /// Compute time: per-worker wall-clocks summed. Equals elapsed_ms for a
  /// serial run. Under the root-parallel engine it sums every worker's
  /// wall-clock, the calling thread's (worker 0) included, plus the
  /// caller's serial phases; it then exceeds elapsed_ms, and that ratio is
  /// the effective parallelism of the query.
  double cpu_ms = 0.0;
  /// Per-phase latency attribution (see obs/phases.h).
  obs::PhaseBreakdown phases;

  /// Merges counters. Counters and cpu_ms are additive; elapsed_ms is a
  /// wall-clock, so merging concurrent measurements takes the max — summing
  /// worker wall-clocks (the pre-observability behaviour) double-counts
  /// overlapping time and is exactly what cpu_ms now reports.
  SearchStats& operator+=(const SearchStats& o) {
    nodes_expanded += o.nodes_expanded;
    groups_completed += o.groups_completed;
    keyword_prunes += o.keyword_prunes;
    ub_prunes += o.ub_prunes;
    kline_filtered += o.kline_filtered;
    distance_checks += o.distance_checks;
    candidates += o.candidates;
    // Per-instance bounds: the aggregate keeps the loosest bound and the
    // summed gap (mean gap = gap / number of merged runs).
    upper_bound = upper_bound > o.upper_bound ? upper_bound : o.upper_bound;
    gap += o.gap;
    elapsed_ms = elapsed_ms > o.elapsed_ms ? elapsed_ms : o.elapsed_ms;
    cpu_ms += o.cpu_ms;
    phases += o.phases;
    return *this;
  }
};

/// Result of a KTG query: up to N groups, best coverage first.
struct KtgResult {
  std::vector<Group> groups;
  uint32_t query_keyword_count = 0;
  SearchStats stats;

  bool empty() const { return groups.empty(); }

  /// Coverage ratio of the best group (0 when empty).
  double best_coverage() const {
    return groups.empty() ? 0.0 : QkcRatio(groups.front(), query_keyword_count);
  }
};

}  // namespace ktg

#endif  // KTG_CORE_QUERY_H_
