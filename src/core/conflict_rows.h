// Copyright (c) 2026 The ktg Authors.
// Theorem 3's k-line rows between a run's candidates, read off the graph.
//
// Dis(c, v) <= k exactly when some vertex x has Dis(c, x) <= floor(k/2) and
// Dis(x, v) <= ceil(k/2) (take x on a shortest path). So one expansion from
// the candidates, floor(k/2) hops deep, gives every vertex it touches the
// bitset of the candidate slots within that distance, and a pivot's k-line
// row is the OR of those bitsets over the pivot's own ceil(k/2)-hop
// neighbourhood: for k = 2, 1 + deg(pivot) row ORs in place of |S_R| index
// checks. The expansion is a multi-source BFS with one bit per slot (MS-BFS,
// Then et al., PVLDB 2014) that walks only its frontier: each level pushes
// a frontier vertex's fresh bits along its arcs, so a vertex shared by many
// candidates' balls is expanded once per level, not once per candidate. It
// stops at its depth or when the frontier empties. Only touched vertices
// hold a bitset; the vertex -> bitset map is one u32 per vertex, kept
// across builds and cleared through the touched list.
//
// Build() writes; Fill() only reads and keeps its own scratch on the stack,
// so the root-parallel workers share one build and each fills its own rows.
// Costs are estimated in word operations, a vertex visit costing kVisitCost
// more, so a caller can weigh them against its checker.

#ifndef KTG_CORE_CONFLICT_ROWS_H_
#define KTG_CORE_CONFLICT_ROWS_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "graph/types.h"

namespace ktg {

class ConflictRows {
 public:
  /// Expands floor(k/2) hops from every slot of `slot_vertex` (slot i is
  /// vertex slot_vertex[i]; the vertices are distinct) over `graph`, which
  /// must outlive the rows. Replaces the previous build.
  void Build(const Graph& graph, std::span<const VertexId> slot_vertex,
             HopDistance k);

  /// ORs into within[w * stride], for every word w < words(), the slots
  /// within k hops of `pivot`, the pivot's own slot included.
  void Fill(VertexId pivot, uint64_t* within, size_t stride) const;

  /// Words per row: ceil(|slots| / 64).
  size_t words() const { return words_; }

  /// Overheads in word operations: of visiting a vertex when filling a
  /// row and when building (which may create the vertex's bitset, and
  /// later clear it), and of one Fill() call.
  static constexpr uint64_t kVisitCost = 3;
  static constexpr uint64_t kBuildVisitCost = 6;
  static constexpr uint64_t kFillCallVisits = 8;
  /// A build's level past the first pushes whole rows to scattered rows;
  /// its arcs are priced at this many first-level visits. Set so that a
  /// run buys such a build only once its checks paid for it about three
  /// times over: the short runs that stop just after a build are the
  /// common ones at k >= 4.
  static constexpr uint64_t kDeepVisitFactor = 6;

  /// Estimated cost of Build() for these slots: exact for the first level,
  /// every vertex and arc per deeper level.
  static uint64_t BuildCost(const Graph& graph,
                            std::span<const VertexId> slot_vertex,
                            HopDistance k);

  /// Estimated cost of Fill(pivot) on rows of `words` words built for k:
  /// exact up to two hops (repeats included, as Fill's two-hop walk makes
  /// them), the whole graph per row beyond; visits past the first hop land
  /// on scattered rows and cost twice. Needs no build. Pricing a two-hop
  /// walk reads every neighbour's degree, so it stops once the price
  /// passes `cap` and returns the (lower) price reached.
  static uint64_t FillCost(const Graph& graph, VertexId pivot, HopDistance k,
                           size_t words, uint64_t cap = ~uint64_t{0});

 private:
  static constexpr uint32_t kNone = ~uint32_t{0};

  // Vertices a walk `hops` deep from `v` visits, repeats included, up to
  // two hops (the count stops growing once past `cap`); every vertex and
  // arc beyond.
  static uint64_t Visits(const Graph& graph, VertexId v, HopDistance hops,
                         uint64_t cap = ~uint64_t{0});
  // x's bitset index, creating it zeroed if new.
  uint32_t RowOf(VertexId x) {
    uint32_t& row = row_of_[x];
    if (row == kNone) row = NewRow(x);
    return row;
  }
  uint32_t NewRow(VertexId x);
  // Adds `reached`, word w of row's new bits, to the next level's frontier.
  void Queue(uint32_t row, uint32_t w, uint64_t reached);
  // ORs x's bitset, if x was touched, into `within`.
  void OrInto(VertexId x, uint64_t* within, size_t stride) const;

  const Graph* graph_ = nullptr;
  HopDistance pivot_hops_ = 0;
  size_t words_ = 0;
  std::vector<uint32_t> row_of_;   // vertex -> its bitset's index, or kNone
  std::vector<VertexId> touched_;  // vertices holding a bitset
  std::vector<uint64_t> bits_;     // words_ per touched vertex, in order
  // Build scratch for levels past the first. A frontier vertex's row and
  // the words [lo, hi) holding its fresh bits, the slots that first reached
  // it at the current level (words_ per frontier vertex in fresh_, in
  // frontier order), and the same for the next level, which queued_ (per
  // touched vertex, kNone when not queued) indexes while it is built.
  struct Front {
    uint32_t row;
    uint32_t lo;
    uint32_t hi;
  };
  std::vector<Front> frontier_;
  std::vector<uint64_t> fresh_;
  std::vector<Front> next_;
  std::vector<uint64_t> next_fresh_;
  std::vector<uint32_t> queued_;
};

}  // namespace ktg

#endif  // KTG_CORE_CONFLICT_ROWS_H_
