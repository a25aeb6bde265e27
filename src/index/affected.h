// Copyright (c) 2026 The ktg Authors.
// Affected-vertex computation for dynamic index maintenance (Section V,
// "updates for NLRNL").
//
// Both the NL and NLRNL indexes are per-vertex materializations of BFS
// levels, so after an edge change it suffices to rebuild the vertices whose
// single-source distance vector d(u, ·) changes. Both functions return
// exactly that set, {u : d_old(u, ·) != d_new(u, ·)}:
//
//  * Insertion of {a, b}: u gains a shorter path to some target iff
//    |d(u,a) - d(u,b)| >= 2 in the old graph (then d(u,b) drops to
//    d(u,a) + 1, or the reverse; with a gap of at most 1, routing through
//    the new edge never beats an existing path). Newly connected vertices
//    (exactly one of the distances finite) are included.
//  * Deletion of {a, b}: u is affected iff d(u,a) or d(u,b) differs between
//    the old and the new graph. If deleting the edge changes some d(u,x),
//    every shortest u→x path runs a→b in one fixed direction (say a before
//    b, so d(u,b) = d(u,a) + 1). Were d(u,b) unchanged, a shortest u→b path
//    avoiding the edge plus the old b→x suffix would keep d(u,x). So the
//    endpoint distances witness every change; the converse is immediate.
//    (The older test |d(u,a) - d(u,b)| == 1 is necessary but not
//    sufficient: it flags every u with *some* shortest path over the edge,
//    most of which have an alternative of the same length.)
//
// Pair symmetry: if a pair (w, x) changes distance, both d(w, ·) and
// d(x, ·) change, so both w and x are in the set. Rebuilding the affected
// vertices therefore also repairs all halved (smaller-id-side) pair
// storage.

#ifndef KTG_INDEX_AFFECTED_H_
#define KTG_INDEX_AFFECTED_H_

#include <vector>

#include "graph/graph.h"
#include "graph/types.h"

namespace ktg {

/// Vertices whose BFS levels change when edge {a, b} is inserted.
/// `old_graph` must not yet contain the edge. Sorted by id.
std::vector<VertexId> AffectedByInsertion(const Graph& old_graph, VertexId a,
                                          VertexId b);

/// Vertices whose BFS levels change when edge {a, b} is deleted.
/// `old_graph` must still contain the edge and `new_graph` must equal
/// `old_graph` without it (callers that apply the deletion already hold
/// both). Four BFS. Sorted by id.
std::vector<VertexId> AffectedByDeletion(const Graph& old_graph,
                                         const Graph& new_graph, VertexId a,
                                         VertexId b);

}  // namespace ktg

#endif  // KTG_INDEX_AFFECTED_H_
