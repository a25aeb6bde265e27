// Copyright (c) 2026 The ktg Authors.
// Immutable undirected graph in CSR (compressed sparse row) form, plus the
// mutable builder used to construct it.
//
// The graph is the substrate every other module sits on: the KTG engines walk
// candidate sets drawn from it, the BFS machinery computes hop distances over
// it, and the NL/NLRNL indexes are materialized views of its k-hop balls.
// Edges are undirected, simple (deduplicated, no self-loops) and neighbor
// lists are sorted by vertex id, so membership tests are O(log deg).

#ifndef KTG_GRAPH_GRAPH_H_
#define KTG_GRAPH_GRAPH_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "graph/types.h"
#include "util/macros.h"

namespace ktg {

/// An immutable simple undirected graph with vertices 0..n-1.
class Graph {
 public:
  Graph() = default;

  uint32_t num_vertices() const {
    return static_cast<uint32_t>(offsets_.size() - 1);
  }

  /// Number of undirected edges.
  uint64_t num_edges() const { return neighbors_.size() / 2; }

  /// Sorted neighbors of `v`.
  std::span<const VertexId> Neighbors(VertexId v) const {
    KTG_DCHECK(v < num_vertices());
    return {neighbors_.data() + offsets_[v],
            neighbors_.data() + offsets_[v + 1]};
  }

  uint32_t Degree(VertexId v) const {
    KTG_DCHECK(v < num_vertices());
    return static_cast<uint32_t>(offsets_[v + 1] - offsets_[v]);
  }

  /// True iff the undirected edge {u, v} exists. O(log min(deg)).
  bool HasEdge(VertexId u, VertexId v) const;

  /// Average degree (2m/n); 0 for the empty graph.
  double AverageDegree() const {
    const uint32_t n = num_vertices();
    return n == 0 ? 0.0
                  : static_cast<double>(neighbors_.size()) / n;
  }

  /// Approximate heap footprint in bytes.
  size_t MemoryBytes() const {
    return offsets_.capacity() * sizeof(uint64_t) +
           neighbors_.capacity() * sizeof(VertexId);
  }

  /// Returns all edges as (u, v) pairs with u < v, sorted.
  std::vector<std::pair<VertexId, VertexId>> EdgeList() const;

  /// Same vertex count and edge set (the CSR form is canonical).
  bool operator==(const Graph& other) const = default;

 private:
  friend class GraphBuilder;
  friend Graph WithEdgeAdded(const Graph& graph, VertexId a, VertexId b);
  friend Graph WithEdgeRemoved(const Graph& graph, VertexId a, VertexId b);

  // Copy of `graph` with the in-range edge {a, b} (a != b) inserted into or
  // removed from both adjacency lists; one O(n + m) pass, no re-sort.
  static Graph Spliced(const Graph& graph, VertexId a, VertexId b,
                       bool insert);

  std::vector<uint64_t> offsets_ = {0};  // size n+1
  std::vector<VertexId> neighbors_;      // size 2m, sorted per vertex
};

/// Accumulates edges and produces an immutable Graph.
///
/// The builder accepts duplicate edges, both orientations and self-loops and
/// normalizes them away: the resulting Graph is always simple. Vertices are
/// implicitly created up to the largest id seen (or `min_vertices`).
class GraphBuilder {
 public:
  /// Creates a builder for a graph with at least `min_vertices` vertices.
  explicit GraphBuilder(uint32_t min_vertices = 0)
      : num_vertices_(min_vertices) {}

  /// Adds an undirected edge; self-loops are silently dropped.
  void AddEdge(VertexId u, VertexId v);

  /// Ensures the graph has at least `n` vertices.
  void EnsureVertices(uint32_t n) {
    if (n > num_vertices_) num_vertices_ = n;
  }

  uint32_t num_vertices() const { return num_vertices_; }
  size_t num_added_edges() const { return edges_.size(); }

  /// Finalizes into a CSR graph. The builder is left empty.
  Graph Build();

 private:
  uint32_t num_vertices_;
  std::vector<std::pair<VertexId, VertexId>> edges_;  // normalized u < v
};

/// Returns a copy of `graph` with the undirected edge {a, b} added (no-op
/// copy when the edge already exists or a == b). The vertex set grows if an
/// endpoint is out of range.
Graph WithEdgeAdded(const Graph& graph, VertexId a, VertexId b);

/// Returns a copy of `graph` with the undirected edge {a, b} removed (no-op
/// copy when absent).
Graph WithEdgeRemoved(const Graph& graph, VertexId a, VertexId b);

}  // namespace ktg

#endif  // KTG_GRAPH_GRAPH_H_
