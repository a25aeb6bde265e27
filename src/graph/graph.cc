// Copyright (c) 2026 The ktg Authors.

#include "graph/graph.h"

#include <algorithm>

namespace ktg {

bool Graph::HasEdge(VertexId u, VertexId v) const {
  if (u >= num_vertices() || v >= num_vertices()) return false;
  // Search the smaller adjacency list.
  if (Degree(u) > Degree(v)) std::swap(u, v);
  const auto nbrs = Neighbors(u);
  return std::binary_search(nbrs.begin(), nbrs.end(), v);
}

std::vector<std::pair<VertexId, VertexId>> Graph::EdgeList() const {
  std::vector<std::pair<VertexId, VertexId>> edges;
  edges.reserve(num_edges());
  for (VertexId u = 0; u < num_vertices(); ++u) {
    for (const VertexId v : Neighbors(u)) {
      if (u < v) edges.emplace_back(u, v);
    }
  }
  return edges;
}

void GraphBuilder::AddEdge(VertexId u, VertexId v) {
  if (u > v) std::swap(u, v);
  EnsureVertices(v + 1);
  if (u == v) return;  // the vertex exists, but no self-loop is stored
  edges_.emplace_back(u, v);
}

Graph GraphBuilder::Build() {
  // Deduplicate normalized edges.
  std::sort(edges_.begin(), edges_.end());
  edges_.erase(std::unique(edges_.begin(), edges_.end()), edges_.end());

  Graph g;
  const uint32_t n = num_vertices_;
  g.offsets_.assign(n + 1, 0);

  // Two-pass CSR construction: count degrees, prefix-sum, scatter.
  for (const auto& [u, v] : edges_) {
    ++g.offsets_[u + 1];
    ++g.offsets_[v + 1];
  }
  for (uint32_t i = 0; i < n; ++i) g.offsets_[i + 1] += g.offsets_[i];

  g.neighbors_.resize(edges_.size() * 2);
  std::vector<uint64_t> cursor(g.offsets_.begin(), g.offsets_.end() - 1);
  for (const auto& [u, v] : edges_) {
    g.neighbors_[cursor[u]++] = v;
    g.neighbors_[cursor[v]++] = u;
  }
  // Edges were scattered in (u,v)-sorted order; each vertex's list needs a
  // final sort because the v-side insertions interleave.
  for (uint32_t i = 0; i < n; ++i) {
    std::sort(g.neighbors_.begin() + static_cast<int64_t>(g.offsets_[i]),
              g.neighbors_.begin() + static_cast<int64_t>(g.offsets_[i + 1]));
  }

  edges_.clear();
  edges_.shrink_to_fit();
  return g;
}

Graph Graph::Spliced(const Graph& graph, VertexId a, VertexId b,
                     bool insert) {
  const uint32_t n = graph.num_vertices();
  Graph out;
  out.offsets_.resize(n + 1);
  out.neighbors_.reserve(graph.neighbors_.size() + (insert ? 2 : 0));
  for (VertexId v = 0; v < n; ++v) {
    const auto nbrs = graph.Neighbors(v);
    if (v == a || v == b) {
      const VertexId other = v == a ? b : a;
      const auto pos = std::lower_bound(nbrs.begin(), nbrs.end(), other);
      out.neighbors_.insert(out.neighbors_.end(), nbrs.begin(), pos);
      if (insert) out.neighbors_.push_back(other);
      out.neighbors_.insert(out.neighbors_.end(), insert ? pos : pos + 1,
                            nbrs.end());
    } else {
      out.neighbors_.insert(out.neighbors_.end(), nbrs.begin(), nbrs.end());
    }
    out.offsets_[v + 1] = out.neighbors_.size();
  }
  return out;
}

Graph WithEdgeAdded(const Graph& graph, VertexId a, VertexId b) {
  if (a < graph.num_vertices() && b < graph.num_vertices()) {
    if (a == b || graph.HasEdge(a, b)) return graph;
    return Graph::Spliced(graph, a, b, /*insert=*/true);
  }
  // An endpoint out of range grows the vertex set: rebuild.
  GraphBuilder gb(graph.num_vertices());
  for (const auto& [u, v] : graph.EdgeList()) gb.AddEdge(u, v);
  gb.AddEdge(a, b);
  return gb.Build();
}

Graph WithEdgeRemoved(const Graph& graph, VertexId a, VertexId b) {
  if (!graph.HasEdge(a, b)) return graph;
  return Graph::Spliced(graph, a, b, /*insert=*/false);
}

}  // namespace ktg
