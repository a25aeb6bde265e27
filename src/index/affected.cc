// Copyright (c) 2026 The ktg Authors.

#include "index/affected.h"

#include <cstdlib>

#include "graph/bfs.h"

namespace ktg {
namespace {

// |da - db| with kUnreachable treated as +infinity; returns a large value
// when exactly one side is unreachable and 0 when both are.
int64_t DistanceGap(HopDistance da, HopDistance db) {
  const bool ia = (da == kUnreachable);
  const bool ib = (db == kUnreachable);
  if (ia && ib) return 0;
  if (ia || ib) return 1 << 20;
  return std::llabs(static_cast<int64_t>(da) - static_cast<int64_t>(db));
}

}  // namespace

std::vector<VertexId> AffectedByInsertion(const Graph& old_graph, VertexId a,
                                          VertexId b) {
  const auto da = DistancesFrom(old_graph, a);
  const auto db = DistancesFrom(old_graph, b);
  std::vector<VertexId> out;
  for (VertexId u = 0; u < old_graph.num_vertices(); ++u) {
    if (DistanceGap(da[u], db[u]) >= 2) out.push_back(u);
  }
  return out;
}

std::vector<VertexId> AffectedByDeletion(const Graph& old_graph,
                                         const Graph& new_graph, VertexId a,
                                         VertexId b) {
  KTG_CHECK_MSG(old_graph.num_vertices() == new_graph.num_vertices(),
                "AffectedByDeletion: vertex sets differ");
  const auto da_old = DistancesFrom(old_graph, a);
  const auto db_old = DistancesFrom(old_graph, b);
  const auto da_new = DistancesFrom(new_graph, a);
  const auto db_new = DistancesFrom(new_graph, b);
  std::vector<VertexId> out;
  for (VertexId u = 0; u < old_graph.num_vertices(); ++u) {
    if (da_old[u] != da_new[u] || db_old[u] != db_new[u]) out.push_back(u);
  }
  return out;
}

}  // namespace ktg
