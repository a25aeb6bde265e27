// Copyright (c) 2026 The ktg Authors.
// Breadth-first search machinery over CSR graphs.
//
// Everything distance-related in the paper reduces to hop-bounded BFS:
//  * Dis(u, v)            — Definition 1 (shortest-path hop count),
//  * k-line tests          — Dis(u, v) <= k (Definition 2),
//  * NL / NLRNL building   — every vertex's hop levels.
//
// BoundedBfs searches from one source. It owns reusable scratch buffers
// (epoch-stamped visit marks and a frontier queue), so Distance() runs
// without allocation; the other searches allocate only their frontiers or
// results. RebuildRows of the indexes uses its Levels().
//
// LevelSweep runs up to 64 BFSs at once with one bit per source (MS-BFS,
// Then et al., PVLDB 2014): the NL and NLRNL builds get every vertex's
// levels from two sweeps per 64 sources instead of one Levels() call per
// vertex.
//
// Both are stateful and not thread-safe; create one per thread.

#ifndef KTG_GRAPH_BFS_H_
#define KTG_GRAPH_BFS_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "graph/types.h"

namespace ktg {

/// Reusable hop-bounded BFS engine over a fixed graph.
class BoundedBfs {
 public:
  /// Binds the engine to `graph`; the graph must outlive the engine.
  explicit BoundedBfs(const Graph& graph);

  /// Hop distance from `s` to `t`, or kUnreachable when it exceeds
  /// `max_hops` (or no path exists). Runs a single-direction BFS from `s`.
  HopDistance Distance(VertexId s, VertexId t, HopDistance max_hops);

  /// Same contract as Distance() but expands frontiers from both endpoints,
  /// which visits O(deg^(k/2)) instead of O(deg^k) vertices — the preferred
  /// primitive for k-line checks without an index.
  HopDistance DistanceBidirectional(VertexId s, VertexId t,
                                    HopDistance max_hops);

  /// Hop levels around `s`: result[i] holds the vertices at distance i+1,
  /// each level sorted by id; levels are produced up to `max_hops` levels or
  /// until the frontier empties, whichever comes first.
  std::vector<std::vector<VertexId>> Levels(VertexId s, HopDistance max_hops);

  /// Eccentricity of `s` within its connected component (0 for an isolated
  /// vertex).
  HopDistance Eccentricity(VertexId s);

  /// Number of vertices expanded by the most recent search (profiling aid).
  uint64_t last_visited() const { return last_visited_; }

 private:
  // Marks `v` visited in the current epoch; returns false if already marked.
  bool Mark(VertexId v) {
    if (stamp_[v] == epoch_) return false;
    stamp_[v] = epoch_;
    return true;
  }
  void NewEpoch();

  const Graph& graph_;
  std::vector<uint32_t> stamp_;
  uint32_t epoch_ = 0;
  std::vector<VertexId> frontier_;
  std::vector<VertexId> next_;
  // Second mark array for the backward side of bidirectional searches.
  std::vector<uint32_t> stamp_back_;
  uint64_t last_visited_ = 0;
};

/// Bit-parallel level sweep from up to 64 sources over a fixed graph.
///
/// Bit i of every word stands for sources[i]. The sweep keeps one word per
/// vertex each for seen, frontier and next (3n words of scratch, reused
/// across sweeps). Each Step() visits the vertices in ascending id order; a
/// vertex not yet seen by every source gathers its neighbours' frontier
/// words, and the bits it had not seen are its new level bits. So the
/// vertices a source reaches at depth d are reported in ascending id order,
/// exactly BoundedBfs::Levels(source)[d - 1].
///
/// The gather is a pull (OR the frontier words of every neighbour) unless
/// the frontier's arcs are under a quarter of all arcs, when the frontier
/// pushes its words along its own arcs first; on the preset graphs this cut
/// the sweep by a quarter to a third against pull only. Both give the same
/// levels.
class LevelSweep {
 public:
  /// Sources per sweep: one machine word.
  static constexpr uint32_t kWidth = 64;

  /// Binds the sweep to `graph`; the graph must outlive the sweep.
  explicit LevelSweep(const Graph& graph);

  /// Starts a sweep at depth 0 from 1..kWidth `sources`.
  void Start(std::span<const VertexId> sources);

  /// Start() from the `count` consecutive sources first .. first+count-1,
  /// so bit i stands for vertex first + i (a SweepBatch).
  void StartRange(VertexId first, uint32_t count);

  /// Advances one level: calls `visit(v, bits)` for every vertex v at
  /// distance depth()+1 from at least one source, in ascending v, where
  /// `bits` holds the sources at exactly that distance; then increments
  /// depth(). Returns false, having reported nothing and left depth()
  /// unchanged, when no source reaches a new vertex.
  template <typename Visit>
  bool Step(Visit&& visit);

  /// Number of levels reported since Start().
  HopDistance depth() const { return depth_; }

 private:
  // Whether a frontier with `frontier_arcs` arcs gathers by push.
  bool PushPays(uint64_t frontier_arcs) const {
    return frontier_arcs * 4 < 2 * graph_.num_edges();
  }

  const Graph& graph_;
  std::vector<uint64_t> seen_;
  std::vector<uint64_t> frontier_;
  std::vector<uint64_t> next_;
  uint64_t all_ = 0;  // one bit per source of the current sweep
  bool push_ = false;
  HopDistance depth_ = 0;
};

template <typename Visit>
bool LevelSweep::Step(Visit&& visit) {
  const uint32_t n = graph_.num_vertices();
  if (push_) {
    std::fill(next_.begin(), next_.end(), 0);
    for (VertexId u = 0; u < n; ++u) {
      const uint64_t bits = frontier_[u];
      if (bits == 0) continue;
      for (const VertexId w : graph_.Neighbors(u)) next_[w] |= bits;
    }
  }
  bool reached = false;
  uint64_t frontier_arcs = 0;
  for (VertexId v = 0; v < n; ++v) {
    const uint64_t seen = seen_[v];
    uint64_t fresh = 0;
    if (seen != all_) {
      if (push_) {
        fresh = next_[v];
      } else {
        for (const VertexId w : graph_.Neighbors(v)) fresh |= frontier_[w];
      }
      fresh &= ~seen;
      if (fresh != 0) {
        seen_[v] = seen | fresh;
        reached = true;
        frontier_arcs += graph_.Degree(v);
        visit(v, fresh);
      }
    }
    next_[v] = fresh;
  }
  frontier_.swap(next_);
  push_ = PushPays(frontier_arcs);
  if (reached) ++depth_;
  return reached;
}

/// Batch b of a sweep over all n vertices: the sources [first, first +
/// width), LevelSweep::kWidth of them except in the last batch.
struct SweepBatch {
  SweepBatch(uint64_t b, uint32_t n)
      : first(static_cast<VertexId>(b * LevelSweep::kWidth)),
        width(std::min<uint32_t>(LevelSweep::kWidth, n - first)) {}

  /// Number of batches covering n vertices.
  static uint64_t Count(uint32_t n) {
    return (uint64_t{n} + LevelSweep::kWidth - 1) / LevelSweep::kWidth;
  }

  VertexId first;
  uint32_t width;
};

/// Convenience one-shot: hop distance between `s` and `t` with no bound.
/// Allocates scratch internally — use BoundedBfs for hot paths.
HopDistance HopDistanceBetween(const Graph& graph, VertexId s, VertexId t);

/// Full single-source hop distances; unreachable vertices get kUnreachable.
std::vector<HopDistance> DistancesFrom(const Graph& graph, VertexId s);

}  // namespace ktg

#endif  // KTG_GRAPH_BFS_H_
