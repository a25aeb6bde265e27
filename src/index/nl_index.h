// Copyright (c) 2026 The ktg Authors.
// The NL (h-hop neighbors list) index of Section V.A.
//
// For every vertex the index stores its BFS levels 1..h, where h is chosen
// per vertex as the hop level with the maximal neighbor count (the paper's
// heuristic: if that big level is already materialized, most checks never
// have to expand). A k-line check against vertex v scans v's stored levels;
// when k exceeds the stored horizon the index expands further levels from
// the stored frontier on demand — Algorithm 2 — and (by default) memoizes
// the expansion back into the list, exactly the `L[u_j][j+1] =
// expandNeighbor(...)` of the pseudo-code. That memoization is what makes NL
// grow toward all-pairs storage on large-k workloads (Figures 7(b) and 9).
//
// The index owns a private copy of the graph so that the dynamic update API
// (edge insertion/deletion) is self-contained.

#ifndef KTG_INDEX_NL_INDEX_H_
#define KTG_INDEX_NL_INDEX_H_

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "index/distance_checker.h"
#include "util/status.h"

namespace ktg {

class BoundedBfs;

/// Tuning knobs for NlIndex.
struct NlIndexOptions {
  /// Upper bound on the per-vertex h chosen at build time (the argmax level
  /// may not exceed this). Keeps worst-case space bounded on dense graphs.
  uint32_t max_stored_hops = 8;

  /// When true (paper behaviour), on-demand expansions are written back into
  /// the lists; when false the index stays at its build-time footprint and
  /// out-of-horizon checks fall back to plain bounded BFS.
  bool memoize_expansions = true;

  /// Worker threads for the construction-time level sweeps (0 = the CPUs
  /// the calling thread may run on). Every thread count produces an
  /// identical index — the 64-vertex batches are independent — and 1 runs
  /// the sweeps serially on the calling thread. Only construction is
  /// affected; queries and dynamic updates always run on the calling
  /// thread.
  uint32_t num_threads = 0;
};

/// The h-hop neighbors list index.
class NlIndex final : public DistanceChecker {
 public:
  /// Builds the index for `graph` (copied): two 64-source level sweeps
  /// (graph/bfs.h) per 64 vertices, at most max_stored_hops + 1 levels
  /// deep, one to size the lists and one to fill them.
  explicit NlIndex(const Graph& graph, NlIndexOptions options = {});

  std::string name() const override { return "NL"; }
  size_t MemoryBytes() const override;

  /// Check paths mutate the lists when memoization is on; only the
  /// fixed-footprint configuration is safe to share across threads.
  bool concurrent_read_safe() const override {
    return !options_.memoize_expansions;
  }

  /// The per-vertex h selected at build time (before any memoized growth).
  uint32_t base_hops(VertexId v) const { return base_h_[v]; }

  /// Levels currently stored for `v` (>= base_hops after memoization).
  uint32_t stored_hops(VertexId v) const {
    return static_cast<uint32_t>(lists_[v].levels.size());
  }

  /// Sorted (i+1)-hop neighbors of `v` currently stored; i < stored_hops(v).
  const std::vector<VertexId>& Level(VertexId v, uint32_t i) const {
    return lists_[v].levels[i];
  }

  /// Adopts `graph` (same vertex count, checked) and rebuilds the lists of
  /// `rows` against it from scratch (memoized expansions of those rows are
  /// dropped); every other list is kept. Exact when `rows` covers every
  /// vertex whose distances differ between the old and the new graph
  /// (index/affected.h).
  void RebuildRows(const Graph& graph, std::span<const VertexId> rows);

  /// Single-edge wrappers over RebuildRows with the affected set of
  /// index/affected.h. No-op when the edge already exists (insert), is
  /// absent (remove), is a self-loop or is out of range.
  void InsertEdge(VertexId a, VertexId b);
  void RemoveEdge(VertexId a, VertexId b);

  /// Number of vertices rebuilt by the last update call.
  uint64_t last_update_rebuilds() const { return last_update_rebuilds_; }

  const Graph& graph() const { return graph_; }

 protected:
  bool IsFartherThanImpl(VertexId u, VertexId v, HopDistance k) override;

 private:
  // Deserialization (index/serialization.{h,cc}) reconstructs an index from
  // its saved parts without re-running the per-vertex BFS builds.
  friend Status SaveNlIndex(const NlIndex&, const std::string&);
  friend Result<NlIndex> LoadNlIndex(const std::string&);
  NlIndex() = default;

  struct VertexLists {
    std::vector<std::vector<VertexId>> levels;  // levels[i] = (i+1)-hop, sorted
    bool exhausted = false;  // levels reach the whole component
  };

  // Builds every per-vertex list by level sweeps over 64-vertex batches,
  // partitioned over options_.num_threads workers; the output is what
  // BuildVertex gives every vertex, for every thread count.
  void BuildAll();
  // Rebuilds one vertex's lists from a single-source BFS (RebuildRows).
  void BuildVertex(VertexId v, BoundedBfs& bfs);
  // Grows lists_[v] by one level from its current frontier. Returns false
  // (and sets exhausted) when the frontier is empty.
  bool ExpandOneLevel(VertexId v);
  // Fallback path for memoize_expansions == false.
  bool FartherByBfs(VertexId u, VertexId v, HopDistance k);

  Graph graph_;
  NlIndexOptions options_;
  std::vector<VertexLists> lists_;
  std::vector<uint32_t> base_h_;
  uint64_t last_update_rebuilds_ = 0;
};

}  // namespace ktg

#endif  // KTG_INDEX_NL_INDEX_H_
