// Copyright (c) 2026 The ktg Authors.
// The NLRNL ((c-1)-hop neighbors list + reverse c-hop neighbors list) index
// of Section V.B.
//
// Per vertex, NLRNL picks c as the hop level with the maximal neighbor count
// (c >= 2; the paper chooses c among the 2-hop, 3-hop, ... counts) and then
// stores every BFS level *except* level c:
//   forward lists:  levels 1 .. c-1
//   reverse lists:  levels c+1 .. ecc  ("neighbors whose distance is > c")
// Because every reachable vertex appears in exactly one level, absence from
// all stored lists pins the distance to exactly c — no on-demand expansion is
// ever needed, which is the index's advantage over NL. Skipping the largest
// level is what makes NLRNL smaller than NL in Figure 9(a).
//
// Space halving: a pair {u, v} is stored only in the lists of the smaller
// id; queries always consult min(u, v)'s entry ("we only store the hop
// neighbor whose id is greater than the user").
//
// Disconnected graphs: absence could otherwise be confused with
// unreachability, so the index keeps component labels and answers
// cross-component queries as "farther" directly.
//
// Copy-on-write entries: each vertex's levels live in one immutable
// allocation shared by every copy of the index. Copying the index for a new
// snapshot epoch copies n pointers; RebuildRows installs fresh allocations
// for the rebuilt vertices and never writes into a shared one, so readers
// pinned to an older copy keep their entries untouched.

#ifndef KTG_INDEX_NLRNL_INDEX_H_
#define KTG_INDEX_NLRNL_INDEX_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "index/distance_checker.h"
#include "util/status.h"

namespace ktg {

class BoundedBfs;

/// Tuning knobs for NlrnlIndex.
struct NlrnlIndexOptions {
  /// Upper bound on the per-vertex c chosen at build time. The unstored
  /// level is always >= 2 per the paper; raising the cap lets the argmax
  /// pick deeper levels on large-diameter graphs.
  uint32_t max_c = 8;

  /// Worker threads for the construction-time per-vertex BFS loop
  /// (0 = hardware concurrency). Every thread count produces an identical
  /// index; 1 runs the exact serial loop with no pool involved. Queries
  /// and dynamic updates always run on the calling thread.
  uint32_t num_threads = 0;
};

/// The (c-1)-hop + reverse c-hop neighbors index.
class NlrnlIndex final : public DistanceChecker {
 public:
  /// Builds the index for `graph` (copied). One full BFS per vertex.
  explicit NlrnlIndex(const Graph& graph, NlrnlIndexOptions options = {});

  std::string name() const override { return "NLRNL"; }
  size_t MemoryBytes() const override;

  /// NLRNL checks only read the prebuilt lists — safe to share across the
  /// root-parallel engine's workers.
  bool concurrent_read_safe() const override { return true; }

  /// The per-vertex unstored level c.
  uint32_t c_value(VertexId v) const { return entries_[v][0]; }

  /// Number of forward levels stored for `v` (== c-1, possibly fewer when
  /// the component is shallow).
  uint32_t num_forward_levels(VertexId v) const { return entries_[v][1]; }
  /// Number of reverse levels stored for `v` (levels c+1 .. c+count).
  uint32_t num_reverse_levels(VertexId v) const { return entries_[v][2]; }

  /// Adopts `graph` (same vertex count, checked) and recomputes the entries
  /// of `rows` against it, plus the component labels; every other entry is
  /// kept (and stays shared with the copies it came from). Exact when
  /// `rows` covers every vertex whose distances differ between the old and
  /// the new graph (index/affected.h), because a pair that changes distance
  /// has both endpoints in that set. Not safe concurrently with readers of
  /// this object; call on a private copy before publishing it.
  void RebuildRows(const Graph& graph, std::span<const VertexId> rows);

  /// Single-edge wrappers over RebuildRows with the affected set of
  /// index/affected.h. No-op when the edge already exists (insert), is
  /// absent (remove), is a self-loop or is out of range.
  void InsertEdge(VertexId a, VertexId b);
  void RemoveEdge(VertexId a, VertexId b);

  /// Number of vertex entries rebuilt by the last update call.
  uint64_t last_update_rebuilds() const { return last_update_rebuilds_; }

  const Graph& graph() const { return graph_; }

 protected:
  bool IsFartherThanImpl(VertexId u, VertexId v, HopDistance k) override;

 private:
  friend Status SaveNlrnlIndex(const NlrnlIndex&, const std::string&);
  friend Result<NlrnlIndex> LoadNlrnlIndex(const std::string&);
  NlrnlIndex() = default;

  // One vertex's stored levels in a single immutable allocation:
  //   [c, nf, nr, off[0] .. off[nf+nr], ids ...]
  // Stored level i is ids[off[i], off[i+1]): i < nf is the forward level
  // i+1, i >= nf the reverse level c+1+(i-nf). Each level holds the sorted
  // neighbors at that distance with id > owner.
  using PackedEntry = std::shared_ptr<const uint32_t[]>;

  // Packs `levels` (the nf forward levels, then the reverse levels).
  static PackedEntry Pack(uint32_t c, uint32_t nf,
                          std::span<const std::span<const VertexId>> levels);
  // Stored level i of a packed entry.
  static std::span<const VertexId> Level(const uint32_t* entry, uint32_t i);

  // Builds every vertex entry, partitioned over options_.num_threads
  // workers (identical output for every thread count).
  void BuildAll();
  void BuildVertex(VertexId v, BoundedBfs& bfs);
  void RefreshComponents();

  Graph graph_;
  NlrnlIndexOptions options_;
  std::vector<PackedEntry> entries_;
  std::vector<uint32_t> component_;
  uint64_t last_update_rebuilds_ = 0;
};

}  // namespace ktg

#endif  // KTG_INDEX_NLRNL_INDEX_H_
