// Copyright (c) 2026 The ktg Authors.
// Dense k-hop reachability bitmap — an engineering alternative to NL/NLRNL.
//
// Not part of the paper: when the tenuity constraint k is known up front
// (it is a query parameter, and real deployments pin it per application), a
// bit matrix "is w within k hops of v" answers every k-line test with one
// load. Space is exactly n^2/8 bytes regardless of density — smaller than
// NL/NLRNL on the paper's near-all-pairs regimes, larger on sparse small
// graphs. The ablation bench quantifies the trade-off.

#ifndef KTG_INDEX_KHOP_BITMAP_H_
#define KTG_INDEX_KHOP_BITMAP_H_

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "index/distance_checker.h"

namespace ktg {

/// Tuning knobs for KHopBitmapChecker.
struct KHopBitmapOptions {
  /// Worker threads for the construction-time per-vertex BFS loop
  /// (0 = hardware concurrency). Rows are partitioned by vertex, so every
  /// thread count produces the identical bit matrix; 1 runs the exact
  /// serial loop with no pool involved.
  uint32_t num_threads = 0;
};

/// DistanceChecker specialized to one fixed k, backed by a bit matrix.
class KHopBitmapChecker final : public DistanceChecker {
 public:
  /// Builds the within-k bitmap for `graph` (one bounded BFS per vertex).
  /// The graph must outlive the checker.
  KHopBitmapChecker(const Graph& graph, HopDistance k,
                    KHopBitmapOptions options = {});

  std::string name() const override { return "KHopBitmap"; }
  size_t MemoryBytes() const override {
    return bits_.capacity() * sizeof(uint64_t);
  }

  /// Checks are single bit loads over an immutable matrix — safe to share
  /// across the root-parallel engine's workers.
  bool concurrent_read_safe() const override { return true; }

  HopDistance built_k() const { return k_; }

  /// Recomputes the given rows against `graph` (one bounded BFS each),
  /// leaving every other row untouched. Exact for an edge flip whose
  /// affected set (index/affected.h) is passed as `rows`: if any pair
  /// (u, v) changes distance, *both* endpoints are affected, so every
  /// stale bit lives in a rebuilt row. The graph must have the same vertex
  /// count the checker was built with (checked) — the snapshot layer
  /// forbids vertex growth. Not safe concurrently with readers; call on a
  /// private copy before publishing it.
  void RebuildRows(const Graph& graph, std::span<const VertexId> rows);

 protected:
  /// `k` must equal built_k() (checked).
  bool IsFartherThanImpl(VertexId u, VertexId v, HopDistance k) override;

 private:
  void SetBit(VertexId u, VertexId v) {
    const uint64_t idx = static_cast<uint64_t>(u) * words_per_row_ + (v >> 6);
    bits_[idx] |= uint64_t{1} << (v & 63);
  }
  bool TestBit(VertexId u, VertexId v) const {
    const uint64_t idx = static_cast<uint64_t>(u) * words_per_row_ + (v >> 6);
    return (bits_[idx] >> (v & 63)) & 1;
  }

  HopDistance k_;
  uint32_t words_per_row_;
  std::vector<uint64_t> bits_;
};

}  // namespace ktg

#endif  // KTG_INDEX_KHOP_BITMAP_H_
