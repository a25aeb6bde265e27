// Copyright (c) 2026 The ktg Authors.
// Index-free social-distance checking via hop-bounded bidirectional BFS.
//
// This is the paper's implicit baseline: no precomputation, no memory, every
// k-line test pays a bounded graph traversal. It is also the reference
// implementation the NL/NLRNL property tests compare against.

#ifndef KTG_INDEX_BFS_CHECKER_H_
#define KTG_INDEX_BFS_CHECKER_H_

#include "graph/bfs.h"
#include "graph/graph.h"
#include "index/distance_checker.h"

namespace ktg {

/// DistanceChecker that answers every query with a fresh bounded BFS.
class BfsChecker final : public DistanceChecker {
 public:
  /// Binds to `graph`; the graph must outlive the checker.
  explicit BfsChecker(const Graph& graph) : bfs_(graph) {}

  std::string name() const override { return "BFS"; }
  size_t MemoryBytes() const override { return 0; }

 protected:
  /// Bulk path: one bounded BFS materializes the whole <=k ball, so a
  /// k-line filter over m candidates costs one traversal + m binary
  /// searches instead of m traversals. Cached per (pivot, k).
  const std::vector<VertexId>* BallWithinKImpl(VertexId pivot, HopDistance k,
                                               uint64_t* traversals) override {
    if (!ball_valid_ || ball_pivot_ != pivot || ball_k_ != k) {
      ball_ = bfs_.Ball(pivot, k);
      ball_pivot_ = pivot;
      ball_k_ = k;
      ball_valid_ = true;
      ++*traversals;
    }
    return &ball_;
  }

  bool IsFartherThanImpl(VertexId u, VertexId v, HopDistance k) override {
    return bfs_.DistanceBidirectional(u, v, k) == kUnreachable;
  }

 private:
  BoundedBfs bfs_;
  std::vector<VertexId> ball_;
  VertexId ball_pivot_ = kInvalidVertex;
  HopDistance ball_k_ = 0;
  bool ball_valid_ = false;
};

}  // namespace ktg

#endif  // KTG_INDEX_BFS_CHECKER_H_
