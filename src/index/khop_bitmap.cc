// Copyright (c) 2026 The ktg Authors.

#include "index/khop_bitmap.h"

#include <algorithm>

#include "graph/bfs.h"
#include "util/executor.h"

namespace ktg {

KHopBitmapChecker::KHopBitmapChecker(const Graph& graph, HopDistance k,
                                     KHopBitmapOptions options)
    : k_(k), words_per_row_((graph.num_vertices() + 63) / 64) {
  const uint32_t n = graph.num_vertices();
  bits_.assign(static_cast<uint64_t>(n) * words_per_row_, 0);
  // Rows are disjoint word ranges, so the per-vertex builds never touch the
  // same memory and the matrix is identical for every thread count.
  const uint32_t threads = ResolveThreads(options.num_threads);
  const uint64_t grain = std::max<uint64_t>(1, n / (8ull * threads));
  ParallelFor(threads, 0, n, grain, [this, &graph, k](uint64_t begin,
                                                      uint64_t end) {
    BoundedBfs bfs(graph);
    for (uint64_t v = begin; v < end; ++v) {
      const auto vid = static_cast<VertexId>(v);
      for (const VertexId w : bfs.Ball(vid, k)) SetBit(vid, w);
    }
  });
}

void KHopBitmapChecker::RebuildRows(const Graph& graph,
                                    std::span<const VertexId> rows) {
  KTG_CHECK_MSG((graph.num_vertices() + 63) / 64 == words_per_row_,
                "RebuildRows requires the original vertex count");
  BoundedBfs bfs(graph);
  for (const VertexId v : rows) {
    uint64_t* row = bits_.data() + static_cast<uint64_t>(v) * words_per_row_;
    std::fill(row, row + words_per_row_, 0);
    for (const VertexId w : bfs.Ball(v, k_)) SetBit(v, w);
  }
}

bool KHopBitmapChecker::IsFartherThanImpl(VertexId u, VertexId v,
                                          HopDistance k) {
  KTG_CHECK_MSG(k == k_, "KHopBitmapChecker was built for a different k");
  if (u == v) return false;
  RecordProbes(1);  // one word read
  return !TestBit(u, v);
}

}  // namespace ktg
