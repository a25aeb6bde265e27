// Copyright (c) 2026 The ktg Authors.

#include "index/nlrnl_index.h"

#include <algorithm>

#include "graph/bfs.h"
#include "graph/stats.h"
#include "index/affected.h"
#include "util/thread_pool.h"

namespace ktg {

NlrnlIndex::NlrnlIndex(const Graph& graph, NlrnlIndexOptions options)
    : graph_(graph), options_(options) {
  KTG_CHECK(options_.max_c >= 2);
  const uint32_t n = graph_.num_vertices();
  entries_.resize(n);
  BuildAll();
  RefreshComponents();
}

void NlrnlIndex::BuildAll() {
  const uint32_t n = graph_.num_vertices();
  ThreadPool pool(options_.num_threads);
  const uint64_t grain =
      std::max<uint64_t>(1, n / (8ull * pool.num_threads()));
  pool.ParallelFor(0, n, grain, [this](uint64_t begin, uint64_t end) {
    BoundedBfs bfs(graph_);
    for (uint64_t v = begin; v < end; ++v) {
      BuildVertex(static_cast<VertexId>(v), bfs);
    }
  });
}

void NlrnlIndex::RefreshComponents() {
  component_ = ConnectedComponents(graph_).first;
}

NlrnlIndex::PackedEntry NlrnlIndex::Pack(
    uint32_t c, uint32_t nf,
    std::span<const std::span<const VertexId>> levels) {
  const auto num_levels = static_cast<uint32_t>(levels.size());
  size_t num_ids = 0;
  for (const auto level : levels) num_ids += level.size();
  auto entry = std::make_shared<uint32_t[]>(4 + num_levels + num_ids);
  entry[0] = c;
  entry[1] = nf;
  entry[2] = num_levels - nf;
  uint32_t* off = entry.get() + 3;
  VertexId* ids = off + num_levels + 1;
  off[0] = 0;
  for (uint32_t i = 0; i < num_levels; ++i) {
    std::copy(levels[i].begin(), levels[i].end(), ids + off[i]);
    off[i + 1] = off[i] + static_cast<uint32_t>(levels[i].size());
  }
  return entry;
}

std::span<const VertexId> NlrnlIndex::Level(const uint32_t* entry,
                                            uint32_t i) {
  const uint32_t* off = entry + 3;
  const VertexId* ids = off + entry[1] + entry[2] + 1;
  return {ids + off[i], ids + off[i + 1]};
}

void NlrnlIndex::BuildVertex(VertexId v, BoundedBfs& bfs) {
  const auto levels = bfs.Levels(v, kUnreachable - 1);  // full component
  const uint32_t ecc = static_cast<uint32_t>(levels.size());

  // c := the hop level with the maximal neighbor count among levels >= 2
  // (first on ties), clamped to [2, max_c].
  uint32_t c = 2;
  size_t best = 0;
  for (uint32_t level = 2; level <= ecc && level <= options_.max_c; ++level) {
    if (levels[level - 1].size() > best) {
      best = levels[level - 1].size();
      c = level;
    }
  }

  // Every level but c, each halved to its ids > v: levels are sorted, so
  // that is a suffix.
  std::vector<std::span<const VertexId>> stored;
  for (uint32_t level = 1; level <= ecc; ++level) {
    if (level == c) continue;
    const auto& ids = levels[level - 1];
    stored.emplace_back(std::upper_bound(ids.begin(), ids.end(), v),
                        ids.end());
  }
  entries_[v] = Pack(c, std::min(ecc, c - 1), stored);
}

bool NlrnlIndex::IsFartherThanImpl(VertexId u, VertexId v, HopDistance k) {
  KTG_DCHECK(u < graph_.num_vertices() && v < graph_.num_vertices());
  if (u == v) return false;  // distance 0
  if (component_[u] != component_[v]) return true;  // infinitely far
  if (k == 0) return true;

  // Halved storage: the pair lives at the smaller id.
  VertexId a = u, b = v;
  if (a > b) std::swap(a, b);
  const uint32_t* entry = entries_[a].get();
  const uint32_t c = entry[0];
  const uint32_t nf = entry[1];
  const uint32_t nr = entry[2];
  const uint32_t* off = entry + 3;
  const VertexId* ids = off + nf + nr + 1;
  auto contains = [off, ids, b](uint32_t i) {
    return std::binary_search(ids + off[i], ids + off[i + 1], b);
  };

  // Forward levels 1 .. min(k, c-1).
  uint64_t probes = 0;
  const uint32_t fscan = std::min<uint32_t>(nf, k);
  for (uint32_t i = 0; i < fscan; ++i) {
    ++probes;
    if (contains(i)) {
      RecordProbes(probes);
      return false;  // d = i+1 <= k
    }
  }
  if (k <= c - 1) {
    RecordProbes(probes);
    return true;  // all candidate levels scanned
  }

  // k >= c: levels c+1 .. k of the reverse lists would witness d <= k.
  for (uint32_t level = c + 1; level <= k; ++level) {
    const uint32_t j = level - c - 1;
    if (j >= nr) break;
    ++probes;
    if (contains(nf + j)) {
      RecordProbes(probes);
      return false;  // d = level <= k
    }
  }
  // Levels k+1 .. ecc witness d > k.
  for (uint32_t j = (k >= c ? k - c : 0); j < nr; ++j) {
    ++probes;
    if (contains(nf + j)) {
      RecordProbes(probes);
      return true;  // d = c+1+j > k
    }
  }
  RecordProbes(probes);
  // b appears in no stored list but is in the same component: d == c <= k.
  return false;
}

size_t NlrnlIndex::MemoryBytes() const {
  size_t bytes = entries_.capacity() * sizeof(PackedEntry) +
                 component_.capacity() * sizeof(uint32_t);
  for (const auto& entry : entries_) {
    // Header, nf + nr + 1 offsets, and off[nf + nr] ids.
    const uint32_t num_levels = entry[1] + entry[2];
    bytes += (4 + num_levels + entry[3 + num_levels]) * sizeof(uint32_t);
  }
  return bytes;
}

void NlrnlIndex::RebuildRows(const Graph& graph,
                             std::span<const VertexId> rows) {
  KTG_CHECK_MSG(graph.num_vertices() == graph_.num_vertices(),
                "RebuildRows requires the original vertex count");
  graph_ = graph;
  BoundedBfs bfs(graph_);
  for (const VertexId v : rows) BuildVertex(v, bfs);
  RefreshComponents();
  last_update_rebuilds_ = rows.size();
}

void NlrnlIndex::InsertEdge(VertexId a, VertexId b) {
  last_update_rebuilds_ = 0;
  const uint32_t n = graph_.num_vertices();
  if (a == b || a >= n || b >= n || graph_.HasEdge(a, b)) return;
  RebuildRows(WithEdgeAdded(graph_, a, b), AffectedByInsertion(graph_, a, b));
}

void NlrnlIndex::RemoveEdge(VertexId a, VertexId b) {
  last_update_rebuilds_ = 0;
  const uint32_t n = graph_.num_vertices();
  if (a >= n || b >= n || !graph_.HasEdge(a, b)) return;
  const Graph next = WithEdgeRemoved(graph_, a, b);
  RebuildRows(next, AffectedByDeletion(graph_, next, a, b));
}

}  // namespace ktg
