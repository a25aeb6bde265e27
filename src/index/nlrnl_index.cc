// Copyright (c) 2026 The ktg Authors.

#include "index/nlrnl_index.h"

#include <algorithm>
#include <array>

#include "graph/bfs.h"
#include "graph/stats.h"
#include "index/affected.h"
#include "util/bits.h"
#include "util/executor.h"

namespace ktg {

NlrnlIndex::NlrnlIndex(const Graph& graph, NlrnlIndexOptions options)
    : graph_(graph), options_(options) {
  KTG_CHECK(options_.max_c >= 2);
  const uint32_t n = graph_.num_vertices();
  entries_.resize(n);
  BuildAll();
  RefreshComponents();
}

namespace {

// Deepest level any build asks for: the full component, as in BuildVertex.
constexpr HopDistance kMaxDepth = kUnreachable - 1;

// The sources of `batch` with an id below v: the ones whose entries store v.
uint64_t SourcesBelow(const SweepBatch& batch, VertexId v) {
  if (v <= batch.first) return 0;
  return LowBits(static_cast<int>(std::min<uint64_t>(v - batch.first, 64)));
}

// What the count sweep fixes about a vertex's entry.
struct EntryShape {
  uint32_t c = 2;
  uint32_t ecc = 0;
  uint32_t num_ids = 0;  // stored ids, over every level but c
};

// Count phase for one batch: c by the rule of BuildVertex, the eccentricity,
// and the number of ids the entry stores.
void CountBatch(const SweepBatch& batch, uint32_t max_c, LevelSweep& sweep,
                EntryShape* shape) {
  std::array<uint32_t, LevelSweep::kWidth> size{}, above{}, best{}, above_c{};
  std::array<uint32_t, LevelSweep::kWidth> above_all{};
  sweep.StartRange(batch.first, batch.width);
  while (sweep.depth() < kMaxDepth &&
         sweep.Step([&](VertexId v, uint64_t bits) {
           ForEachSetBit(bits, [&](int i) { ++size[i]; });
           ForEachSetBit(bits & SourcesBelow(batch, v),
                         [&](int i) { ++above[i]; });
         })) {
    const uint32_t d = sweep.depth();
    for (uint32_t i = 0; i < batch.width; ++i) {
      if (size[i] == 0) continue;
      shape[i].ecc = d;
      above_all[i] += above[i];
      if (d >= 2 && d <= max_c && size[i] > best[i]) {
        best[i] = size[i];
        shape[i].c = d;
        above_c[i] = above[i];
      }
      size[i] = above[i] = 0;
    }
  }
  for (uint32_t i = 0; i < batch.width; ++i) {
    shape[i].num_ids = above_all[i] - above_c[i];
  }
}

// Fill phase for one batch: writes each level's ids and end offset straight
// into the allocated entries rows[0 .. width), whose headers are set.
void FillBatch(const SweepBatch& batch, LevelSweep& sweep,
               uint32_t* const* rows) {
  std::array<uint32_t*, LevelSweep::kWidth> ids{};
  std::array<uint32_t, LevelSweep::kWidth> cursor{}, stored{};
  for (uint32_t i = 0; i < batch.width; ++i) {
    ids[i] = rows[i] + 4 + rows[i][1] + rows[i][2];
  }
  sweep.StartRange(batch.first, batch.width);
  uint64_t skip = 0;  // sources whose c is the level being swept (c >= 2)
  while (sweep.depth() < kMaxDepth &&
         sweep.Step([&](VertexId v, uint64_t bits) {
           ForEachSetBit(bits & SourcesBelow(batch, v) & ~skip,
                         [&](int i) { ids[i][cursor[i]++] = v; });
         })) {
    const uint32_t d = sweep.depth();
    skip = 0;
    for (uint32_t i = 0; i < batch.width; ++i) {
      const uint32_t c = rows[i][0];
      if (d != c && stored[i] < rows[i][1] + rows[i][2]) {
        rows[i][3 + ++stored[i]] = cursor[i];
      }
      if (d + 1 == c) skip |= uint64_t{1} << i;
    }
  }
}

}  // namespace

void NlrnlIndex::BuildAll() {
  const uint32_t n = graph_.num_vertices();
  const uint64_t num_batches = SweepBatch::Count(n);
  const uint32_t threads = ResolveThreads(options_.num_threads);
  const uint64_t grain = std::max<uint64_t>(1, num_batches / (8ull * threads));

  // Count: one sweep per batch fixes every entry's c and size.
  std::vector<EntryShape> shapes(n);
  ParallelFor(threads, 0, num_batches, grain,
              [&](uint64_t begin, uint64_t end) {
    LevelSweep sweep(graph_);
    for (uint64_t b = begin; b < end; ++b) {
      const SweepBatch batch(b, n);
      CountBatch(batch, options_.max_c, sweep, &shapes[batch.first]);
    }
  });

  // Allocate every entry on this thread, in vertex order: entries made by
  // helper threads would scatter over per-thread malloc arenas.
  std::vector<uint32_t*> rows(n);
  for (VertexId v = 0; v < n; ++v) {
    const EntryShape& shape = shapes[v];
    const uint32_t nf = std::min(shape.ecc, shape.c - 1);
    const uint32_t nr = shape.ecc > shape.c ? shape.ecc - shape.c : 0;
    auto entry = std::make_shared<uint32_t[]>(4 + nf + nr + shape.num_ids);
    entry[0] = shape.c;
    entry[1] = nf;
    entry[2] = nr;
    rows[v] = entry.get();
    entries_[v] = std::move(entry);
  }

  // Fill: a second sweep per batch writes the ids in place.
  ParallelFor(threads, 0, num_batches, grain,
              [&](uint64_t begin, uint64_t end) {
    LevelSweep sweep(graph_);
    for (uint64_t b = begin; b < end; ++b) {
      const SweepBatch batch(b, n);
      FillBatch(batch, sweep, &rows[batch.first]);
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
