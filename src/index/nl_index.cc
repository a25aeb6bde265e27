// Copyright (c) 2026 The ktg Authors.

#include "index/nl_index.h"

#include <algorithm>
#include <array>
#include <unordered_set>

#include "graph/bfs.h"
#include "index/affected.h"
#include "util/bits.h"
#include "util/sorted_vector.h"
#include "util/executor.h"

namespace ktg {

NlIndex::NlIndex(const Graph& graph, NlIndexOptions options)
    : graph_(graph), options_(options) {
  KTG_CHECK(options_.max_stored_hops >= 1);
  const uint32_t n = graph_.num_vertices();
  lists_.resize(n);
  base_h_.assign(n, 0);
  BuildAll();
}

namespace {

// Deepest level any build asks for: the full component, as in BuildVertex.
constexpr HopDistance kMaxDepth = kUnreachable - 1;

// Count phase for one batch: per source in order, appends to `plan` h by
// the rule of BuildVertex, whether the levels stop at h, and the sizes of
// levels 1..h. Sweeping one level past max_stored_hops decides `exhausted`.
void CountBatch(const SweepBatch& batch, uint32_t max_stored_hops,
                LevelSweep& sweep, std::vector<uint32_t>& plan) {
  const uint64_t max_depth =
      std::min<uint64_t>(uint64_t{max_stored_hops} + 1, kMaxDepth);
  std::vector<std::array<uint32_t, LevelSweep::kWidth>> sizes;
  std::array<uint32_t, LevelSweep::kWidth> level{};
  sweep.StartRange(batch.first, batch.width);
  while (sweep.depth() < max_depth &&
         sweep.Step([&](VertexId, uint64_t bits) {
           ForEachSetBit(bits, [&](int i) { ++level[i]; });
         })) {
    sizes.push_back(level);
    level.fill(0);
  }
  for (uint32_t i = 0; i < batch.width; ++i) {
    uint32_t ecc = 0;
    uint32_t h = 0;
    uint32_t best = 0;
    for (uint32_t d = 1; d <= sizes.size() && sizes[d - 1][i] > 0; ++d) {
      ecc = d;
      if (d <= max_stored_hops && sizes[d - 1][i] > best) {
        best = sizes[d - 1][i];
        h = d;
      }
    }
    plan.push_back(h);
    plan.push_back(h == ecc ? 1 : 0);
    for (uint32_t d = 1; d <= h; ++d) plan.push_back(sizes[d - 1][i]);
  }
}

}  // namespace

void NlIndex::BuildAll() {
  const uint32_t n = graph_.num_vertices();
  const uint64_t num_batches = SweepBatch::Count(n);
  const uint32_t threads = ResolveThreads(options_.num_threads);
  const uint64_t grain = std::max<uint64_t>(1, num_batches / (8ull * threads));

  // Count: one sweep per batch fixes every vertex's h and level sizes.
  std::vector<std::vector<uint32_t>> plans(num_batches);
  ParallelFor(threads, 0, num_batches, grain,
              [&](uint64_t begin, uint64_t end) {
    LevelSweep sweep(graph_);
    for (uint64_t b = begin; b < end; ++b) {
      CountBatch(SweepBatch(b, n), options_.max_stored_hops, sweep, plans[b]);
    }
  });

  // Reserve every level on this thread, in vertex order: lists allocated by
  // helper threads would scatter over per-thread malloc arenas.
  VertexId v = 0;
  for (const auto& plan : plans) {
    for (size_t at = 0; at < plan.size(); ++v) {
      const uint32_t h = plan[at];
      lists_[v].exhausted = plan[at + 1] != 0;
      lists_[v].levels.resize(h);
      for (uint32_t d = 1; d <= h; ++d) {
        lists_[v].levels[d - 1].reserve(plan[at + 1 + d]);
      }
      base_h_[v] = h;
      at += 2 + h;
    }
  }

  // Fill: a second sweep per batch, stopped at the batch's deepest h,
  // appends the ids to the reserved levels.
  ParallelFor(threads, 0, num_batches, grain,
              [&](uint64_t begin, uint64_t end) {
    LevelSweep sweep(graph_);
    for (uint64_t b = begin; b < end; ++b) {
      const SweepBatch batch(b, n);
      VertexLists* lists = &lists_[batch.first];
      const uint32_t* h = &base_h_[batch.first];
      const uint32_t max_h = *std::max_element(h, h + batch.width);
      sweep.StartRange(batch.first, batch.width);
      while (sweep.depth() < max_h &&
             sweep.Step([&](VertexId w, uint64_t bits) {
               const uint32_t d = sweep.depth() + 1;
               ForEachSetBit(bits, [&](int i) {
                 if (d <= lists[i].levels.size()) {
                   lists[i].levels[d - 1].push_back(w);
                 }
               });
             })) {
      }
    }
  });
}

void NlIndex::BuildVertex(VertexId v, BoundedBfs& bfs) {
  auto levels = bfs.Levels(v, kUnreachable - 1);  // full component
  const uint32_t ecc = static_cast<uint32_t>(levels.size());

  // h := the hop level with the maximal neighbor count (first on ties),
  // capped by the configured bound.
  uint32_t h = 1;
  size_t best = 0;
  for (uint32_t i = 0; i < ecc && i < options_.max_stored_hops; ++i) {
    if (levels[i].size() > best) {
      best = levels[i].size();
      h = i + 1;
    }
  }
  if (ecc == 0) h = 0;

  VertexLists& entry = lists_[v];
  entry.levels.assign(levels.begin(), levels.begin() + h);
  entry.exhausted = (h == ecc);
  base_h_[v] = h;
}

bool NlIndex::ExpandOneLevel(VertexId v) {
  VertexLists& entry = lists_[v];
  if (entry.exhausted) return false;
  KTG_DCHECK(!entry.levels.empty());

  // Ball membership: the origin plus every stored level.
  std::unordered_set<VertexId> ball;
  ball.insert(v);
  for (const auto& level : entry.levels) {
    ball.insert(level.begin(), level.end());
  }

  const auto& frontier = entry.levels.back();
  std::vector<VertexId> next;
  for (const VertexId u : frontier) {
    for (const VertexId w : graph_.Neighbors(u)) {
      if (ball.insert(w).second) next.push_back(w);
    }
  }
  if (next.empty()) {
    entry.exhausted = true;
    return false;
  }
  std::sort(next.begin(), next.end());
  entry.levels.push_back(std::move(next));
  return true;
}

bool NlIndex::FartherByBfs(VertexId u, VertexId v, HopDistance k) {
  BoundedBfs bfs(graph_);
  return bfs.DistanceBidirectional(u, v, k) == kUnreachable;
}

bool NlIndex::IsFartherThanImpl(VertexId u, VertexId v, HopDistance k) {
  KTG_DCHECK(u < graph_.num_vertices() && v < graph_.num_vertices());
  if (u == v) return false;  // distance 0
  if (k == 0) return true;   // distinct vertices are > 0 apart

  // Algorithm 2: consult v's list (v plays the role of u_j).
  VertexLists& entry = lists_[v];
  const uint32_t stored = static_cast<uint32_t>(entry.levels.size());
  const uint32_t scan = std::min<uint32_t>(stored, k);
  for (uint32_t i = 0; i < scan; ++i) {
    if (SortedContains(entry.levels[i], u)) {
      RecordProbes(i + 1);
      return false;  // distance i+1 <= k
    }
  }
  RecordProbes(scan);
  if (k <= stored) return true;   // all levels <= k scanned, u absent
  if (entry.exhausted) return true;  // u beyond the whole component

  if (!options_.memoize_expansions) return FartherByBfs(u, v, k);

  // Expand (h+1), (h+2), ..., k-hop levels on demand, memoizing each.
  for (uint32_t depth = stored + 1; depth <= k; ++depth) {
    if (!ExpandOneLevel(v)) return true;  // component exhausted below k
    RecordProbes(1);
    if (SortedContains(entry.levels.back(), u)) return false;
  }
  return true;
}

size_t NlIndex::MemoryBytes() const {
  size_t bytes = lists_.capacity() * sizeof(VertexLists) +
                 base_h_.capacity() * sizeof(uint32_t);
  for (const auto& entry : lists_) {
    bytes += entry.levels.capacity() * sizeof(std::vector<VertexId>);
    for (const auto& level : entry.levels) {
      bytes += level.capacity() * sizeof(VertexId);
    }
  }
  return bytes;
}

void NlIndex::RebuildRows(const Graph& graph, std::span<const VertexId> rows) {
  KTG_CHECK_MSG(graph.num_vertices() == graph_.num_vertices(),
                "RebuildRows requires the original vertex count");
  graph_ = graph;
  BoundedBfs bfs(graph_);
  for (const VertexId v : rows) BuildVertex(v, bfs);
  last_update_rebuilds_ = rows.size();
}

void NlIndex::InsertEdge(VertexId a, VertexId b) {
  last_update_rebuilds_ = 0;
  const uint32_t n = graph_.num_vertices();
  if (a == b || a >= n || b >= n || graph_.HasEdge(a, b)) return;
  RebuildRows(WithEdgeAdded(graph_, a, b), AffectedByInsertion(graph_, a, b));
}

void NlIndex::RemoveEdge(VertexId a, VertexId b) {
  last_update_rebuilds_ = 0;
  const uint32_t n = graph_.num_vertices();
  if (a >= n || b >= n || !graph_.HasEdge(a, b)) return;
  const Graph next = WithEdgeRemoved(graph_, a, b);
  RebuildRows(next, AffectedByDeletion(graph_, next, a, b));
}

}  // namespace ktg
