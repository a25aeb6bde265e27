// Copyright (c) 2026 The ktg Authors.
// Epoch snapshots: serve queries from an immutable (graph, index, checker)
// state while a single writer applies batched mutations and publishes new
// epochs — the RCU-style concurrency layer behind `ktgd`'s mutate op.
//
// The lifecycle (docs/concurrency.md walks the full argument):
//
//   pin      a reader grabs the current EngineSnapshot as a shared_ptr and
//            runs its whole query against it — graph, inverted index and
//            distance checker all from one epoch, cache accesses tagged
//            with that epoch (EngineOptions::snapshot_epoch);
//   publish  the writer builds the next snapshot off to the side (copying
//            the checker and rebuilding, once and against the final graph,
//            only the rows of the union of the batch's exact affected sets,
//            index/affected.h; NLRNL copies share every other entry),
//            advances the cache epoch, then atomically swaps the current
//            pointer;
//   retire   the previous snapshot joins the retired list; it stays fully
//            valid for the readers still pinning it;
//   reclaim  when the last pin drops, the shared_ptr's control block frees
//            the snapshot — the store only *observes* reclamation (via
//            weak_ptr expiry) to report reader-drain latency.
//
// Single writer, many readers: Apply() is serialized by a writer mutex and
// never blocks Pin(), which only takes the brief publish lock. Snapshots
// are immutable after construction, so readers need no further locking;
// the shared checker is a concurrent_read_safe one (MakeSnapshotChecker).
//
// Vertex growth is forbidden: mutations may add/remove edges between
// existing vertices and attach keywords to existing vertices (the
// vocabulary is append-only, so keyword ids remain stable across epochs —
// a query parsed against one epoch stays meaningful at every later one).

#ifndef KTG_CORE_SNAPSHOT_H_
#define KTG_CORE_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "graph/types.h"
#include "index/checker_factory.h"
#include "index/distance_checker.h"
#include "keywords/attributed_graph.h"
#include "keywords/inverted_index.h"
#include "util/status.h"
#include "util/timer.h"

namespace ktg::obs {
class MetricsRegistry;
}  // namespace ktg::obs

namespace ktg {

class KtgCache;

/// One writer-applied unit of change. Deltas are applied in member order
/// (edge insertions, then edge removals, then keyword additions); a delta
/// that is already satisfied (edge present on add, absent on remove) is
/// skipped and counted, not an error.
struct MutationBatch {
  std::vector<std::pair<VertexId, VertexId>> add_edges;
  std::vector<std::pair<VertexId, VertexId>> remove_edges;
  /// (vertex, term) — the term is interned into the epoch's vocabulary.
  std::vector<std::pair<VertexId, std::string>> add_keywords;

  bool empty() const {
    return add_edges.empty() && remove_edges.empty() && add_keywords.empty();
  }
};

/// The immutable per-epoch state a reader pins: attributed graph, inverted
/// index (borrowing the graph — the object is deliberately unmovable) and
/// one shared concurrent-read-safe distance checker. `checker()` is null
/// for CheckerKind::kBfs, whose per-run scratch each reader constructs
/// itself (it is a pair of BFS buffers; see MakeSnapshotChecker).
class EngineSnapshot {
 public:
  /// Full build: constructs the index and checker from scratch.
  EngineSnapshot(uint64_t epoch, AttributedGraph graph, CheckerKind kind,
                 HopDistance bitmap_k, uint32_t build_threads);

  /// Incremental build: adopts a checker the writer already updated (or
  /// shares the predecessor's when topology did not change).
  EngineSnapshot(uint64_t epoch, AttributedGraph graph, CheckerKind kind,
                 std::shared_ptr<DistanceChecker> checker);

  EngineSnapshot(const EngineSnapshot&) = delete;
  EngineSnapshot& operator=(const EngineSnapshot&) = delete;

  uint64_t epoch() const { return epoch_; }
  const AttributedGraph& graph() const { return graph_; }
  const InvertedIndex& index() const { return index_; }
  CheckerKind checker_kind() const { return kind_; }
  /// Shared read-safe checker; null iff checker_kind() == kBfs.
  DistanceChecker* checker() const { return checker_.get(); }
  std::shared_ptr<DistanceChecker> shared_checker() const { return checker_; }

 private:
  uint64_t epoch_;
  AttributedGraph graph_;
  InvertedIndex index_;  // borrows graph_; EngineSnapshot never moves
  std::shared_ptr<DistanceChecker> checker_;
  CheckerKind kind_;
};

/// A reader's pin. Holding it keeps the whole epoch state alive; dropping
/// the last pin of a retired epoch reclaims it.
using SnapshotPin = std::shared_ptr<const EngineSnapshot>;

/// Owner of the current snapshot and the single-writer mutation path.
class SnapshotStore {
 public:
  struct Options {
    CheckerKind checker = CheckerKind::kNlrnl;
    /// k the bitmap checker is specialized to (kKHopBitmap only).
    HopDistance bitmap_k = 2;
    /// Threads for full index builds (0 = hardware concurrency).
    uint32_t build_threads = 0;
    /// Borrowed cross-query cache; when set, Apply() hands the new epoch
    /// over (KtgCache::AdvanceEpoch) *before* publishing the snapshot.
    KtgCache* cache = nullptr;
    /// Borrowed metrics sink for snapshot.* gauges/histograms; may be null.
    obs::MetricsRegistry* metrics = nullptr;
  };

  /// What one Apply() did; also serialized into the mutate response.
  struct ApplyInfo {
    uint64_t epoch = 0;  ///< the epoch published by this batch
    uint64_t edges_added = 0;
    uint64_t edges_removed = 0;
    uint64_t keywords_added = 0;
    uint64_t noop_deltas = 0;  ///< already-satisfied edge deltas, skipped
    /// Size of the union of the per-delta exact affected sets
    /// (index/affected.h): the cache balls erased.
    uint64_t affected_vertices = 0;
    /// Checker rows (NL lists, NLRNL entries, bitmap rows) rebuilt, each
    /// counted once: the union is rebuilt in one pass against the final
    /// graph, so this equals affected_vertices for the index kinds and is
    /// 0 for BFS and keyword-only batches.
    uint64_t checker_rebuilds = 0;
    double publish_ms = 0.0;  ///< wall time from Apply entry to publish
    uint64_t retired_live = 0;  ///< retired snapshots still pinned afterwards
  };

  /// Builds the epoch-0 snapshot synchronously. When `options.cache` is
  /// set and already advanced (a shared cache), the first epoch matches the
  /// cache's current epoch instead of 0.
  SnapshotStore(AttributedGraph graph, Options options);

  SnapshotStore(const SnapshotStore&) = delete;
  SnapshotStore& operator=(const SnapshotStore&) = delete;

  /// The current snapshot. O(1); never blocks on a writer's rebuild.
  SnapshotPin Pin() const;

  /// Epoch of the current snapshot.
  uint64_t epoch() const;

  /// Applies `batch` and publishes the next epoch. Single writer —
  /// concurrent calls serialize. Validation failures (vertex out of range,
  /// self-loop) reject the whole batch atomically; an empty batch is
  /// rejected too (every published epoch reflects a real change). On
  /// success the previous snapshot is retired and the retired list swept.
  Result<ApplyInfo> Apply(const MutationBatch& batch);

  /// Observes reclamation: drops expired retired entries, records their
  /// drain time (bounded by observation lag — drain is noticed at the next
  /// sweep, not the instant the last pin drops) and refreshes the
  /// snapshot.live gauge. Returns the number of retired-but-live snapshots.
  uint64_t SweepRetired();

 private:
  struct Retired {
    std::weak_ptr<const EngineSnapshot> snapshot;
    Stopwatch since_retire;
  };

  uint64_t SweepRetiredLocked();

  Options options_;
  std::mutex writer_mu_;  // serializes Apply(); never held by readers
  mutable std::mutex mu_;  // guards current_ + retired_ (brief)
  std::shared_ptr<const EngineSnapshot> current_;
  std::vector<Retired> retired_;
};

}  // namespace ktg

#endif  // KTG_CORE_SNAPSHOT_H_
