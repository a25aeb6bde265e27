// Copyright (c) 2026 The ktg Authors.

#include "core/snapshot.h"

#include <algorithm>
#include <span>
#include <utility>

#include "cache/ktg_cache.h"
#include "index/affected.h"
#include "index/nl_index.h"
#include "index/nlrnl_index.h"
#include "obs/metrics.h"
#include "util/macros.h"

namespace ktg {

namespace {

// A copy of `cur` (a `Checker`) with `rows` rebuilt against `graph`. For
// NLRNL the copy shares every entry outside `rows` with `cur`.
template <typename Checker>
std::shared_ptr<DistanceChecker> RebuiltCopy(const DistanceChecker& cur,
                                             const Graph& graph,
                                             std::span<const VertexId> rows) {
  auto copy = std::make_shared<Checker>(static_cast<const Checker&>(cur));
  copy->RebuildRows(graph, rows);
  return copy;
}

Status ValidateEndpoints(const char* what, VertexId a, VertexId b,
                         uint32_t n) {
  if (a >= n || b >= n) {
    return Status::InvalidArgument(
        std::string(what) + ": vertex out of range (snapshot mutations may "
                            "not grow the vertex set)");
  }
  if (a == b) {
    return Status::InvalidArgument(std::string(what) + ": self-loop");
  }
  return Status::OK();
}

}  // namespace

EngineSnapshot::EngineSnapshot(uint64_t epoch, AttributedGraph graph,
                               CheckerKind kind, uint32_t build_threads)
    : epoch_(epoch),
      graph_(std::move(graph)),
      index_(graph_),
      checker_(MakeSnapshotChecker(kind, graph_.graph(), /*k=*/0,
                                   build_threads)),
      kind_(kind) {}

EngineSnapshot::EngineSnapshot(uint64_t epoch, AttributedGraph graph,
                               CheckerKind kind,
                               std::shared_ptr<DistanceChecker> checker)
    : epoch_(epoch),
      graph_(std::move(graph)),
      index_(graph_),
      checker_(std::move(checker)),
      kind_(kind) {
  KTG_CHECK_MSG(kind_ == CheckerKind::kBfs || checker_ != nullptr,
                "incremental snapshot requires a checker unless kBfs");
}

SnapshotStore::SnapshotStore(AttributedGraph graph, Options options)
    : options_(options) {
  const uint64_t epoch0 =
      options_.cache != nullptr ? options_.cache->epoch() : 0;
  current_ = std::make_shared<const EngineSnapshot>(
      epoch0, std::move(graph), options_.checker, options_.build_threads);
  if (options_.metrics != nullptr) {
    options_.metrics->gauge("snapshot.epoch")
        .Set(static_cast<double>(epoch0));
    options_.metrics->gauge("snapshot.live").Set(1.0);
  }
}

SnapshotPin SnapshotStore::Pin() const {
  std::lock_guard<std::mutex> lock(mu_);
  return current_;
}

uint64_t SnapshotStore::epoch() const {
  std::lock_guard<std::mutex> lock(mu_);
  return current_->epoch();
}

Result<SnapshotStore::ApplyInfo> SnapshotStore::Apply(
    const MutationBatch& batch) {
  std::lock_guard<std::mutex> writer_lock(writer_mu_);
  Stopwatch watch;
  if (batch.empty()) {
    return Status::InvalidArgument(
        "empty mutation batch (every epoch must reflect a change)");
  }

  const SnapshotPin cur = Pin();
  const uint32_t n = cur->graph().num_vertices();

  // Validate the whole batch up front so failures are atomic.
  for (const auto& [a, b] : batch.add_edges) {
    KTG_RETURN_IF_ERROR(ValidateEndpoints("add_edge", a, b, n));
  }
  for (const auto& [a, b] : batch.remove_edges) {
    KTG_RETURN_IF_ERROR(ValidateEndpoints("remove_edge", a, b, n));
  }
  for (const auto& [v, term] : batch.add_keywords) {
    if (v >= n) {
      return Status::InvalidArgument(
          "add_keyword: vertex out of range (snapshot mutations may not "
          "grow the vertex set)");
    }
    if (term.empty()) {
      return Status::InvalidArgument("add_keyword: empty term");
    }
  }

  ApplyInfo info;

  // Evolve the topology delta by delta, collecting the union of per-delta
  // affected sets, each exact for its own pre/post-delta graph pair
  // (index/affected.h). A vertex whose distances differ between the first
  // and the last graph differs across some single delta, so the union
  // covers every row the final graph changes.
  Graph g = cur->graph().graph();
  std::vector<VertexId> affected;
  auto apply_edge = [&](bool insert, VertexId a, VertexId b) {
    if (g.HasEdge(a, b) == insert) {
      ++info.noop_deltas;
      return;
    }
    Graph next = insert ? WithEdgeAdded(g, a, b) : WithEdgeRemoved(g, a, b);
    const std::vector<VertexId> delta_affected =
        insert ? AffectedByInsertion(g, a, b)
               : AffectedByDeletion(g, next, a, b);
    affected.insert(affected.end(), delta_affected.begin(),
                    delta_affected.end());
    g = std::move(next);
    ++(insert ? info.edges_added : info.edges_removed);
  };
  for (const auto& [a, b] : batch.add_edges) apply_edge(true, a, b);
  for (const auto& [a, b] : batch.remove_edges) apply_edge(false, a, b);
  std::sort(affected.begin(), affected.end());
  affected.erase(std::unique(affected.begin(), affected.end()),
                 affected.end());
  info.affected_vertices = affected.size();

  // Rebuild the attributed layer over the new topology: carry the
  // vocabulary (append-only — interned ids stay stable) and every existing
  // assignment, then intern the batch's additions.
  AttributedGraphBuilder builder;
  builder.SetGraph(std::move(g));
  builder.mutable_vocabulary() = cur->graph().vocabulary();
  for (VertexId v = 0; v < n; ++v) {
    for (const KeywordId kw : cur->graph().Keywords(v)) {
      builder.AddKeywordId(v, kw);
    }
  }
  for (const auto& [v, term] : batch.add_keywords) {
    builder.AddKeyword(v, term);
    ++info.keywords_added;
  }
  AttributedGraph next_graph = builder.Build();

  // Incremental checker update: copy the predecessor's checker and rebuild
  // the union once, against the final graph; share it outright when the
  // topology is unchanged (keyword-only batches).
  std::shared_ptr<DistanceChecker> checker = cur->shared_checker();
  if (info.edges_added + info.edges_removed > 0) {
    const Graph& final_graph = next_graph.graph();
    switch (cur->checker_kind()) {
      case CheckerKind::kNl:
        checker = RebuiltCopy<NlIndex>(*checker, final_graph, affected);
        break;
      case CheckerKind::kNlrnl:
        checker = RebuiltCopy<NlrnlIndex>(*checker, final_graph, affected);
        break;
      case CheckerKind::kBfs:
        break;  // no checker object; readers build their own
    }
    if (checker != nullptr) info.checker_rebuilds = affected.size();
  }

  // Epoch handoff to the cache *before* the snapshot becomes visible: no
  // reader can pin the new epoch while stale affected balls are still
  // resident (cache/ktg_cache.h spells out the store-side race guard).
  uint64_t new_epoch = cur->epoch() + 1;
  if (options_.cache != nullptr) {
    new_epoch = std::max(new_epoch, options_.cache->epoch() + 1);
    options_.cache->AdvanceEpoch(new_epoch, affected);
  }

  auto next = std::make_shared<const EngineSnapshot>(
      new_epoch, std::move(next_graph), cur->checker_kind(),
      std::move(checker));

  {
    std::lock_guard<std::mutex> lock(mu_);
    retired_.push_back(Retired{current_, Stopwatch()});
    current_ = std::move(next);
    info.publish_ms = watch.ElapsedMillis();
    info.retired_live = SweepRetiredLocked();
  }

  info.epoch = new_epoch;
  if (options_.metrics != nullptr) {
    options_.metrics->gauge("snapshot.epoch")
        .Set(static_cast<double>(new_epoch));
    options_.metrics->histogram("snapshot.publish_ms").Record(info.publish_ms);
    options_.metrics->counter("snapshot.retired").Add(1);
    options_.metrics->counter("snapshot.affected")
        .Add(info.affected_vertices);
  }
  return info;
}

uint64_t SnapshotStore::SweepRetired() {
  std::lock_guard<std::mutex> lock(mu_);
  return SweepRetiredLocked();
}

uint64_t SnapshotStore::SweepRetiredLocked() {
  uint64_t reclaimed = 0;
  auto it = retired_.begin();
  while (it != retired_.end()) {
    if (it->snapshot.expired()) {
      if (options_.metrics != nullptr) {
        options_.metrics->histogram("snapshot.reader_drain_ms")
            .Record(it->since_retire.ElapsedMillis());
      }
      ++reclaimed;
      it = retired_.erase(it);
    } else {
      ++it;
    }
  }
  if (options_.metrics != nullptr) {
    if (reclaimed > 0) {
      options_.metrics->counter("snapshot.reclaimed").Add(reclaimed);
    }
    // current_ plus every retired-but-pinned predecessor.
    options_.metrics->gauge("snapshot.live")
        .Set(static_cast<double>(1 + retired_.size()));
  }
  return retired_.size();
}

}  // namespace ktg
