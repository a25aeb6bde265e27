// Copyright (c) 2026 The ktg Authors.
// The exact branch-and-bound KTG engine of Section IV.
//
// One engine implements all three published variants through EngineOptions:
//   KTG-QKC      — SortStrategy::kQkc     (static query-keyword-coverage sort)
//   KTG-VKC      — SortStrategy::kVkc     (Algorithm 1)
//   KTG-VKC-DEG  — SortStrategy::kVkcDeg  (VKC + degree tie-break)
// combined with any DistanceChecker (BFS / NL / NLRNL / bitmap), which is
// how the paper names configurations like "KTG-VKC-DEG-NLRNL".
//
// Search space: combinations of the candidate set S_R. A tree node holds an
// intermediate set S_I and a filtered, re-sorted remaining set; child i
// selects the i-th remaining candidate and recurses on the candidates after
// it (set-minus semantics keeps every combination visited exactly once even
// though each child is re-sorted). Two accelerations cut the tree:
//   * keyword pruning (Theorem 2): an optimistic coverage bound against the
//     current N-th result,
//   * k-line filtering (Theorem 3): candidates within k hops of the newly
//     selected member leave S_R immediately.

#ifndef KTG_CORE_KTG_ENGINE_H_
#define KTG_CORE_KTG_ENGINE_H_

#include <vector>

#include "core/candidates.h"
#include "core/options.h"
#include "core/query.h"
#include "core/root_parallel.h"
#include "core/run_frame.h"
#include "core/topn.h"
#include "index/distance_checker.h"
#include "keywords/attributed_graph.h"
#include "keywords/inverted_index.h"
#include "obs/query_trace.h"
#include "util/status.h"
#include "util/timer.h"

namespace ktg {

/// Exact KTG query processor.
///
/// Stateful per-run scratch; a single engine instance is not thread-safe.
/// The graph, inverted index and checker must outlive the engine. When
/// EngineOptions::num_threads > 1 and the checker is concurrent-read-safe,
/// Run() splits the first level of the search tree across that many worker
/// threads, each driving a private engine clone whose subtree results feed
/// a shared top-N; the shared N-th score (a relaxed atomic snapshot) is the
/// pruning bound, so every worker benefits from every other's results.
class KtgEngine {
 public:
  KtgEngine(const AttributedGraph& graph, const InvertedIndex& index,
            DistanceChecker& checker, EngineOptions options = {});

  /// Runs one KTG query in the query run frame (core/run_frame.h).
  /// Returns InvalidArgument/OutOfRange on malformed queries. The result's
  /// groups are the exact top-N unless a budget (max_nodes,
  /// time_budget_ms) or stop_at_count truncated the search; the result's
  /// `stats.complete` is then false.
  Result<KtgResult> Run(const KtgQuery& query);

  /// The previous successful Run()'s `stats.complete`: false when it
  /// stopped early, and the returned groups are then best-effort.
  bool last_run_complete() const { return last_run_complete_; }

 private:
  // The engine's part of a run (see FrameSearch): ranks S_R, then runs the
  // serial search or the root-parallel one.
  Result<SearchOutcome> SearchCandidates(const KtgQuery& query,
                                         std::vector<Candidate>& sr,
                                         const Stopwatch& run_watch,
                                         SearchStats* stats);
  void Search(const std::vector<Candidate>& sr, CoverMask covered,
              CoverMask sr_union);
  // One child of a node: the parent-side bounds for branching on sr[i],
  // the lazy feasibility check, then the child's subtree. `covered` is the
  // node's coverage, `ceiling` its reachable-coverage ceiling, `need` the
  // members still missing and `suffix` ∪ masks of sr[i..] for the
  // residual clamp (null when the clamp is off or not yet built). Returns false when a bound that only
  // falls with i pruned the child, so no later child can contribute. The
  // serial loop and the root-parallel step both run it, so a root's
  // subtree is exactly the serial first level's.
  bool Branch(const std::vector<Candidate>& sr, size_t i, CoverMask covered,
              int ceiling, uint32_t need, const CoverMask* suffix);
  // The child-construction step of Branch(): candidates after `i`,
  // k-line-filtered against sr[i] (Theorem 3), VKC refreshed against
  // `child_covered`, re-sorted for VKC strategies. Charges filter
  // time to the kKlineFilter sub-phase and emits a trace event when
  // observability is attached.
  std::vector<Candidate> BuildChildCandidates(const std::vector<Candidate>& sr,
                                              size_t i, CoverMask child_covered,
                                              CoverMask* child_union);
  // Forwards to the attached QueryTrace (no-op when none); depth is the
  // current |S_I|.
  void RecordTrace(obs::TraceEventKind kind, VertexId vertex, int64_t detail);
  void SortCandidates(std::vector<Candidate>& cands) const;
  // Anytime warm start: up to top_n_ greedy constructions over `sr`
  // (skip-based restart diversification, k-line feasibility through the
  // checker). Seeding the collector with them makes best-so-far non-empty
  // from the first node and starts Theorem-2 pruning at the greedy bound;
  // exactness of a completed run is unaffected (the collector still admits
  // every strictly-better group).
  std::vector<Group> GreedySeeds(const std::vector<Candidate>& sr);
  // Sum of the `need` largest vkc values in `cands[from:]`; assumes the
  // vector is vkc-descending for VKC strategies, scans otherwise.
  int OptimisticGain(const std::vector<Candidate>& cands, size_t from,
                     uint32_t need) const;
  void OfferCurrent(CoverMask covered);

  // --- root-parallel machinery -------------------------------------------
  // Worker count Run() will actually use for this query (1 unless
  // num_threads, the checker, and the candidate count all allow more).
  uint32_t EffectiveWorkers(size_t num_candidates) const;
  // Runs the first tree level across `workers` threads on the root-
  // parallel driver (core/root_parallel.h); returns the final ordered
  // groups (the parallel counterpart of collector_.Take()) and whether the
  // run completed. `seeds` are pre-search groups (anytime warm start)
  // offered into the shared top-N before any worker claims a root.
  std::vector<Group> ParallelRootSearch(const std::vector<Candidate>& sr,
                                        CoverMask sr_union, uint32_t workers,
                                        const std::vector<Group>& seeds,
                                        const Stopwatch& run_watch,
                                        bool* complete);

  const AttributedGraph& graph_;
  const InvertedIndex& index_;
  DistanceChecker& checker_;
  EngineOptions options_;

  // True when any observability sink is attached; gates the per-node
  // recording sites so the disabled path stays branch-only.
  bool instrument_ = false;

  // Per-run state.
  uint32_t p_ = 0;
  HopDistance k_ = 0;
  uint32_t top_n_ = 1;
  TopNCollector collector_{1};
  std::vector<VertexId> members_;
  SearchStats stats_;
  bool last_run_complete_ = true;

  // The search's run controls: over collector_ on the serial path, over
  // the run's shared state on the per-worker clones of a parallel run.
  RunControls controls_;
};

/// Convenience wrapper: builds a transient engine and runs one query.
Result<KtgResult> RunKtg(const AttributedGraph& graph,
                         const InvertedIndex& index, DistanceChecker& checker,
                         const KtgQuery& query, EngineOptions options = {});

}  // namespace ktg

#endif  // KTG_CORE_KTG_ENGINE_H_
