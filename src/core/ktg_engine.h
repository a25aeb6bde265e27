// Copyright (c) 2026 The ktg Authors.
// The exact branch-and-bound KTG engine of Section IV.
//
// One engine implements all three published variants through EngineOptions:
//   KTG-QKC      — SortStrategy::kQkc     (static query-keyword-coverage sort)
//   KTG-VKC      — SortStrategy::kVkc     (Algorithm 1)
//   KTG-VKC-DEG  — SortStrategy::kVkcDeg  (VKC + degree tie-break)
// combined with any DistanceChecker (BFS / NL / NLRNL), which is
// how the paper names configurations like "KTG-VKC-DEG-NLRNL".
//
// Search space: combinations of the candidate set S_R. A tree node holds an
// intermediate set S_I and its remaining candidates; child i selects the
// i-th remaining candidate in the node's order and recurses on the ones
// after it (set-minus semantics keeps every combination visited exactly
// once although each node orders its candidates afresh). The S_R of a node
// is a bitset over the run's slots, walked in vkc buckets (core/frontier.h).
// Two accelerations cut the tree:
//   * keyword pruning (Theorem 2): an optimistic coverage bound against the
//     current N-th result,
//   * k-line filtering (Theorem 3): candidates within k hops of the newly
//     selected member leave S_R immediately.

#ifndef KTG_CORE_KTG_ENGINE_H_
#define KTG_CORE_KTG_ENGINE_H_

#include <algorithm>
#include <array>
#include <vector>

#include "core/candidates.h"
#include "core/conflict_rows.h"
#include "core/frontier.h"
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
/// Stateful per-run scratch: the frontier arena (one S_R bitset and its vkc
/// buckets per search depth), the k-line memo and the graph-side rows that
/// fill it, all reused across runs.
/// No node copies or sorts an S_R; the only allocations inside the search
/// are a pivot's first memo row and the graph-side rows' build. A single
/// engine instance is not thread-safe. The graph, inverted index and
/// checker must outlive the engine, and the checker must answer distances
/// on the graph's own social graph: the memo takes rows from either. When
/// EngineOptions::num_threads > 1 and the checker is concurrent-read-safe,
/// Run() splits the first level of the search tree across that many worker
/// threads, each driving a private engine clone (its own arena and memo,
/// reading the graph-side rows the calling engine built) that builds a
/// claimed root's S_R from the root order; subtree results feed a shared
/// top-N whose N-th score (a relaxed atomic snapshot) is the pruning bound,
/// so every worker benefits from every other's results.
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
  // Sizes the frontier and empties the k-line memo for a run over the
  // ranked S_R `sr`.
  void StartRun(const std::vector<Candidate>& sr);
  // The node at `depth` (= |S_I|) with coverage `covered`; its S_R is
  // frontier_.remaining(depth), `size` slots.
  void Search(uint32_t depth, CoverMask covered, uint32_t size);
  // One child of the node at `depth`: the parent-side bounds for branching
  // on slot `v` (of vkc `vkc` in the node), the lazy feasibility check,
  // then the child's subtree. The frontier has already taken v and every
  // earlier sibling out of the node's S_R. `covered` is the node's
  // coverage, `ceiling` its reachable-coverage ceiling, `need` the members
  // still missing and `reach` the union of v's and the later siblings'
  // masks for the residual clamp (null when the clamp is off or not yet
  // built). Returns false when a bound that only falls along the node's
  // order pruned the child, so no later child can contribute. The serial
  // walk and the root-parallel step both run it, so a root's subtree is
  // exactly the serial first level's.
  bool Branch(uint32_t depth, uint32_t v, int vkc, CoverMask covered,
              int ceiling, uint32_t need, const CoverMask* reach);
  // Writes the S_R of v's child: the node's remaining slots minus those
  // within k hops of v (Theorem 3), from the checker's ball, the k-line
  // memo or one check per slot. Returns its size. Charges filter time to
  // the kKlineFilter sub-phase and emits a trace event when observability
  // is attached.
  uint32_t BuildChild(uint32_t depth, uint32_t v);
  // The slots of `bits` (word `w` of an S_R) within k hops of the pivot
  // `v`, read from v's memo row; a pair the row does not know yet is read
  // from the other slot's row or asked of the checker once, then recorded.
  uint64_t MemoWithinK(uint64_t* row, uint32_t v, size_t w, uint64_t bits);
  // Before v's memo row answers the S_R `rem`: fills the whole row from the
  // run's graph-side rows when the fill policy (see the cost constants)
  // prices that below the checks the row would still ask.
  void FillFromGraph(uint64_t* row, uint32_t v, const uint64_t* rem);
  // Whether this run may build the graph-side rows now: a serial run once
  // its checks would have paid for the build (a parallel run's clones
  // read the rows the coordinating engine built, if any, and never build).
  bool RowsPaidFor();
  // The memo row of `slot`, allocated zeroed on its first use.
  uint64_t* MemoRow(uint32_t slot);
  // Forwards to the attached QueryTrace (no-op when none); depth is the
  // current |S_I|.
  void RecordTrace(obs::TraceEventKind kind, VertexId vertex, int64_t detail);
  // Anytime warm start: up to top_n_ greedy constructions over `sr`
  // (skip-based restart diversification, k-line feasibility through the
  // checker). Seeding the collector with them makes best-so-far non-empty
  // from the first node and starts Theorem-2 pruning at the greedy bound;
  // exactness of a completed run is unaffected (the collector still admits
  // every strictly-better group).
  std::vector<Group> GreedySeeds(const std::vector<Candidate>& sr);
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
                                        uint32_t workers,
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

  // The run's S_R per search depth, and each slot's vertex.
  Frontier frontier_;
  std::vector<VertexId> slot_vertex_;

  // The run's k-line memo between S_R candidates, indexed by slot. A
  // candidate gets a row on its first use as a pivot: two bitsets over
  // slots, `known` and `within`, interleaved word by word (2 * words
  // words). Only the pivot's row is written, so memory follows the pivots
  // the run expands. The engine keeps the storage across runs; each
  // root-parallel clone has its own for its run.
  static constexpr uint32_t kNoRow = ~uint32_t{0};
  std::vector<uint32_t> memo_row_;  // slot -> its row's index, or kNoRow
  std::vector<uint64_t> memo_bits_;

  // Graph-side k-line rows (core/conflict_rows.h) for the memo, priced in
  // word operations against a checker call's CheckCost(). A pivot's row is
  // filled from the graph when the checks it still needs in the node cost
  // more than the pivot's walk. A serial run builds the rows once its
  // checks would have paid for the build, a rent-or-buy rule that costs at
  // most about twice what the better choice would have; a root-parallel
  // run's coordinator builds them for its clones when the workers' first
  // rows alone would ask that much. The prices are by k, as an index
  // check scans up to k levels; k >= 4 is priced as 4.
  static constexpr std::array<uint64_t, 5> kCheckCost = {16, 48, 112, 144,
                                                         160};
  uint64_t CheckCost() const {
    return kCheckCost[std::min<size_t>(k_, kCheckCost.size() - 1)];
  }
  ConflictRows own_rows_;
  const ConflictRows* rows_ = nullptr;  // the run's rows once built
  bool rows_open_ = false;  // whether this run may still build own_rows_
  uint64_t rows_cost_ = 0;  // own_rows_'s estimated build, 0 = not priced
  // slot -> a floor under its fill's price, from a pricing that stopped
  // at the checks it was weighed against (0 = none yet)
  std::vector<uint64_t> fill_floor_;
};

/// Convenience wrapper: builds a transient engine and runs one query.
Result<KtgResult> RunKtg(const AttributedGraph& graph,
                         const InvertedIndex& index, DistanceChecker& checker,
                         const KtgQuery& query, EngineOptions options = {});

}  // namespace ktg

#endif  // KTG_CORE_KTG_ENGINE_H_
