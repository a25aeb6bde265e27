// Copyright (c) 2026 The ktg Authors.
// An alternative exact KTG engine over a materialized conflict graph —
// this library's engineering contribution, compared against the paper's
// engines in bench_ablation.
//
// Observation: after candidate extraction, a KTG query is a maximum-
// coverage independent-set problem on the *conflict graph* — vertices are
// the candidates, an edge joins two candidates within k hops (a k-line).
// The paper's engines interleave social-distance checks with the search;
// this engine pays all pairwise checks up front (C(|candidates|, 2) of
// them), stores the conflict graph as adjacency bitsets, and then runs the
// same VKC-guided branch-and-bound where k-line filtering is a single
// AND-NOT over words. Trade-off: the up-front quadratic check cost buys
// O(n/64) filtering per node — a win when the search explores many nodes
// per candidate (large p, tight tenuity), a loss on instant queries.

#ifndef KTG_CORE_CONFLICT_GRAPH_ENGINE_H_
#define KTG_CORE_CONFLICT_GRAPH_ENGINE_H_

#include <vector>

#include "core/candidates.h"
#include "core/options.h"
#include "core/query.h"
#include "index/distance_checker.h"
#include "keywords/attributed_graph.h"
#include "keywords/inverted_index.h"
#include "util/bitset_ops.h"
#include "util/status.h"

namespace ktg {

class ThreadPool;

/// How the conflict adjacency bitsets are materialized.
enum class ConflictBuild {
  /// All-pairs checker probes: C(n, 2) IsFartherThan calls (the original
  /// construction; kept for the ablation/microbench comparison).
  kPairwise,
  /// Ball walk: one bounded BFS per candidate over the social graph,
  /// intersected with the candidate-membership map — O(n · ball) instead
  /// of O(n²) probes, no DistanceChecker calls. When the checker is a
  /// KHopBitmapChecker built for the query's k, even the BFS disappears:
  /// adjacency rows are the matrix rows ANDed with the membership bitmap,
  /// word-parallel.
  kBallWalk,
};

/// Knobs for the conflict-graph engine.
struct ConflictEngineOptions {
  /// Refuse queries whose candidate set exceeds this (the conflict graph
  /// is quadratic in candidates). 0 = unlimited.
  uint32_t max_candidates = 20000;
  /// Worker threads for the search and the conflict-graph build (0 =
  /// hardware concurrency). With 1 (the default) the engine is serial,
  /// bit-for-bit. With more, the first level of the search tree is split
  /// across workers by the root-parallel driver (core/root_parallel.h): the
  /// result is still the exact top-N coverage multiset, but which members
  /// represent a tied coverage value can differ from the serial order —
  /// so parallel runs bypass the result cache, like degeneracy runs.
  uint32_t num_threads = 1;
  /// Theorem-2 pruning (with the reachable-coverage clamp; this engine is
  /// an extension, so it always uses the tighter bound).
  bool keyword_pruning = true;
  /// Per-child residual-coverage upper bound (ON by default): before
  /// recursing into a child, clamp its bound by the coverage reachable
  /// from the child's *surviving* candidate bitset, computed word-parallel
  /// from per-keyword position bitmaps with early exit. Strictly tighter
  /// than the node-level reachable ceiling because the child set has
  /// already lost the selected candidate's conflicts. Exact; prunes count
  /// as SearchStats::ub_prunes. See docs/kernels.md.
  bool residual_bound = true;
  /// Conflict-graph construction strategy (see ConflictBuild).
  ConflictBuild build = ConflictBuild::kBallWalk;
  /// Branch in reverse degeneracy order of the conflict graph instead of
  /// the static (VKC, degree, id) rank: candidates in the densest core —
  /// the ones conflicting with most others — are tried first, so infeasible
  /// combinations die high in the tree. Exact (the coverage profile is
  /// unchanged; which members represent a tied coverage value may differ,
  /// so degeneracy runs bypass the result cache).
  bool degeneracy_order = false;
  /// Node budget (0 = unlimited).
  uint64_t max_nodes = 0;
  /// Wall-clock budget for one run in milliseconds (0 = unlimited), polled
  /// every 64 node expansions like EngineOptions::time_budget_ms. A run
  /// that exceeds it stops with the best groups found so far; the result's
  /// stats carry the optimality gap (SearchStats::gap).
  double time_budget_ms = 0.0;
  /// Completeness/latency trade-off (see EngineMode). kAnytime (and
  /// kPortfolio reaching this engine directly) warm-starts the collector
  /// with greedy seed groups built word-parallel on the conflict adjacency,
  /// and bypasses the result cache.
  EngineMode mode = EngineMode::kExact;
  /// Observability sinks, borrowed; null = disabled (see EngineOptions).
  /// Conflict-graph construction time is attributed to the kline_filter
  /// phase — it is the same pairwise k-line work, paid up front.
  obs::MetricsRegistry* metrics = nullptr;
  obs::QueryTrace* trace = nullptr;
  /// Cross-query result cache, borrowed (see EngineOptions::cache). Keyed
  /// under a distinct engine tag, so conflict-engine results never serve a
  /// KtgEngine lookup or vice versa. Truncated runs (max_nodes) bypass it.
  KtgCache* cache = nullptr;
  /// Epoch the run's graph/index state is pinned at; tags every cache
  /// access (see EngineOptions::snapshot_epoch). Defaults to "follow the
  /// cache's current epoch" — the value of cache/ktg_cache.h's
  /// kCurrentEpoch, spelled out to keep this header cache-free.
  uint64_t snapshot_epoch = ~uint64_t{0};
};

/// The materialized conflict graph over a candidate set: adj[i] is the
/// bitset of candidate positions within k hops of candidate i (symmetric,
/// diagonal clear). `edges` counts unordered conflict pairs.
struct ConflictAdjacency {
  std::vector<Bitset> adj;
  uint64_t edges = 0;
};

/// Builds the conflict adjacency for `cands` with the chosen strategy.
/// Both strategies produce bit-identical matrices (property-tested);
/// kPairwise issues C(n,2) checker probes, kBallWalk walks one bounded BFS
/// ball per candidate over `graph` (or reads KHopBitmapChecker rows
/// directly when `checker` is one built for this `k`). Exposed for
/// bench_kernels and the construction-equivalence tests; the engine calls
/// it internally.
/// When `pool` is non-null, the ball-walk and bitmap constructions split
/// the per-candidate row work over it with ParallelFor, one BoundedBfs or
/// AND-scratch vector per chunk. The pairwise construction stays serial
/// (the checker is not required to be concurrent-read-safe). The matrix is
/// bit-identical either way.
ConflictAdjacency BuildConflictAdjacency(const Graph& graph,
                                         DistanceChecker& checker,
                                         const std::vector<Candidate>& cands,
                                         HopDistance k, ConflictBuild build,
                                         ThreadPool* pool = nullptr);

/// Runs a KTG query on the materialized conflict graph. Exact: returns the
/// same coverage profile as the paper's engines (property-tested).
/// `checker` is only used to build the conflict graph (and not even for
/// that under the default ball-walk construction).
Result<KtgResult> RunKtgConflictGraph(const AttributedGraph& graph,
                                      const InvertedIndex& index,
                                      DistanceChecker& checker,
                                      const KtgQuery& query,
                                      ConflictEngineOptions options = {});

}  // namespace ktg

#endif  // KTG_CORE_CONFLICT_GRAPH_ENGINE_H_
