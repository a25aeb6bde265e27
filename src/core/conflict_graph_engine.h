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
  /// construction; kept as the reference for the construction tests and
  /// bench_kernels).
  kPairwise,
  /// Ball walk: one bounded BFS per candidate over the social graph,
  /// intersected with the candidate-membership map — O(n · ball) instead
  /// of O(n²) probes, no DistanceChecker calls. When the checker is a
  /// KHopBitmapChecker built for the query's k, even the BFS disappears:
  /// adjacency rows are the matrix rows ANDed with the membership bitmap,
  /// word-parallel.
  kBallWalk,
};

/// Knobs for the conflict-graph engine: the shared core (see
/// SearchOptions) plus the degeneracy branching order. Notes on the core
/// fields as this engine reads them:
///   * keyword_pruning always uses the reachable-coverage clamp (this
///     engine is an extension, so it takes the tighter bound);
///   * num_threads also splits the conflict-adjacency build;
///   * kAnytime (and kPortfolio reaching this engine directly) warm-starts
///     the collector with greedy seed groups built word-parallel on the
///     conflict adjacency;
///   * conflict-graph construction time is attributed to the kline_filter
///     phase — it is the same pairwise k-line work, paid up front;
///   * cached results live under their own engine tag, so conflict-engine
///     results never serve a KtgEngine lookup or vice versa.
/// Candidate sets larger than kMaxConflictCandidates (core/run_frame.h)
/// are refused with ResourceExhausted: the conflict graph is quadratic in
/// candidates. The adjacency is built by the ball walk
/// (ConflictBuild::kBallWalk).
struct ConflictEngineOptions : SearchOptions {
  /// Branch in reverse degeneracy order of the conflict graph instead of
  /// the static (VKC, degree, id) rank: candidates in the densest core —
  /// the ones conflicting with most others — are tried first, so infeasible
  /// combinations die high in the tree. Exact (the coverage profile is
  /// unchanged; which members represent a tied coverage value may differ,
  /// so degeneracy runs bypass the result cache).
  bool degeneracy_order = false;
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
/// that unless it is a KHopBitmapChecker built for the query's k).
Result<KtgResult> RunKtgConflictGraph(const AttributedGraph& graph,
                                      const InvertedIndex& index,
                                      DistanceChecker& checker,
                                      const KtgQuery& query,
                                      ConflictEngineOptions options = {});

}  // namespace ktg

#endif  // KTG_CORE_CONFLICT_GRAPH_ENGINE_H_
