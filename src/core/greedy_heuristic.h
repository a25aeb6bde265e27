// Copyright (c) 2026 The ktg Authors.
// A greedy (non-exact) KTG heuristic — this library's extension for the
// regime the exact branch-and-bound cannot reach (large p or huge
// candidate sets). Not part of the paper; the ablation bench quantifies
// its quality/latency trade-off against the exact engine.
//
// Construction mirrors one root-to-leaf path of KTG-VKC-DEG: repeatedly
// take the best remaining candidate (highest VKC, then smallest degree),
// k-line-filter the rest, and never backtrack. To produce N groups it
// restarts with earlier pivots excluded (each restart skips one more of
// the best-ranked candidates), which also gives mildly diversified output.
// Runs in O(N · p · |candidates|) distance checks.

#ifndef KTG_CORE_GREEDY_HEURISTIC_H_
#define KTG_CORE_GREEDY_HEURISTIC_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "core/candidates.h"
#include "core/options.h"
#include "core/query.h"
#include "index/distance_checker.h"
#include "keywords/attributed_graph.h"
#include "keywords/inverted_index.h"
#include "util/status.h"

namespace ktg {

/// Knobs for the greedy heuristic.
struct GreedyOptions {
  /// Observability sinks, borrowed; null = disabled (see EngineOptions).
  obs::MetricsRegistry* metrics = nullptr;
  obs::QueryTrace* trace = nullptr;
};

/// One no-backtracking greedy construction over `pool`: drop the `skip`
/// best-ranked first picks (restart diversification), then repeatedly take
/// the candidate with the highest VKC refreshed against the members so far
/// (smaller degree, then earlier position in `pool`, breaks ties) and
/// k-line-filter the rest against it (Theorem 3). nullopt when the pool
/// dead-ends before `p` members. Adds one stats->nodes_expanded per member
/// placed, one stats->kline_filtered per candidate filtered out, and its
/// distance checks to stats->distance_checks (a tally). Both
/// `--algo greedy` (RunKtgGreedy) and the anytime seeds (KtgEngine) build
/// their groups with it, each with its own restart loop.
std::optional<Group> GreedyConstruct(std::vector<Candidate> pool,
                                     uint32_t skip, uint32_t p, HopDistance k,
                                     DistanceChecker& checker,
                                     SearchStats* stats);

/// Runs the greedy heuristic for `query`. The result satisfies every KTG
/// constraint (size, tenuity, per-member coverage) but its coverage may be
/// below the exact optimum; stats.groups_completed counts constructions.
Result<KtgResult> RunKtgGreedy(const AttributedGraph& graph,
                               const InvertedIndex& index,
                               DistanceChecker& checker,
                               const KtgQuery& query,
                               GreedyOptions options = {});

}  // namespace ktg

#endif  // KTG_CORE_GREEDY_HEURISTIC_H_
