// Copyright (c) 2026 The ktg Authors.
// The metaheuristic portfolio: four local-search strategies raced on the
// ThreadPool against one shared incumbent (SharedTopN), plus the
// mode-dispatch entry the CLI and server call.
//
// Strategies (src/heur/heuristics.h):
//   greedy — deterministic constructions, one per skip level, each
//            polished by shift/swap descent (the multi-start baseline);
//   grasp  — randomized RCL constructions + descent (GRASP restarts);
//   swap   — uniform-random feasible starts + descent (pure restart
//            hill-climbing, stressing the swap neighborhood);
//   tabu   — one long trajectory: greedy start, then steepest swap steps
//            with a recency tabu list and aspiration.
//
// Every strategy is deterministic given the portfolio seed and only
// *writes* to the incumbent; the sole shared read is the result-neutral
// early stop "N-th coverage == upper bound" (once true, no offer can be
// admitted). Hence the best coverage found — the quantity the CI quality
// gate certifies — does not depend on thread interleaving, and iteration
// budgets give bit-reproducible quality across machines.
//
// The result carries the same sound optimality gap as a truncated exact
// run: SearchStats::upper_bound is min(|W_Q|, reachable-union popcount,
// additive top-p coverage sum) and gap = upper_bound - best found. A gap
// of 0 proves the returned best group optimal (docs/heuristics.md).

#ifndef KTG_HEUR_PORTFOLIO_H_
#define KTG_HEUR_PORTFOLIO_H_

#include <cstdint>

#include "core/conflict_graph_engine.h"
#include "core/options.h"
#include "core/query.h"
#include "index/distance_checker.h"
#include "keywords/attributed_graph.h"
#include "keywords/inverted_index.h"
#include "util/status.h"

namespace ktg::heur {

/// Knobs of the portfolio run.
struct PortfolioOptions {
  /// Racing workers (0 = one per strategy). A single worker runs the
  /// strategies sequentially — same best coverage, no races at all.
  uint32_t num_threads = 0;
  /// Wall-clock budget per run in milliseconds (0 = iteration-bounded
  /// only). Polled between iterations by every strategy.
  double time_budget_ms = 0.0;
  /// Per-strategy iteration budget; with time_budget_ms == 0 this makes
  /// the run deterministic in outcome AND cost (the CI quality gate and
  /// the certification tests rely on it).
  uint64_t max_iterations = 256;
  /// PRNG seed; each strategy derives an independent stream from it.
  uint64_t seed = 1;
  /// GRASP restricted-candidate-list looseness in [0, 1] (0 = greedy,
  /// 1 = uniform over allowed).
  double rcl_alpha = 0.5;
  /// Tabu tenure in steps for the dropped-member recency list.
  uint32_t tabu_tenure = 7;
  /// Observability sink, borrowed; null = disabled. Receives the
  /// portfolio.* run stats, the search.anytime.* family, and per-strategy
  /// heur.<name>.iterations/.improvements counters.
  obs::MetricsRegistry* metrics = nullptr;
};

/// Runs the portfolio for `query`. The result's groups satisfy every KTG
/// constraint; stats.upper_bound/gap report provable quality, and
/// stats.complete stays false. Errors on malformed queries and on
/// candidate sets over kMaxConflictCandidates (core/run_frame.h).
Result<KtgResult> RunKtgPortfolio(const AttributedGraph& graph,
                                  const InvertedIndex& index,
                                  DistanceChecker& checker,
                                  const KtgQuery& query,
                                  PortfolioOptions options = {});

/// Mode dispatch for EngineOptions::mode: kExact/kAnytime run the
/// branch-and-bound engine (RunKtg) with the options as given; kPortfolio
/// runs the portfolio, inheriting num_threads/time_budget_ms/metrics from
/// `options` on top of `portfolio` defaults.
Result<KtgResult> RunKtgWithMode(const AttributedGraph& graph,
                                 const InvertedIndex& index,
                                 DistanceChecker& checker,
                                 const KtgQuery& query, EngineOptions options,
                                 PortfolioOptions portfolio = {});

}  // namespace ktg::heur

#endif  // KTG_HEUR_PORTFOLIO_H_
