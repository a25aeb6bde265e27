// Copyright (c) 2026 The ktg Authors.

#include "heur/portfolio.h"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <string>

#include "core/ktg_engine.h"
#include "core/run_frame.h"
#include "core/topn.h"
#include "heur/heuristics.h"
#include "obs/metrics.h"
#include "obs/phase_timer.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace ktg::heur {
namespace {

constexpr uint32_t kNumStrategies = 4;
const char* const kStrategyNames[kNumStrategies] = {"greedy", "grasp", "swap",
                                                    "tabu"};

// Per-strategy tallies, merged under the aggregation mutex after the race.
struct StrategyStats {
  uint64_t iterations = 0;
  uint64_t improvements = 0;  // offers the shared incumbent admitted
};

// Everything a strategy worker needs; shared members are written through
// the incumbent only (plus the result-neutral threshold early stop).
struct RaceContext {
  HeurContext ctx;
  SharedTopN* incumbent;
  const PortfolioOptions* options;
  int root_ub = 0;
  Stopwatch watch;  // run-entry origin, shared by every strategy

  bool OutOfBudget() const {
    // threshold() == root_ub means no offer can ever be admitted again:
    // stopping here cannot change the final collector content, so the
    // early stop is result-neutral even under racing.
    if (incumbent->threshold() >= root_ub) return true;
    return options->time_budget_ms > 0 &&
           watch.ElapsedMillis() > options->time_budget_ms;
  }

  void Offer(const PosGroup& g, StrategyStats* st) {
    if (!g.complete(ctx)) return;
    if (incumbent->Offer(ToGroup(ctx, g))) ++st->improvements;
  }
};

void RunGreedy(RaceContext& rc, StrategyStats* st) {
  const auto n = static_cast<uint32_t>(rc.ctx.cands->size());
  for (uint64_t iter = 0; iter < rc.options->max_iterations && iter < n;
       ++iter) {
    if (rc.OutOfBudget()) return;
    ++st->iterations;
    PosGroup g = GreedyConstruct(rc.ctx, static_cast<uint32_t>(iter));
    ShiftSwapDescent(rc.ctx, &g);
    rc.Offer(g, st);
  }
}

void RunGrasp(RaceContext& rc, StrategyStats* st, uint64_t seed) {
  SplitMix64 rng(seed);
  for (uint64_t iter = 0; iter < rc.options->max_iterations; ++iter) {
    if (rc.OutOfBudget()) return;
    ++st->iterations;
    PosGroup g = GraspConstruct(rc.ctx, rng, rc.options->rcl_alpha);
    ShiftSwapDescent(rc.ctx, &g);
    rc.Offer(g, st);
  }
}

void RunSwap(RaceContext& rc, StrategyStats* st, uint64_t seed) {
  SplitMix64 rng(seed);
  for (uint64_t iter = 0; iter < rc.options->max_iterations; ++iter) {
    if (rc.OutOfBudget()) return;
    ++st->iterations;
    // Uniform-random feasible start (alpha 1: every allowed position is in
    // the RCL), then pure descent — the restart-hill-climbing baseline.
    PosGroup g = GraspConstruct(rc.ctx, rng, 1.0);
    ShiftSwapDescent(rc.ctx, &g);
    rc.Offer(g, st);
  }
}

void RunTabu(RaceContext& rc, StrategyStats* st) {
  PosGroup g = GreedyConstruct(rc.ctx, 0);
  ShiftSwapDescent(rc.ctx, &g);
  if (!g.complete(rc.ctx)) return;  // no feasible basis to walk from
  rc.Offer(g, st);
  int best_known = g.covered();
  std::vector<uint64_t> tabu_until(rc.ctx.cands->size(), 0);
  for (uint64_t step = 1; step <= rc.options->max_iterations; ++step) {
    if (rc.OutOfBudget()) return;
    ++st->iterations;
    if (!TabuStep(rc.ctx, &g, &tabu_until, step, rc.options->tabu_tenure,
                  best_known)) {
      return;  // isolated group: no swap neighborhood at all
    }
    best_known = std::max(best_known, g.covered());
    rc.Offer(g, st);
  }
}

}  // namespace

Result<KtgResult> RunKtgPortfolio(const AttributedGraph& graph,
                                  const InvertedIndex& index,
                                  DistanceChecker& checker,
                                  const KtgQuery& query,
                                  PortfolioOptions options) {
  // The run frame's prologue (core/run_frame.h) without the cache: the
  // portfolio never claims completeness, so it is never cached.
  KTG_RETURN_IF_ERROR(ValidateQuery(query, graph));
  Stopwatch watch;
  SearchStats stats;
  CheckerCounters checker_before;
  std::vector<Candidate> cands =
      ExtractRunCandidates(graph, index, checker, query, options.metrics,
                           &stats, &checker_before);
  KTG_RETURN_IF_ERROR(CheckConflictCandidates(cands.size(), "portfolio"));
  {
    obs::PhaseTimer timer(&stats.phases, obs::Phase::kCandidateGen);
    // The engines' static root rank; GreedyConstruct's skip semantics rely
    // on it.
    std::sort(cands.begin(), cands.end(), StaticRankLess{});
  }
  const auto n = static_cast<uint32_t>(cands.size());
  const int root_ub =
      RootUpperBound(cands, query.group_size, query.num_keywords());

  ConflictAdjacency cg;
  SharedTopN incumbent(query.top_n);
  StrategyStats per_strategy[kNumStrategies];
  {
    obs::PhaseTimer bb_timer(&stats.phases, obs::Phase::kBbSearch);
    {
      obs::PhaseTimer timer(&stats.phases, obs::Phase::kKlineFilter);
      cg = BuildConflictAdjacency(graph.graph(), checker, cands,
                                  query.tenuity, ConflictBuild::kBallWalk);
      stats.kline_filtered += cg.edges;
    }

    RaceContext rc;
    rc.ctx.cands = &cands;
    rc.ctx.adj = &cg.adj;
    rc.ctx.p = query.group_size;
    rc.incumbent = &incumbent;
    rc.options = &options;
    rc.root_ub = root_ub;
    rc.watch = watch;

    if (n >= query.group_size) {
      const uint32_t workers = std::min<uint32_t>(
          kNumStrategies, ThreadPool::Resolve(options.num_threads));
      ThreadPool pool(workers);
      for (uint32_t s = 0; s < kNumStrategies; ++s) {
        StrategyStats* st = &per_strategy[s];
        // Independent deterministic stream per strategy: racing never
        // changes what any strategy explores.
        const uint64_t stream = options.seed * kNumStrategies + s + 1;
        pool.Submit([&rc, st, s, stream] {
          switch (s) {
            case 0:
              RunGreedy(rc, st);
              break;
            case 1:
              RunGrasp(rc, st, stream);
              break;
            case 2:
              RunSwap(rc, st, stream);
              break;
            default:
              RunTabu(rc, st);
          }
        });
      }
      pool.Wait();
    }
  }

  KtgResult result;
  {
    obs::PhaseTimer timer(&stats.phases, obs::Phase::kTopNMerge);
    result.groups = incumbent.Take();
  }
  result.query_keyword_count = query.num_keywords();
  for (const StrategyStats& st : per_strategy) {
    stats.nodes_expanded += st.iterations;
    stats.groups_completed += st.improvements;
  }
  const int best_found =
      result.groups.empty() ? 0 : result.groups.front().covered();
  stats.upper_bound = root_ub;
  stats.gap = std::max(0, root_ub - best_found);
  stats.distance_checks = checker.num_checks() - checker_before.checks;
  stats.elapsed_ms = watch.ElapsedMillis();
  stats.cpu_ms = stats.elapsed_ms;  // racing cost is not separately clocked
  result.stats = stats;

  RecordSearchStats(options.metrics, stats, "portfolio");
  RecordAnytimeStats(options.metrics, stats, /*complete=*/stats.gap == 0,
                     /*seeded=*/0);
  if (options.metrics != nullptr) {
    for (uint32_t s = 0; s < kNumStrategies; ++s) {
      const std::string p = std::string("heur.") + kStrategyNames[s];
      options.metrics->counter(p + ".iterations")
          .Add(per_strategy[s].iterations);
      options.metrics->counter(p + ".improvements")
          .Add(per_strategy[s].improvements);
    }
  }
  RecordCheckerDelta(options.metrics, checker, checker_before);
  return result;
}

Result<KtgResult> RunKtgWithMode(const AttributedGraph& graph,
                                 const InvertedIndex& index,
                                 DistanceChecker& checker,
                                 const KtgQuery& query, EngineOptions options,
                                 PortfolioOptions portfolio) {
  if (options.mode != EngineMode::kPortfolio) {
    return RunKtg(graph, index, checker, query, options);
  }
  portfolio.num_threads = options.num_threads;
  portfolio.time_budget_ms = options.time_budget_ms;
  portfolio.metrics = options.metrics;
  return RunKtgPortfolio(graph, index, checker, query, portfolio);
}

}  // namespace ktg::heur
