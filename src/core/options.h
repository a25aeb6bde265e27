// Copyright (c) 2026 The ktg Authors.
// Engine configuration: sorting strategy and toggles for the paper's two
// accelerations (keyword pruning, k-line filtering), plus safety valves.
// The toggles exist so the ablation bench can quantify each idea.

#ifndef KTG_CORE_OPTIONS_H_
#define KTG_CORE_OPTIONS_H_

#include <cstdint>
#include <string>

namespace ktg::obs {
class MetricsRegistry;
class QueryTrace;
}  // namespace ktg::obs

namespace ktg {

class KtgCache;

/// Candidate ordering inside the branch-and-bound search (Section IV).
enum class SortStrategy {
  /// Static query-keyword-coverage sorting: sort once by QKC(v), never
  /// re-sort (the KTG-QKC variant evaluated in Fig. 3).
  kQkc,
  /// Valid-keyword-coverage sorting: re-sort S_R by VKC w.r.t. the current
  /// S_I after every selection (KTG-VKC, Algorithm 1).
  kVkc,
  /// VKC with vertex degree as tie-breaker (KTG-VKC-DEG). Small degree is
  /// preferred: low-degree members conflict with fewer candidates, so a
  /// feasible group forms earlier.
  kVkcDeg,
};

const char* SortStrategyName(SortStrategy s);

/// How a run trades completeness for latency.
enum class EngineMode {
  /// The full branch-and-bound search; results are the exact top-N unless
  /// a budget (max_nodes / time_budget_ms) truncates it.
  kExact,
  /// Exact search warm-started from greedy seed groups: the collector is
  /// never empty once seeding succeeds, so a truncated run always returns
  /// best-so-far groups plus a sound optimality gap (SearchStats::gap).
  /// A run that finishes within its budget is still exact in the coverage
  /// profile — but tie representatives may differ from kExact, so anytime
  /// runs bypass the cross-query result cache.
  kAnytime,
  /// Raced portfolio of local-search heuristics (src/heur/); never exact
  /// by construction, but reports the same sound gap. Engines themselves
  /// treat this like kAnytime — the dispatch lives in
  /// heur::RunKtgWithMode, which routes kPortfolio to the portfolio.
  kPortfolio,
};

const char* EngineModeName(EngineMode m);
/// Parses "exact" | "anytime" | "portfolio"; false on anything else.
bool ParseEngineMode(const std::string& name, EngineMode* out);

/// Knobs of the exact KTG engine.
struct EngineOptions {
  SortStrategy sort = SortStrategy::kVkcDeg;

  /// Completeness/latency trade-off (see EngineMode). kPortfolio is only
  /// honored by heur::RunKtgWithMode; the engines treat it as kAnytime.
  EngineMode mode = EngineMode::kExact;

  /// Theorem 2: cut branches whose optimistic coverage cannot beat the
  /// current N-th group.
  bool keyword_pruning = true;

  /// Extension on top of Theorem 2 (this library's tightening, ON by
  /// default): additionally bound a branch by the *reachable* coverage
  /// popcount(covered ∪ union of remaining masks), which never exceeds
  /// |W_Q|. The paper's additive bound alone can exceed |W_Q| and stops
  /// pruning once the top groups saturate; the ablation bench quantifies
  /// the gap. Turn OFF to reproduce the published algorithm exactly (the
  /// figure benches do).
  bool ceiling_prune = true;

  /// Extension on top of the ceiling (ON by default): clamp each child's
  /// Theorem-2 bound by the coverage reachable from that child's own
  /// suffix of S_R — popcount(covered ∪ union of masks from the child's
  /// position onward) — instead of the whole node's union. Strictly
  /// tighter, still exact (docs/kernels.md sketches the proof); prunes
  /// children before their S_R filter/re-sort is even built. Branches cut
  /// by this clamp alone are counted as SearchStats::ub_prunes
  /// (`engine.prune.ub`). Only consulted while keyword_pruning is on.
  bool residual_bound = true;

  /// Theorem 3: eagerly remove k-line conflicts from S_R after each
  /// selection. When false the engine checks feasibility lazily on
  /// selection instead (same results; the ablation bench compares cost).
  bool eager_kline_filtering = true;

  /// Use the checker's bulk ball materialization (one traversal per
  /// selected member instead of per-pair checks) when the checker offers
  /// one. Only the index-free BFS checker does today; NL/NLRNL per-pair
  /// checks are already cheap, so this flag does not affect them. Turn off
  /// to force the paper's per-pair accounting everywhere.
  bool bulk_filtering = true;

  /// Degree tie-break direction for kVkcDeg. The paper's motivation implies
  /// ascending (small degree first); the flag allows measuring the
  /// "descending" reading as well.
  bool degree_ascending = true;

  /// Worker threads for the branch-and-bound search (0 = hardware
  /// concurrency). With 1 (the default) the search is the serial engine,
  /// bit-for-bit — including tie-breaks among equal-coverage groups. With
  /// more, the first level of the search tree is split across workers that
  /// share a common top-N and pruning bound; results are still the exact
  /// top-N coverage multiset, but which members represent a tied coverage
  /// value can differ from the serial order (see docs/architecture.md).
  /// Requires a checker whose concurrent_read_safe() is true (NLRNL,
  /// bitmap, NL without memoization); otherwise the engine silently runs
  /// serially.
  uint32_t num_threads = 1;

  /// Stop the search after this many branch-and-bound nodes (0 = unlimited).
  /// When hit, the result is marked incomplete. The budget is global across
  /// the parallel workers.
  uint64_t max_nodes = 0;

  /// Wall-clock budget for one Run() in milliseconds (0 = unlimited). The
  /// clock starts when Run() is entered and is polled every
  /// kTimeBudgetCheckMask+1 node expansions (per worker under the
  /// root-parallel engine, so overrun is bounded by one node batch). A run
  /// that exceeds its budget stops with the best groups found so far and
  /// `last_run_complete()` false; like max_nodes truncations, such results
  /// are never stored into the cross-query cache — but a cache *hit* still
  /// serves a deadline query instantly. This is the serving-path deadline:
  /// `ktgd` maps a request's remaining deadline onto this knob.
  double time_budget_ms = 0.0;

  /// When > 0: stop as soon as the collector is full and every held group
  /// covers at least this many keywords. DKTG-Greedy uses it to accept the
  /// first group matching the previous round's coverage.
  int stop_at_count = 0;

  /// Observability sinks (see src/obs/). Both are borrowed, never owned;
  /// null (the default) means fully disabled — the engines then skip every
  /// recording site, so the hot path pays at most a predicted branch.
  /// `metrics` receives aggregated counters/histograms flushed once per
  /// run; `trace` receives per-node prune/expand events (serial engine and
  /// per-worker clones share one bounded ring, mutex-serialized — attach a
  /// trace only when diagnosing, not when benchmarking).
  obs::MetricsRegistry* metrics = nullptr;
  obs::QueryTrace* trace = nullptr;

  /// Cross-query cache (see src/cache/ and docs/caching.md). Borrowed,
  /// never owned; null (the default) disables both tiers. When set, Run()
  /// serves repeated queries from the result tier and stores every
  /// complete run; truncated searches (max_nodes / stop_at_count) are
  /// neither served from nor stored into the cache — their results are
  /// best-effort, not the query's answer. The ball tier is consulted only
  /// through a CachingChecker wrapper (the batch runner installs one per
  /// worker); attaching a cache here does not by itself wrap the checker.
  KtgCache* cache = nullptr;

  /// Graph epoch this run's state (graph, index, checker) is pinned at;
  /// every cache access of the run is tagged with it so results computed
  /// against one snapshot are never served to another. The default
  /// (cache/ktg_cache.h's kCurrentEpoch, spelled out here because
  /// options.h must not pull in the cache headers) means "resolve to the
  /// cache's current epoch when Run() starts" — the right semantics for
  /// callers that mutate a single live dataset in place (CLI, batch
  /// runner). Snapshot readers (ktgd) set the epoch they pinned.
  uint64_t snapshot_epoch = ~uint64_t{0};
};

}  // namespace ktg

#endif  // KTG_CORE_OPTIONS_H_
