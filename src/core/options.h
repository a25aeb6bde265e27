// Copyright (c) 2026 The ktg Authors.
// Engine configuration: threads, mode, budgets, observability sinks and the
// cache, the paper engine's sorting strategy and toggles for its two
// accelerations (keyword pruning, k-line filtering), plus safety valves.
// The toggles exist so the ablation bench can quantify each idea.

#ifndef KTG_CORE_OPTIONS_H_
#define KTG_CORE_OPTIONS_H_

#include <cstdint>
#include <string>

#include "util/status.h"

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
};

const char* EngineModeName(EngineMode m);
/// Parses "exact" | "anytime"; InvalidArgument naming the accepted modes
/// on anything else (the one message the CLI flags and the wire share).
Result<EngineMode> ParseEngineMode(const std::string& name);

/// Knobs of the exact KTG engine. The query run frame (core/run_frame.h)
/// reads the budgets, sinks and cache fields; the engine reads the rest.
struct EngineOptions {
  /// Worker threads for the branch-and-bound search (0 = the CPUs the
  /// calling thread may run on, util/executor.h). With 1 (the default) the
  /// search is the serial engine, bit-for-bit — including tie-breaks among
  /// equal-coverage groups. With more, the first level of the search tree
  /// is split across workers by the root-parallel driver
  /// (core/root_parallel.h); the workers share a common top-N and pruning
  /// bound. Results are still the exact top-N
  /// coverage multiset, but which members represent a tied coverage value
  /// can differ from the serial order (see docs/architecture.md). The
  /// engine needs a checker whose concurrent_read_safe() is true (NLRNL,
  /// NL without memoization) and otherwise silently runs serially.
  uint32_t num_threads = 1;

  /// Completeness/latency trade-off (see EngineMode).
  EngineMode mode = EngineMode::kExact;

  /// Theorem 2: cut branches whose optimistic coverage cannot beat the
  /// current N-th group.
  bool keyword_pruning = true;

  /// Extension on top of Theorem 2 (this library's tightening, ON by
  /// default): clamp each child's bound by the coverage still reachable
  /// from that child, popcount(covered ∪ union of masks from the child's
  /// position in S_R onward). Strictly tighter, still exact (docs/bounds.md
  /// proves it); prunes children before their S_R is even built. Branches
  /// cut by this clamp alone are counted as SearchStats::ub_prunes
  /// (`engine.prune.ub`). Only consulted while keyword_pruning is on.
  bool residual_bound = true;

  /// Stop the search after this many branch-and-bound nodes (0 =
  /// unlimited). When hit, the result is marked incomplete. The budget is
  /// global across the parallel workers.
  uint64_t max_nodes = 0;

  /// Wall-clock budget for one run in milliseconds (0 = unlimited). The
  /// clock starts when the run is entered and is polled every
  /// RunControls::kDeadlinePollMask+1 node expansions (per worker under the
  /// root-parallel engine, so overrun is bounded by one node batch). A run
  /// that exceeds its budget stops with the best groups found so far,
  /// SearchStats::complete false and a sound optimality gap; such results
  /// are never stored into the cross-query cache — but a cache *hit* still
  /// serves a deadline query instantly. This is the serving-path deadline:
  /// `ktgd` maps a request's remaining deadline onto this knob.
  double time_budget_ms = 0.0;

  /// Observability sinks (see src/obs/). Both are borrowed, never owned;
  /// null (the default) means fully disabled — the engine then skips every
  /// recording site, so the hot path pays at most a predicted branch.
  /// `metrics` receives aggregated counters/histograms flushed once per
  /// run; `trace` receives per-node prune/expand events (serial engine and
  /// per-worker clones share one bounded ring, mutex-serialized — attach a
  /// trace only when diagnosing, not when benchmarking).
  obs::MetricsRegistry* metrics = nullptr;
  obs::QueryTrace* trace = nullptr;

  /// Cross-query cache (see src/cache/ and docs/caching.md). Borrowed,
  /// never owned; null (the default) disables it. Which runs
  /// consult and populate the result tier is the run frame's one rule
  /// (core/run_frame.h): a hit is always bit-identical to an uncached
  /// serial run. The cache holds results only; it never answers a k-line
  /// check.
  KtgCache* cache = nullptr;

  /// Graph epoch this run's state (graph, index, checker) is pinned at;
  /// every cache access of the run is tagged with it so results computed
  /// against one snapshot are never served to another. The default
  /// (cache/ktg_cache.h's kCurrentEpoch, spelled out here because
  /// options.h must not pull in the cache headers) means "resolve to the
  /// cache's current epoch when the run starts" — the right semantics for
  /// callers that mutate a single live dataset in place (CLI, batch
  /// runner). Snapshot readers (ktgd) set the epoch they pinned.
  uint64_t snapshot_epoch = ~uint64_t{0};

  /// Candidate ordering of the search (see SortStrategy).
  SortStrategy sort = SortStrategy::kVkcDeg;

  /// Extension on top of Theorem 2 (this library's tightening, ON by
  /// default): additionally bound a branch by the *reachable* coverage
  /// popcount(covered ∪ union of remaining masks), which never exceeds
  /// |W_Q|. The paper's additive bound alone can exceed |W_Q| and stops
  /// pruning once the top groups saturate; the ablation bench quantifies
  /// the gap. Turn OFF to reproduce the published algorithm exactly (the
  /// figure benches do).
  bool ceiling_prune = true;

  /// Theorem 3: eagerly remove k-line conflicts from S_R after each
  /// selection. When false the engine checks feasibility lazily on
  /// selection instead (same results; the ablation bench compares cost).
  bool eager_kline_filtering = true;

  /// Answer the eager k-line filter in bulk instead of one checker call
  /// per pair. Every mode builds a child's S_R the same way, as a bitset
  /// over the run's slots: the parent's remaining slots minus those within
  /// k hops of the selected member (core/frontier.h). Every checker (BFS,
  /// NL, NLRNL) answers through the run's k-line memo: a bitset row per
  /// selected member, and the child is one AND-NOT with that row. A row is
  /// filled either by asking the checker about each candidate pair at most
  /// once per run (per worker under the root-parallel search), or whole
  /// from the graph-side rows (core/conflict_rows.h) when a fixed cost rule
  /// prices that lower. Results and node counts are the same either way;
  /// only the check count falls. A row filled from the graph counts as one
  /// check. Turn off to ask the checker once per remaining candidate, the
  /// paper's per-pair accounting (the figure benches do).
  bool bulk_filtering = true;

  /// Degree tie-break direction for kVkcDeg. The paper's motivation implies
  /// ascending (small degree first); the flag allows measuring the
  /// "descending" reading as well.
  bool degree_ascending = true;

  /// When > 0: stop as soon as the collector is full and every held group
  /// covers at least this many keywords. DKTG-Greedy uses it to accept the
  /// first group matching the previous round's coverage. Such runs are
  /// truncated by design, so they bypass the result cache.
  int stop_at_count = 0;
};

}  // namespace ktg

#endif  // KTG_CORE_OPTIONS_H_
