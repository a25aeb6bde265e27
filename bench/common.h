// Copyright (c) 2026 The ktg Authors.
// Shared infrastructure for the figure benches.
//
// Every bench binary regenerates one table/figure of the paper's Section
// VII as a console table: same series (algorithm configurations), same
// x-axis (the Table I parameter sweeps), with latency in ms averaged over a
// query batch. Datasets come from datagen presets; the scale is adjustable
// via the KTG_BENCH_SCALE environment variable (default 0.25 of the
// already-1/10-scaled presets — the NL/NLRNL indexes are near-all-pairs
// structures and the paper used a 120 GB machine; see EXPERIMENTS.md).

#ifndef KTG_BENCH_COMMON_H_
#define KTG_BENCH_COMMON_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/dktg_greedy.h"
#include "core/ktg_engine.h"
#include "datagen/presets.h"
#include "datagen/query_gen.h"
#include "index/checker_factory.h"
#include "keywords/inverted_index.h"
#include "obs/metrics.h"

namespace ktg::bench {

/// Table I defaults (bold values): p=4, k=2, |W_Q|=6, N=5.
inline constexpr uint32_t kDefaultP = 4;
inline constexpr HopDistance kDefaultK = 2;
inline constexpr uint32_t kDefaultWq = 6;
inline constexpr uint32_t kDefaultN = 5;
/// Queries per measurement (the paper averages 100; scaled down with the
/// datasets — override with KTG_BENCH_QUERIES).
inline constexpr uint32_t kDefaultQueries = 8;

/// Scale factor applied on top of the presets (env KTG_BENCH_SCALE).
double BenchScale();

/// Number of queries per measurement (env KTG_BENCH_QUERIES).
uint32_t BenchQueries();

/// Process-wide metrics registry. RunBatch attaches it to every engine run
/// and the dataset cache records build costs into it; each bench binary
/// snapshots it into a JSON sidecar on exit via WriteMetricsSidecar.
obs::MetricsRegistry& Metrics();

/// Writes Metrics() as a ktg.metrics.v1 document to KTG_BENCH_METRICS_PATH
/// (when set) or "<bench_name>.metrics.json" in the working directory.
/// Failures only warn: a missing sidecar must never fail a bench run.
void WriteMetricsSidecar(const std::string& bench_name);

/// Installs SIGINT/SIGTERM handlers that write the metrics sidecar before
/// exiting, so an interrupted sweep leaves a parseable partial snapshot
/// instead of nothing. Call once at the top of main().
void InstallBenchSignalFlush(const std::string& bench_name);

/// Worker threads for index builds and the engine's root-parallel search
/// (0 = hardware concurrency). Default 1: the figure benches reproduce the
/// paper's serial latencies unless parallelism is asked for explicitly.
/// Set with `--threads T` on any bench binary or env KTG_BENCH_THREADS
/// (the flag wins).
uint32_t BenchThreads();

/// Consumes `--threads T` (and `--threads=T`) from argv, updating the
/// BenchThreads() override and shifting the remaining arguments down. Call
/// first thing in main(); leaves unrelated flags (e.g. google-benchmark's)
/// untouched.
void ConsumeThreadsFlag(int* argc, char** argv);

/// Measurement repeats per batch (env KTG_BENCH_REPEAT, `--repeat R` wins;
/// default 1). With R > 1, RunBatch re-runs the whole query batch R times
/// and additionally reports the min and median per-query latency across
/// repeats — the stable statistics to quote (see docs/performance.md);
/// counters come from the first repeat (they are deterministic).
uint32_t BenchRepeats();

/// Consumes `--repeat R` (and `--repeat=R`) from argv, mirroring
/// ConsumeThreadsFlag.
void ConsumeRepeatFlag(int* argc, char** argv);

/// A cached dataset: attributed graph + inverted index + lazily built
/// distance checkers shared by every configuration in the binary.
class BenchDataset {
 public:
  /// Loads (and caches process-wide) the preset at BenchScale().
  static BenchDataset& Get(const std::string& preset_name);
  /// As Get, but with an explicit scale multiplier on top of BenchScale().
  static BenchDataset& GetScaled(const std::string& preset_name,
                                 double extra_scale);

  const std::string& name() const { return name_; }
  const AttributedGraph& graph() const { return graph_; }
  const InvertedIndex& index() const { return index_; }

  /// Lazily builds/caches a checker. Bitmap checkers are additionally keyed
  /// by k. Build time (seconds) is recorded for index-cost reporting.
  DistanceChecker& Checker(CheckerKind kind, HopDistance k);
  double checker_build_seconds(CheckerKind kind, HopDistance k) const;

  /// One-line dataset summary for table headers.
  std::string Summary() const;

 private:
  BenchDataset(std::string name, AttributedGraph graph);

  std::string name_;
  AttributedGraph graph_;
  InvertedIndex index_;
  std::map<std::pair<int, int>, std::unique_ptr<DistanceChecker>> checkers_;
  std::map<std::pair<int, int>, double> build_seconds_;
};

/// One named algorithm configuration as the paper labels them
/// ("KTG-VKC-DEG-NLRNL", "DKTG-Greedy", ...).
struct AlgoConfig {
  std::string label;
  bool is_dktg = false;
  SortStrategy sort = SortStrategy::kVkcDeg;
  CheckerKind checker = CheckerKind::kNlrnl;
  EngineOptions engine;  // sort is overwritten by `sort`
};

/// The configurations of Figures 3-6.
std::vector<AlgoConfig> PaperAlgoConfigs(bool include_qkc);

/// Measurement of one (algorithm, parameter point): average per-query
/// latency plus aggregate search counters.
struct Measurement {
  double avg_ms = 0.0;
  /// Min / median of the per-repeat average latency (== avg_ms when
  /// BenchRepeats() is 1). Min filters scheduler noise; median is the
  /// robust central tendency — see docs/performance.md.
  double min_ms = 0.0;
  double median_ms = 0.0;
  double avg_nodes = 0.0;
  double avg_checks = 0.0;
  double avg_best_coverage = 0.0;
  uint32_t queries = 0;
  uint32_t empty_results = 0;
};

/// Runs `queries` under `config` against `dataset` BenchRepeats() times and
/// aggregates (avg over all repeats; min/median across repeats).
Measurement RunBatch(BenchDataset& dataset, const AlgoConfig& config,
                     const std::vector<KtgQuery>& queries);

/// Builds the standard workload for a dataset with one parameter overridden
/// from the Table I defaults. Seeded deterministically per dataset.
std::vector<KtgQuery> MakeWorkload(const BenchDataset& dataset, uint32_t p,
                                   HopDistance k, uint32_t wq, uint32_t n);

/// Console table helpers: fixed-width columns, markdown-ish separators.
void PrintHeader(const std::string& title, const std::string& note);
void PrintRow(const std::vector<std::string>& cells,
              const std::vector<int>& widths);
std::string Fmt(double value, int precision = 2);

}  // namespace ktg::bench

#endif  // KTG_BENCH_COMMON_H_
