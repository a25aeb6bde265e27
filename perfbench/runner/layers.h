// Per-layer measurements of a traced run. Each replay is the benchmark's
// own call into one module's public functions, recorded as a span.

#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <string>
#include <vector>

#include "cache/sharded_lru.h"
#include "core/ktg_engine.h"
#include "core/snapshot.h"
#include "index/distance_checker.h"
#include "keywords/inverted_index.h"
#include "obs/metrics.h"
#include "run.h"

namespace perfbench {

/// Engine work summed over many runs.
struct EngineTotals {
  double runs = 0;
  double nodes = 0;
  double groups = 0;
  double prunes = 0;  ///< keyword (Theorem 2) + residual-bound prunes
  double kline = 0;
  double checks = 0;
  double elapsed_ms = 0;
  double cpu_ms = 0;
  /// candidate_gen, kline_filter, bb_search, topn_merge
  double phase_ms[4] = {};

  void Add(const ktg::SearchStats& s);
  /// This minus an earlier reading of the same registry.
  EngineTotals Since(const EngineTotals& before) const;
  /// Reads the totals ktgd's engine runs flushed into its registry.
  static EngineTotals FromRegistry(ktg::obs::MetricsRegistry& r);
};

struct LayerReport {
  double parse_us = 0;
  double serialize_us = 0;
  ktg::CacheTierStats ball;
  ktg::CacheTierStats query;
  double extract_us = 0;
  double candidates = 0;
  EngineTotals engine;
  double parallel_overhead_ms = 0;
  double speedup_heavy = 0;
  double check_ns = 0;
  double probes_per_check = 0;
  double index_build_s = 0;
  double index_bytes = 0;
  double datagen_build_s = 0;
  double inverted_index_build_s = 0;
  /// Every publish the run timed (in the window or the write probe).
  std::vector<ktg::SnapshotStore::ApplyInfo> applies;
  /// 1 - traced / untraced queries_per_cpu_s.
  double overhead_frac = 0;
  /// ClockShares::cpu_share of the untraced window.
  double cpu_share = 0;
};

/// Up to `count` distinct pool queries in the order the stream first asks
/// for them.
std::vector<uint32_t> SampleQueries(const Inputs& in, size_t count);

/// Index, keyword and candidate layers on `sample`: times the inverted
/// index and NLRNL builds (keywords.inverted_index_build,
/// index.build spans), ExtractCandidates per query, and an IsFartherThan
/// batch over candidate pairs (ns per check, then probes per check with
/// the checker's detail counters on). The built index and checker are
/// returned for further replays.
ktg::Status ReplayIndexLayers(const WorkloadSpec& spec, const Inputs& in,
                              const std::vector<uint32_t>& sample,
                              SpanLog* log, LayerReport* out,
                              std::unique_ptr<ktg::InvertedIndex>* index,
                              std::unique_ptr<ktg::DistanceChecker>* checker);

/// The executor layer: each query run serially and with 4 engine threads.
/// parallel_overhead_ms is the median (4-thread - serial) over queries
/// whose serial run takes < 1 ms; speedup_heavy is serial over 4-thread
/// time summed over queries whose serial run takes >= 10 ms (0 when there
/// are none).
void ExecFromPairs(const std::vector<double>& serial_ms,
                   const std::vector<double>& parallel_ms, LayerReport* out);

/// Everything a traced served run replays after its window: the index
/// layers, protocol parse/serialize, the executor pairs, and a serial
/// cache replay of the warm-up and the run's first slots (write slots
/// applied through a SnapshotStore that shares the cache; the cache
/// figures count the slots only).
ktg::Status ReplayServedLayers(const WorkloadSpec& spec, const Inputs& in,
                               const std::vector<std::string>& lines,
                               uint64_t slots_used, SpanLog* log,
                               LayerReport* out);

/// Every per-layer metric but server.*: cache, core (snapshot,
/// candidates, engine), exec, index, datagen, keywords, trace and run.
void AddLayerMetrics(const LayerReport& r, RunOutput* out);

/// Duration of the first span named `name`, in seconds (0 when absent).
double SpanSeconds(const SpanLog& log, const char* name);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
