// Copyright (c) 2026 The ktg Authors.

#include "cli/commands.h"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "cache/caching_checker.h"
#include "cache/ktg_cache.h"
#include "core/batch.h"
#include "core/dktg_greedy.h"
#include "core/explain.h"
#include "core/greedy_heuristic.h"
#include "core/ktg_engine.h"
#include "core/snapshot.h"
#include "core/tagq.h"
#include "datagen/mutation_gen.h"
#include "datagen/presets.h"
#include "datagen/query_gen.h"
#include "graph/graph_io.h"
#include "graph/stats.h"
#include "index/bfs_checker.h"
#include "index/checker_factory.h"
#include "index/serialization.h"
#include "keywords/inverted_index.h"
#include "obs/metrics.h"
#include "obs/query_trace.h"
#include "server/loadgen.h"
#include "server/protocol.h"
#include "server/server.h"
#include "server/tcp.h"
#include "util/executor.h"
#include "util/json_parse.h"
#include "util/json_writer.h"
#include "util/shutdown.h"
#include "util/percentiles.h"
#include "util/summary_stats.h"
#include "util/timer.h"

namespace ktg::cli {
namespace {

// Registers a shutdown flush for its lifetime; used by commands whose
// metrics sidecar would otherwise be lost to Ctrl-C mid-run.
class ScopedShutdownFlush {
 public:
  explicit ScopedShutdownFlush(std::function<void()> flush)
      : id_(RegisterShutdownFlush(std::move(flush))) {}
  ~ScopedShutdownFlush() { UnregisterShutdownFlush(id_); }
  ScopedShutdownFlush(const ScopedShutdownFlush&) = delete;
  ScopedShutdownFlush& operator=(const ScopedShutdownFlush&) = delete;

 private:
  int id_;
};

Result<AttributedGraph> LoadInput(const Args& args, bool attrs_required) {
  const std::string edges = args.GetString("edges");
  if (edges.empty()) {
    return Status::InvalidArgument("--edges <file> is required");
  }
  auto graph = LoadEdgeList(edges);
  if (!graph.ok()) return graph.status();

  const std::string attrs = args.GetString("attrs");
  if (attrs.empty()) {
    if (attrs_required) {
      return Status::InvalidArgument("--attrs <file> is required");
    }
    AttributedGraphBuilder builder;
    builder.SetGraph(std::move(graph).value());
    return builder.Build();
  }
  return LoadAttributedGraph(std::move(graph).value(), attrs);
}

// Parses --threads: 0 means "every CPU this process may run on", the
// per-knob convention of the library (negative values are clamped to 0).
Result<uint32_t> ParseThreads(const Args& args, int64_t default_value) {
  const auto threads = args.GetInt("threads", default_value);
  if (!threads.ok()) return threads.status();
  return static_cast<uint32_t>(std::max<int64_t>(0, threads.value()));
}

// An index file answers distance checks for the graph it was built over;
// against any other graph its answers are wrong, so refuse it.
template <typename Index>
Result<std::unique_ptr<DistanceChecker>> CheckIndexGraph(
    Index index, const Graph& graph, const std::string& path) {
  if (!(index.graph() == graph)) {
    return Status::InvalidArgument(
        "--index " + path + " was built over a different graph than --edges");
  }
  return std::unique_ptr<DistanceChecker>(new Index(std::move(index)));
}

// Builds or loads the distance checker requested by --index / --checker.
Result<std::unique_ptr<DistanceChecker>> MakeQueryChecker(
    const Args& args, const Graph& graph, uint32_t num_threads) {
  const std::string index_path = args.GetString("index");
  if (!index_path.empty()) {
    // Try both kinds; the file header knows which one it is.
    auto nlrnl = LoadNlrnlIndex(index_path);
    if (nlrnl.ok()) {
      return CheckIndexGraph(std::move(nlrnl).value(), graph, index_path);
    }
    auto nl = LoadNlIndex(index_path);
    if (nl.ok()) {
      return CheckIndexGraph(std::move(nl).value(), graph, index_path);
    }
    return nlrnl.status();
  }
  const auto kind = ParseCheckerKind(args.GetString("checker", "nlrnl"));
  if (!kind.ok()) return kind.status();
  return MakeChecker(kind.value(), graph, num_threads);
}

// One --authors entry: a decimal vertex id in [0, kInvalidVertex). The
// range is checked before the cast, so 2^32 is refused instead of wrapping
// onto vertex 0.
Result<VertexId> ParseVertexIdFlag(const std::string& text) {
  const bool digits =
      !text.empty() && text.size() <= 10 &&
      std::all_of(text.begin(), text.end(),
                  [](unsigned char c) { return std::isdigit(c) != 0; });
  if (digits) {
    const uint64_t v = std::stoull(text);
    if (v < kInvalidVertex) return static_cast<VertexId>(v);
  }
  return Status::InvalidArgument(
      "--authors vertex ids must be integers in [0, " +
      std::to_string(kInvalidVertex) + ")");
}

Result<KtgQuery> BuildQuery(const Args& args, const AttributedGraph& graph) {
  const auto terms = args.GetList("keywords");
  if (terms.empty()) {
    return Status::InvalidArgument("--keywords a,b,c is required");
  }
  const auto p = args.GetInt("p", 3);
  const auto k = args.GetInt("k", 1);
  const auto n = args.GetInt("n", 1);
  if (!p.ok()) return p.status();
  if (!k.ok()) return k.status();
  if (!n.ok()) return n.status();
  KTG_RETURN_IF_ERROR(CheckQueryParams(p.value(), k.value(), n.value(),
                                       static_cast<int64_t>(terms.size())));

  KtgQuery query = MakeQuery(graph, terms, static_cast<uint32_t>(p.value()),
                             static_cast<HopDistance>(k.value()),
                             static_cast<uint32_t>(n.value()));
  for (const auto& a : args.GetList("authors")) {
    const auto v = ParseVertexIdFlag(a);
    if (!v.ok()) return v.status();
    query.query_vertices.push_back(v.value());
  }
  int unknown = 0;
  for (const KeywordId kw : query.keywords) {
    if (kw == kInvalidKeyword) ++unknown;
  }
  if (unknown > 0) {
    std::fprintf(stderr,
                 "warning: %d query keyword(s) not in the vocabulary (they "
                 "count toward |W_Q| but cannot be covered)\n",
                 unknown);
  }
  return query;
}

// Shared workload knobs of `workload` and `loadgen` (same defaults, so a
// loadgen run reproduces the queries a workload run would measure).
Result<WorkloadOptions> ParseWorkloadOptions(const Args& args) {
  WorkloadOptions wopts;
  const auto queries = args.GetInt("queries", 20);
  const auto p = args.GetInt("p", 4);
  const auto k = args.GetInt("k", 2);
  const auto n = args.GetInt("n", 5);
  const auto wq = args.GetInt("wq", 6);
  if (!queries.ok()) return queries.status();
  if (!p.ok()) return p.status();
  if (!k.ok()) return k.status();
  if (!n.ok()) return n.status();
  if (!wq.ok()) return wq.status();
  KTG_RETURN_IF_ERROR(
      CheckQueryParams(p.value(), k.value(), n.value(), wq.value()));
  if (queries.value() < 0 || queries.value() > UINT32_MAX) {
    return Status::InvalidArgument("--queries must be in [0, 4294967295]");
  }
  wopts.num_queries = static_cast<uint32_t>(queries.value());
  wopts.group_size = static_cast<uint32_t>(p.value());
  wopts.tenuity = static_cast<HopDistance>(k.value());
  wopts.top_n = static_cast<uint32_t>(n.value());
  wopts.keyword_count = static_cast<uint32_t>(wq.value());
  wopts.frequency_banded = args.GetBool("banded", true);
  return wopts;
}

// Emits a KTG result as a JSON document on stdout (--json).
void PrintGroupsJson(const AttributedGraph& graph, const KtgQuery& query,
                     const KtgResult& result) {
  JsonWriter w;
  w.BeginObject();
  w.Key("query").BeginObject();
  w.KV("p", query.group_size)
      .KV("k", static_cast<uint64_t>(query.tenuity))
      .KV("n", query.top_n);
  w.Key("keywords").BeginArray();
  for (const KeywordId kw : query.keywords) {
    if (kw == kInvalidKeyword) {
      w.Null();
    } else {
      w.Value(graph.vocabulary().Term(kw));
    }
  }
  w.EndArray().EndObject();

  w.Key("groups").BeginArray();
  for (const Group& g : result.groups) {
    w.BeginObject();
    w.KV("covered", g.covered());
    w.KV("coverage", QkcRatio(g, result.query_keyword_count));
    w.Key("members").BeginArray();
    for (const VertexId v : g.members) w.Value(static_cast<uint64_t>(v));
    w.EndArray().EndObject();
  }
  w.EndArray();

  w.Key("stats").BeginObject();
  w.KV("elapsed_ms", result.stats.elapsed_ms)
      .KV("cpu_ms", result.stats.cpu_ms)
      .KV("candidates", result.stats.candidates)
      .KV("nodes_expanded", result.stats.nodes_expanded)
      .KV("groups_completed", result.stats.groups_completed)
      .KV("keyword_prunes", result.stats.keyword_prunes)
      .KV("kline_filtered", result.stats.kline_filtered)
      .KV("distance_checks", result.stats.distance_checks)
      .KV("upper_bound", static_cast<int64_t>(result.stats.upper_bound))
      .KV("gap", static_cast<int64_t>(result.stats.gap));
  w.Key("phases").BeginObject();
  for (int i = 0; i < obs::kNumPhases; ++i) {
    const auto phase = static_cast<obs::Phase>(i);
    w.KV(obs::PhaseName(phase), result.stats.phases[phase]);
  }
  w.EndObject();
  w.EndObject().EndObject();
  std::printf("%s\n", w.str().c_str());
}

void PrintGroups(const AttributedGraph& graph, const KtgQuery& query,
                 const std::vector<Group>& groups) {
  if (groups.empty()) {
    std::printf("no feasible group\n");
    return;
  }
  int rank = 1;
  for (const auto& g : groups) {
    std::printf("#%d coverage %d/%zu members:", rank++, g.covered(),
                query.keywords.size());
    for (const VertexId v : g.members) std::printf(" %u", v);
    std::printf("\n");
    for (const VertexId v : g.members) {
      std::printf("   u%-8u:", v);
      for (const KeywordId kw : graph.Keywords(v)) {
        std::printf(" %s", graph.vocabulary().Term(kw).c_str());
      }
      std::printf("\n");
    }
  }
}

void PrintStats(const SearchStats& stats) {
  std::printf(
      "stats: %.3f ms (%.3f cpu ms), %llu candidates, %llu BB nodes, %llu "
      "groups completed, %llu keyword prunes, %llu k-line removals, %llu "
      "distance checks\n",
      stats.elapsed_ms, stats.cpu_ms,
      static_cast<unsigned long long>(stats.candidates),
      static_cast<unsigned long long>(stats.nodes_expanded),
      static_cast<unsigned long long>(stats.groups_completed),
      static_cast<unsigned long long>(stats.keyword_prunes),
      static_cast<unsigned long long>(stats.kline_filtered),
      static_cast<unsigned long long>(stats.distance_checks));
  std::printf("phases ms:");
  for (int i = 0; i < obs::kNumPhases; ++i) {
    const auto phase = static_cast<obs::Phase>(i);
    std::printf(" %s=%.3f", obs::PhaseName(phase), stats.phases[phase]);
  }
  std::printf("\n");
  if (stats.upper_bound >= 0) {
    std::printf("quality: upper_bound=%d gap=%d%s\n", stats.upper_bound,
                stats.gap, stats.gap == 0 ? " (proved optimal)" : "");
  }
}

// Writes `content` to `path` (for --metrics-json sidecars).
Status WriteTextFile(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::NotFound("cannot open for writing: " + path);
  }
  const size_t written = std::fwrite(content.data(), 1, content.size(), f);
  const int close_err = std::fclose(f);
  if (written != content.size() || close_err != 0) {
    return Status::Internal("short write: " + path);
  }
  return Status::OK();
}

}  // namespace

Status CmdGenerate(const Args& args) {
  const std::string preset = args.GetString("preset", "gowalla");
  const auto scale = args.GetDouble("scale", 0.1);
  if (!scale.ok()) return scale.status();
  auto spec = GetPreset(preset, scale.value());
  if (!spec.ok()) return spec.status();
  const auto seed = args.GetInt("seed", static_cast<int64_t>(spec->seed));
  if (!seed.ok()) return seed.status();
  spec->seed = static_cast<uint64_t>(seed.value());

  const AttributedGraph graph = BuildDataset(*spec);
  std::printf("generated %s: n=%u m=%llu keywords=%u assignments=%llu\n",
              preset.c_str(), graph.num_vertices(),
              static_cast<unsigned long long>(graph.num_edges()),
              graph.num_keywords(),
              static_cast<unsigned long long>(
                  graph.total_keyword_assignments()));

  const std::string edges = args.GetString("edges");
  if (!edges.empty()) {
    KTG_RETURN_IF_ERROR(SaveEdgeList(graph.graph(), edges));
    std::printf("wrote edges to %s\n", edges.c_str());
  }
  const std::string attrs = args.GetString("attrs");
  if (!attrs.empty()) {
    KTG_RETURN_IF_ERROR(SaveAttributes(graph, attrs));
    std::printf("wrote attributes to %s\n", attrs.c_str());
  }
  return Status::OK();
}

Status CmdStats(const Args& args) {
  auto graph = LoadInput(args, /*attrs_required=*/false);
  if (!graph.ok()) return graph.status();
  Rng rng(42);
  const GraphStats stats = ComputeGraphStats(graph->graph(), rng, 32);
  std::printf("%s\n", stats.ToString().c_str());
  if (graph->num_keywords() > 0) {
    std::printf("keywords=%u assignments=%llu avg_per_vertex=%.2f\n",
                graph->num_keywords(),
                static_cast<unsigned long long>(
                    graph->total_keyword_assignments()),
                graph->num_vertices() == 0
                    ? 0.0
                    : static_cast<double>(graph->total_keyword_assignments()) /
                          graph->num_vertices());
  }
  if (!stats.distance_histogram.empty()) {
    std::printf("sampled hop-distance histogram:");
    for (size_t d = 1; d < stats.distance_histogram.size(); ++d) {
      std::printf(" %zu:%llu", d,
                  static_cast<unsigned long long>(stats.distance_histogram[d]));
    }
    std::printf("\n");
  }
  return Status::OK();
}

Status CmdBuildIndex(const Args& args) {
  auto graph = LoadInput(args, /*attrs_required=*/false);
  if (!graph.ok()) return graph.status();
  const std::string out = args.GetString("out");
  if (out.empty()) return Status::InvalidArgument("--out <file> is required");
  const std::string kind = args.GetString("kind", "nlrnl");
  const auto threads = ParseThreads(args, /*default_value=*/0);
  if (!threads.ok()) return threads.status();

  Stopwatch watch;
  if (kind == "nl") {
    NlIndexOptions options;
    options.num_threads = threads.value();
    NlIndex index(graph->graph(), options);
    KTG_RETURN_IF_ERROR(SaveNlIndex(index, out));
    std::printf("built NL index in %.2fs (%.2f MB) -> %s\n",
                watch.ElapsedSeconds(),
                index.MemoryBytes() / (1024.0 * 1024.0), out.c_str());
  } else if (kind == "nlrnl") {
    NlrnlIndexOptions options;
    options.num_threads = threads.value();
    NlrnlIndex index(graph->graph(), options);
    KTG_RETURN_IF_ERROR(SaveNlrnlIndex(index, out));
    std::printf("built NLRNL index in %.2fs (%.2f MB) -> %s\n",
                watch.ElapsedSeconds(),
                index.MemoryBytes() / (1024.0 * 1024.0), out.c_str());
  } else {
    return Status::InvalidArgument("--kind must be nl or nlrnl");
  }
  return Status::OK();
}

Status CmdQuery(const Args& args) {
  auto loaded = LoadInput(args, /*attrs_required=*/true);
  if (!loaded.ok()) return loaded.status();
  const AttributedGraph& dataset = *loaded;
  auto query = BuildQuery(args, dataset);
  if (!query.ok()) return query.status();
  const auto threads = ParseThreads(args, /*default_value=*/1);
  if (!threads.ok()) return threads.status();
  auto checker = MakeQueryChecker(args, dataset.graph(), threads.value());
  if (!checker.ok()) return checker.status();
  const InvertedIndex index(dataset);

  const auto max_nodes = args.GetInt("max-nodes", 0);
  if (!max_nodes.ok()) return max_nodes.status();
  const std::string algo = args.GetString("algo", "vkc-deg");

  // Observability sinks requested via --metrics-json / --trace. Null when
  // disabled, so the engines skip every recording site.
  const std::string metrics_path = args.GetString("metrics-json");
  const bool trace_enabled = args.GetBool("trace");
  obs::MetricsRegistry registry;
  obs::QueryTrace query_trace;
  obs::MetricsRegistry* metrics = metrics_path.empty() ? nullptr : &registry;
  obs::QueryTrace* trace = trace_enabled ? &query_trace : nullptr;

  // Shared epilogue: dump the trace document to stdout, the metrics
  // snapshot to --metrics-json.
  auto finish = [&]() -> Status {
    if (trace != nullptr) {
      std::printf("%s\n", query_trace.ToJson().c_str());
    }
    if (metrics != nullptr) {
      const Status st = WriteTextFile(metrics_path, registry.ToJson() + "\n");
      if (!st.ok()) return st;
      std::fprintf(stderr, "wrote metrics to %s\n", metrics_path.c_str());
    }
    return Status::OK();
  };

  if (algo == "dktg") {
    DktgOptions options;
    const auto gamma = args.GetDouble("gamma", 0.5);
    if (!gamma.ok()) return gamma.status();
    options.gamma = gamma.value();
    options.engine.metrics = metrics;
    options.engine.trace = trace;
    auto result = RunDktgGreedy(dataset, index, **checker, *query, options);
    if (!result.ok()) return result.status();
    PrintGroups(dataset, *query, result->groups);
    std::printf("diversity=%.3f min_coverage=%.3f score=%.3f\n",
                result->diversity, result->min_coverage, result->score);
    PrintStats(result->stats);
    return finish();
  }
  if (algo == "tagq") {
    TagqOptions options;
    options.max_nodes = static_cast<uint64_t>(max_nodes.value());
    auto result = RunTagq(dataset, **checker, *query, options);
    if (!result.ok()) return result.status();
    int rank = 1;
    for (const auto& g : result->groups) {
      std::printf("#%d total %d (zero-coverage members: %u):", rank++,
                  g.total_covered, g.zero_coverage_members);
      for (const VertexId v : g.members) std::printf(" %u", v);
      std::printf("\n");
    }
    PrintStats(result->stats);
    return finish();  // tagq has no obs hooks; sinks stay empty
  }
  if (algo == "greedy") {
    GreedyOptions options;
    options.metrics = metrics;
    options.trace = trace;
    auto result = RunKtgGreedy(dataset, index, **checker, *query, options);
    if (!result.ok()) return result.status();
    PrintGroups(dataset, *query, result->groups);
    PrintStats(result->stats);
    return finish();
  }

  EngineOptions options;
  options.max_nodes = static_cast<uint64_t>(max_nodes.value());
  const auto budget_ms = args.GetDouble("budget-ms", 0.0);
  if (!budget_ms.ok()) return budget_ms.status();
  options.time_budget_ms = budget_ms.value();
  const auto mode = ParseEngineMode(args.GetString("mode", "exact"));
  if (!mode.ok()) return mode.status();
  options.mode = mode.value();
  options.num_threads = threads.value();
  options.metrics = metrics;
  options.trace = trace;
  if (algo == "vkc-deg") {
    options.sort = SortStrategy::kVkcDeg;
  } else if (algo == "vkc") {
    options.sort = SortStrategy::kVkc;
  } else if (algo == "qkc") {
    options.sort = SortStrategy::kQkc;
  } else {
    return Status::InvalidArgument("unknown --algo: " + algo);
  }
  // --cache-mb mostly matters for workload (cross-query reuse); on a single
  // query it exercises the same wiring: result tier + wrapped checker.
  const auto cache_mb = args.GetInt("cache-mb", 0);
  if (!cache_mb.ok()) return cache_mb.status();
  std::unique_ptr<KtgCache> cache;
  if (cache_mb.value() > 0) {
    cache = std::make_unique<KtgCache>(
        CacheOptionsForMb(static_cast<size_t>(cache_mb.value())));
    options.cache = cache.get();
    *checker = MaybeWrapWithCache(std::move(*checker), dataset.graph(),
                                  cache.get());
  }
  auto result = RunKtg(dataset, index, **checker, *query, options);
  if (cache != nullptr && metrics != nullptr) cache->ExportMetrics(*metrics);
  if (!result.ok()) return result.status();
  if (args.GetBool("json")) {
    PrintGroupsJson(dataset, *query, *result);
  } else {
    PrintGroups(dataset, *query, result->groups);
    PrintStats(result->stats);
    if (args.GetBool("explain")) {
      for (const auto& grp : result->groups) {
        std::printf("%s",
                    ExplainGroup(dataset, *query, grp).ToString().c_str());
      }
    }
  }
  return finish();
}

Status CmdWorkload(const Args& args) {
  const std::string preset = args.GetString("preset", "gowalla");
  const auto scale = args.GetDouble("scale", 0.1);
  if (!scale.ok()) return scale.status();
  auto spec = GetPreset(preset, scale.value());
  if (!spec.ok()) return spec.status();
  const AttributedGraph graph = BuildDataset(*spec);
  const InvertedIndex index(graph);

  const auto parsed = ParseWorkloadOptions(args);
  if (!parsed.ok()) return parsed.status();
  const WorkloadOptions& wopts = *parsed;
  const auto seed = args.GetInt("seed", 7);
  if (!seed.ok()) return seed.status();

  const auto kind = ParseCheckerKind(args.GetString("checker", "nlrnl"));
  if (!kind.ok()) return kind.status();
  const auto threads = ParseThreads(args, /*default_value=*/1);
  if (!threads.ok()) return threads.status();
  const auto batches = args.GetInt("batches", 1);
  if (!batches.ok()) return batches.status();
  if (batches.value() < 1) {
    return Status::InvalidArgument("--batches must be >= 1");
  }
  const auto cache_mb = args.GetInt("cache-mb", 0);
  if (!cache_mb.ok()) return cache_mb.status();
  std::unique_ptr<KtgCache> cache;
  if (cache_mb.value() > 0) {
    cache = std::make_unique<KtgCache>(
        CacheOptionsForMb(static_cast<size_t>(cache_mb.value())));
  }
  std::fprintf(stderr, "building %s checker(s) over %u vertices...\n",
               CheckerKindName(kind.value()), graph.num_vertices());

  const std::string metrics_path = args.GetString("metrics-json");
  obs::MetricsRegistry registry;

  // A long multi-batch run interrupted by Ctrl-C still flushes whatever
  // the registry has accumulated; without this the sidecar is simply lost.
  std::unique_ptr<ScopedShutdownFlush> flush;
  if (!metrics_path.empty()) {
    InstallShutdownHandlers();
    flush = std::make_unique<ScopedShutdownFlush>([&registry, metrics_path] {
      (void)WriteTextFile(metrics_path, registry.ToJson() + "\n");
    });
  }

  BatchOptions bopts;
  bopts.threads = threads.value();
  bopts.engine.cache = cache.get();
  if (!metrics_path.empty()) bopts.engine.metrics = &registry;

  // Each batch draws its workload from a seed derived from the master seed
  // (batch 0 = master, for historical reproducibility). Re-seeding every
  // batch identically would replay the same queries, so the cache (when on)
  // would look perfect even on workloads with zero genuine reuse.
  for (int64_t b = 0; b < batches.value(); ++b) {
    if (ShutdownRequested()) break;
    Rng rng(DeriveBatchSeed(static_cast<uint64_t>(seed.value()),
                            static_cast<uint64_t>(b)));
    const auto workload = GenerateWorkload(graph, wopts, rng);
    const auto batch = RunKtgBatch(
        graph, index,
        [&] { return MakeChecker(kind.value(), graph.graph()); },
        workload, bopts);
    if (!batch.ok()) return batch.status();

    SummaryStats coverage;
    uint32_t empty = 0;
    for (const auto& result : batch->results) {
      coverage.Add(result.best_coverage());
      if (result.groups.empty()) ++empty;
    }
    const LatencySummary& lat = batch->latency;
    if (batches.value() > 1) {
      std::printf("batch %lld/%lld: ", static_cast<long long>(b + 1),
                  static_cast<long long>(batches.value()));
    }
    std::printf(
        "%s (n=%u): %llu queries on %u thread(s)\n"
        "latency ms: mean=%.3f min=%.3f p50=%.3f p90=%.3f p99=%.3f max=%.3f\n"
        "avg best coverage %.3f; %u empty results; %llu BB nodes total\n",
        preset.c_str(), graph.num_vertices(),
        static_cast<unsigned long long>(lat.count),
        ResolveThreads(bopts.threads), lat.mean,
        lat.min, lat.p50, lat.p90, lat.p99, lat.max, coverage.mean(), empty,
        static_cast<unsigned long long>(batch->totals.nodes_expanded));
  }
  if (cache != nullptr) {
    const CacheTierStats balls = cache->BallStats();
    const CacheTierStats results = cache->QueryStats();
    std::fprintf(stderr,
                 "cache: ball %llu hits / %llu misses, query %llu hits / "
                 "%llu misses, %.2f MB resident\n",
                 static_cast<unsigned long long>(balls.hits),
                 static_cast<unsigned long long>(balls.misses),
                 static_cast<unsigned long long>(results.hits),
                 static_cast<unsigned long long>(results.misses),
                 (balls.bytes + results.bytes) / (1024.0 * 1024.0));
  }
  if (!metrics_path.empty()) {
    KTG_RETURN_IF_ERROR(WriteTextFile(metrics_path, registry.ToJson() + "\n"));
    std::fprintf(stderr, "wrote metrics to %s\n", metrics_path.c_str());
  }
  return Status::OK();
}

namespace {

// The dataset a server (or its load generator) runs against: either a
// deterministic preset build or files on disk — never both.
Result<AttributedGraph> LoadServingDataset(const Args& args) {
  KTG_RETURN_IF_ERROR(args.CheckExclusive("preset", "edges"));
  if (args.Has("edges")) return LoadInput(args, /*attrs_required=*/true);
  const std::string preset = args.GetString("preset", "gowalla");
  const auto scale = args.GetDouble("scale", 0.1);
  if (!scale.ok()) return scale.status();
  auto spec = GetPreset(preset, scale.value());
  if (!spec.ok()) return spec.status();
  const auto seed = args.GetInt("seed", static_cast<int64_t>(spec->seed));
  if (!seed.ok()) return seed.status();
  spec->seed = static_cast<uint64_t>(seed.value());
  return BuildDataset(*spec);
}

}  // namespace

Status CmdServe(const Args& args) {
  auto graph = LoadServingDataset(args);
  if (!graph.ok()) return graph.status();

  server::ServerOptions sopts;
  const auto workers = args.GetInt("workers", 0);
  const auto queue = args.GetInt("queue", 256);
  const auto batch_max = args.GetInt("batch-max", 8);
  const auto batch_window = args.GetInt("batch-window", 64);
  const auto cache_mb = args.GetInt("cache-mb", 0);
  const auto deadline = args.GetDouble("deadline-ms", 0.0);
  const auto port = args.GetInt("port", 7777);
  const auto threads = ParseThreads(args, /*default_value=*/0);
  if (!workers.ok()) return workers.status();
  if (!queue.ok()) return queue.status();
  if (!batch_max.ok()) return batch_max.status();
  if (!batch_window.ok()) return batch_window.status();
  if (!cache_mb.ok()) return cache_mb.status();
  if (!deadline.ok()) return deadline.status();
  if (!port.ok()) return port.status();
  if (!threads.ok()) return threads.status();
  if (port.value() < 0 || port.value() > 65535) {
    return Status::InvalidArgument("--port must be in [0, 65535]");
  }
  if (queue.value() < 1) {
    return Status::InvalidArgument("--queue must be >= 1");
  }
  if (batch_max.value() < 1) {
    return Status::InvalidArgument("--batch-max must be >= 1");
  }
  const auto kind = ParseCheckerKind(args.GetString("checker", "nlrnl"));
  if (!kind.ok()) return kind.status();

  sopts.workers = static_cast<uint32_t>(std::max<int64_t>(0, workers.value()));
  sopts.max_queue = static_cast<size_t>(queue.value());
  sopts.batch_max = static_cast<uint32_t>(batch_max.value());
  sopts.batch_window = static_cast<size_t>(batch_window.value());
  sopts.cache_mb = static_cast<size_t>(std::max<int64_t>(0, cache_mb.value()));
  sopts.default_deadline_ms = deadline.value();
  sopts.checker = kind.value();
  sopts.build_threads = threads.value();
  // Default execution mode for requests that carry no "mode" member.
  const auto mode = ParseEngineMode(args.GetString("mode", "exact"));
  if (!mode.ok()) return mode.status();
  sopts.engine.mode = mode.value();

  std::fprintf(stderr, "ktgd: building %s checker(s) over %u vertices...\n",
               CheckerKindName(sopts.checker), graph->num_vertices());
  server::KtgServer server(std::move(*graph), sopts);
  KTG_RETURN_IF_ERROR(server.Start());
  server::TcpServer tcp(server);
  KTG_RETURN_IF_ERROR(tcp.Listen(static_cast<uint16_t>(port.value())));
  tcp.Start();

  const std::string port_file = args.GetString("port-file");
  if (!port_file.empty()) {
    const Status st =
        WriteTextFile(port_file, std::to_string(tcp.port()) + "\n");
    if (!st.ok()) {
      tcp.Shutdown();
      server.Stop();
      return st;
    }
  }
  std::printf("ktgd listening on 127.0.0.1:%u\n", tcp.port());
  std::fflush(stdout);

  // Resident loop: the handler only sets a flag (async-signal-safe); this
  // thread notices it and runs the orderly drain below, so SIGINT/SIGTERM
  // still answer every queued request and still write the sidecar.
  InstallShutdownHandlers();
  while (!ShutdownRequested()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  std::fprintf(stderr, "ktgd: draining in-flight requests\n");
  tcp.Shutdown();
  server.Stop();

  const std::string metrics_path = args.GetString("metrics-json");
  if (!metrics_path.empty()) {
    KTG_RETURN_IF_ERROR(
        WriteTextFile(metrics_path, server.metrics().ToJson() + "\n"));
    std::fprintf(stderr, "wrote metrics to %s\n", metrics_path.c_str());
  }
  return Status::OK();
}

Status CmdLoadgen(const Args& args) {
  KTG_RETURN_IF_ERROR(args.CheckExclusive("port", "port-file"));
  int64_t port = 0;
  const std::string port_file = args.GetString("port-file");
  if (!port_file.empty()) {
    std::FILE* f = std::fopen(port_file.c_str(), "r");
    if (f == nullptr) {
      return Status::NotFound("cannot read --port-file " + port_file);
    }
    long value = 0;
    const int matched = std::fscanf(f, "%ld", &value);
    std::fclose(f);
    if (matched != 1) {
      return Status::InvalidArgument("--port-file holds no port number");
    }
    port = value;
  } else {
    const auto p = args.GetInt("port", 0);
    if (!p.ok()) return p.status();
    port = p.value();
  }
  if (port < 1 || port > 65535) {
    return Status::InvalidArgument(
        "--port P (or --port-file F) with a valid port is required");
  }
  const std::string host = args.GetString("host", "127.0.0.1");

  // Must describe the same dataset the server was started with — keyword
  // terms are resolved against this vocabulary on both ends.
  auto graph = LoadServingDataset(args);
  if (!graph.ok()) return graph.status();
  auto wopts = ParseWorkloadOptions(args);
  if (!wopts.ok()) return wopts.status();
  const auto seed = args.GetInt("seed", 7);
  if (!seed.ok()) return seed.status();
  Rng rng(static_cast<uint64_t>(seed.value()));
  const std::vector<KtgQuery> workload = GenerateWorkload(*graph, *wopts, rng);
  if (workload.empty()) {
    return Status::Internal("workload generation produced no queries");
  }

  server::LoadgenOptions lopts;
  lopts.open_loop = args.GetBool("open-loop");
  const auto connections = args.GetInt("connections", 4);
  const auto rate = args.GetDouble("rate", 100.0);
  const auto duration = args.GetDouble("duration", 5.0);
  const auto max_queries = args.GetInt("max-queries", 0);
  const auto deadline = args.GetDouble("deadline-ms", 0.0);
  if (!connections.ok()) return connections.status();
  if (!rate.ok()) return rate.status();
  if (!duration.ok()) return duration.status();
  if (!max_queries.ok()) return max_queries.status();
  if (!deadline.ok()) return deadline.status();
  if (connections.value() < 1) {
    return Status::InvalidArgument("--connections must be >= 1");
  }
  lopts.connections = static_cast<uint32_t>(connections.value());
  lopts.rate_qps = rate.value();
  lopts.duration_s = duration.value();
  lopts.max_queries =
      static_cast<uint64_t>(std::max<int64_t>(0, max_queries.value()));
  lopts.deadline_ms = deadline.value();
  lopts.retry_rejected = args.GetBool("retry", true);
  lopts.seed = static_cast<uint64_t>(seed.value());
  const auto mode = ParseEngineMode(args.GetString("mode", "exact"));
  if (!mode.ok()) return mode.status();
  lopts.mode = mode.value();

  // --write-ratio: that fraction of request slots become `mutate` requests
  // drawn from a generated mutation workload (evolving-ledger batches, no
  // intra-batch noops; see datagen/mutation_gen.h).
  const auto write_ratio = args.GetDouble("write-ratio", 0.0);
  const auto mbatches = args.GetInt("mutation-batches", 64);
  const auto medges = args.GetInt("mutation-edges", 2);
  const auto mkeywords = args.GetInt("mutation-keywords", 1);
  if (!write_ratio.ok()) return write_ratio.status();
  if (!mbatches.ok()) return mbatches.status();
  if (!medges.ok()) return medges.status();
  if (!mkeywords.ok()) return mkeywords.status();
  if (write_ratio.value() < 0 || write_ratio.value() > 1) {
    return Status::InvalidArgument("--write-ratio must be in [0, 1]");
  }
  lopts.write_ratio = write_ratio.value();
  if (lopts.write_ratio > 0) {
    MutationWorkloadOptions mopts;
    mopts.num_batches =
        static_cast<uint32_t>(std::max<int64_t>(1, mbatches.value()));
    mopts.edges_per_batch =
        static_cast<uint32_t>(std::max<int64_t>(0, medges.value()));
    mopts.keywords_per_batch =
        static_cast<uint32_t>(std::max<int64_t>(0, mkeywords.value()));
    // Derived stream: the same --seed must yield the same queries whether
    // or not mutations ride along.
    Rng mrng(Mix64(static_cast<uint64_t>(seed.value()) ^ 0x6d75746174656eULL));
    lopts.mutations = GenerateMutationWorkload(*graph, mopts, mrng);
    if (lopts.mutations.empty()) {
      return Status::Internal("mutation workload generation produced nothing");
    }
  }

  // --check: every complete response is compared against a direct
  // in-process engine run *at the epoch the response names*, in the
  // workload's mode (anytime's tie representatives differ from exact's),
  // serially and without a budget. The oracle replays the server's
  // applied-order mutation history — learned from the mutate responses via
  // on_mutation_applied, since arrival order need not be generation order —
  // through its own SnapshotStore, and memoizes per (query index, epoch).
  // A memo keyed by query alone would silently go stale the moment the
  // first mutation landed.
  std::unique_ptr<SnapshotStore> oracle;
  std::mutex ref_mu;
  std::map<uint64_t, size_t> epoch_batches;     // epoch -> mutation index
  std::map<uint64_t, SnapshotPin> oracle_pins;  // epochs replayed so far
  std::map<std::pair<size_t, uint64_t>, KtgResult> memo;
  if (args.GetBool("check")) {
    const auto kind = ParseCheckerKind(args.GetString("checker", "nlrnl"));
    if (!kind.ok()) return kind.status();
    SnapshotStore::Options oopts;
    oopts.checker = kind.value();
    oracle = std::make_unique<SnapshotStore>(*graph, oopts);
    oracle_pins[oracle->epoch()] = oracle->Pin();
    lopts.on_mutation_applied = [&](uint64_t epoch, size_t mi) {
      std::lock_guard<std::mutex> lock(ref_mu);
      epoch_batches[epoch] = mi;
    };
    lopts.reference = [&](size_t qi, uint64_t epoch) -> const KtgResult* {
      std::lock_guard<std::mutex> lock(ref_mu);
      if (const auto it = memo.find({qi, epoch}); it != memo.end()) {
        return &it->second;
      }
      // Replay the server's history up to `epoch` (epochs are contiguous;
      // a gap means the matching mutate response was lost — unverifiable).
      while (oracle->epoch() < epoch) {
        const auto bi = epoch_batches.find(oracle->epoch() + 1);
        if (bi == epoch_batches.end()) return nullptr;
        const MutationBatch& mb = lopts.mutations[bi->second];
        const auto applied = oracle->Apply(mb);
        if (!applied.ok()) return nullptr;
        oracle_pins[oracle->epoch()] = oracle->Pin();
      }
      const auto pin = oracle_pins.find(epoch);
      if (pin == oracle_pins.end()) return nullptr;
      const EngineSnapshot& snap = *pin->second;
      std::unique_ptr<DistanceChecker> bfs;
      DistanceChecker* checker = snap.checker();
      if (checker == nullptr) {  // kBfs: per-run scratch
        bfs = std::make_unique<BfsChecker>(snap.graph().graph());
        checker = bfs.get();
      }
      EngineOptions oracle_opts;
      oracle_opts.mode = lopts.mode;
      auto expected = RunKtg(snap.graph(), snap.index(), *checker,
                             workload[qi], oracle_opts);
      if (!expected.ok()) return nullptr;
      return &memo.emplace(std::make_pair(qi, epoch), std::move(*expected))
                  .first->second;
    };
  }

  auto report = server::RunLoadgen(host, static_cast<uint16_t>(port), *graph,
                                   workload, lopts);
  if (!report.ok()) return report.status();
  std::printf("%s\n", report->ToJson().c_str());

  const std::string metrics_path = args.GetString("metrics-json");
  if (!metrics_path.empty()) {
    // The sidecar is the *server's* ktg.metrics.v1 snapshot after the run,
    // fetched over the wire — cache hit rates, rejections, queue depths.
    server::TcpClient client;
    KTG_RETURN_IF_ERROR(client.Connect(host, static_cast<uint16_t>(port)));
    KTG_RETURN_IF_ERROR(client.SendLine(server::MetricsRequestJson(0)));
    auto line = client.ReadLine();
    if (!line.ok()) return line.status();
    auto doc = ParseJson(*line);
    if (!doc.ok()) return doc.status();
    const JsonValue* metrics = doc->Find("metrics");
    if (metrics == nullptr) {
      return Status::Internal("metrics response carried no 'metrics' member");
    }
    KTG_RETURN_IF_ERROR(
        WriteTextFile(metrics_path, DumpJson(*metrics) + "\n"));
    std::fprintf(stderr, "wrote server metrics to %s\n", metrics_path.c_str());
  }

  if (report->mismatches > 0) {
    return Status::Internal(
        std::to_string(report->mismatches) +
        " differential mismatch(es): server responses differ from direct "
        "engine runs");
  }
  return Status::OK();
}

const std::vector<CommandSpec>& CommandRegistry() {
  // Leaked singleton: commands may be looked up from atexit paths.
  static const auto* kRegistry = new std::vector<CommandSpec>{
      {"generate", &CmdGenerate,
       "  generate     build a synthetic preset dataset and save it\n"
       "               --preset NAME --scale S [--seed S] [--edges F]\n"
       "               [--attrs F]\n",
       {"preset", "scale", "seed", "edges", "attrs"}},
      {"stats", &CmdStats,
       "  stats        structural statistics of an edge list\n"
       "               --edges F [--attrs F]\n",
       {"edges", "attrs"}},
      {"build-index", &CmdBuildIndex,
       "  build-index  build and persist a distance index\n"
       "               --edges F --kind nl|nlrnl --out F [--threads T]\n",
       {"edges", "attrs", "kind", "out", "threads"}},
      {"query", &CmdQuery,
       "  query        run one query\n"
       "               --edges F --attrs F --keywords a,b,c [--p P] [--k K]\n"
       "               [--n N] [--algo vkc-deg|vkc|qkc|greedy|dktg|tagq]\n"
       "               [--index F | --checker bfs|nl|nlrnl]\n"
       "               [--authors v1,v2] [--gamma G] [--max-nodes M] [--json]\n"
       "               [--explain] [--threads T] [--metrics-json F] [--trace]\n"
       "               [--cache-mb M] [--budget-ms B]\n"
       "               [--mode exact|anytime]\n",
       {"edges", "attrs", "keywords", "p", "k", "n", "algo", "index",
        "checker", "authors", "gamma", "max-nodes", "json", "explain",
        "threads", "metrics-json", "trace", "cache-mb", "budget-ms",
        "mode"}},
      {"workload", &CmdWorkload,
       "  workload     latency summary over a generated workload\n"
       "               --preset NAME --scale S [--queries Q] [--p P] [--k K]\n"
       "               [--n N] [--wq W] [--checker C] [--seed S] [--banded B]\n"
       "               [--threads T] [--metrics-json F] [--cache-mb M]\n"
       "               [--batches B]\n",
       {"preset", "scale", "queries", "p", "k", "n", "wq", "checker", "seed",
        "banded", "threads", "metrics-json", "cache-mb", "batches"}},
      {"serve", &CmdServe,
       "  serve        run ktgd, the resident query service (docs/server.md)\n"
       "               [--preset NAME --scale S --seed S |\n"
       "                --edges F --attrs F]\n"
       "               [--port P] [--port-file F] [--workers W] [--queue Q]\n"
       "               [--batch-max B] [--batch-window W] [--cache-mb M]\n"
       "               [--deadline-ms D] [--checker C] [--threads T]\n"
       "               [--metrics-json F] [--mode exact|anytime]\n",
       {"preset", "scale", "seed", "edges", "attrs", "port", "port-file",
        "workers", "queue", "batch-max", "batch-window", "cache-mb",
        "deadline-ms", "checker", "threads", "metrics-json", "mode"}},
      {"loadgen", &CmdLoadgen,
       "  loadgen      drive a running ktgd with a generated workload\n"
       "               [--preset NAME --scale S | --edges F --attrs F]\n"
       "               [--host H] [--port P | --port-file F] [--check]\n"
       "               [--open-loop] [--rate QPS] [--connections C]\n"
       "               [--duration S] [--max-queries M] [--deadline-ms D]\n"
       "               [--queries Q] [--p P] [--k K] [--n N] [--wq W]\n"
       "               [--seed S] [--banded B] [--retry R] [--checker C]\n"
       "               [--write-ratio R] [--mutation-batches B]\n"
       "               [--mutation-edges E] [--mutation-keywords K]\n"
       "               [--metrics-json F] [--mode exact|anytime]\n",
       {"preset", "scale", "seed", "edges", "attrs", "host", "port",
        "port-file", "check", "open-loop", "rate", "connections", "duration",
        "max-queries", "deadline-ms", "queries", "p", "k", "n", "wq",
        "banded", "retry", "checker", "write-ratio", "mutation-batches",
        "mutation-edges", "mutation-keywords", "metrics-json", "mode"}},
  };
  return *kRegistry;
}

const CommandSpec* FindCommand(const std::string& name) {
  for (const CommandSpec& spec : CommandRegistry()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

std::string UsageText() {
  std::string text =
      "ktg — keyword-based socially tenuous group queries\n"
      "\n"
      "usage: ktg <command> [--flag value ...]\n"
      "\n"
      "commands:\n";
  for (const CommandSpec& spec : CommandRegistry()) text += spec.help;
  text +=
      "  help         print this text\n"
      "\n"
      "--threads semantics: 0 = every CPU the process may run on. For\n"
      "build-index it parallelizes construction (default 0). For query it\n"
      "parallelizes index build and the search itself (default 1 = fully\n"
      "serial, bit-for-bit reproducible). For workload it runs whole\n"
      "queries on parallel workers (default 1).\n"
      "\n"
      "--metrics-json F writes a ktg.metrics.v1 snapshot (counters, phase\n"
      "timings, checker statistics) to F; --trace prints the query's\n"
      "ktg.trace.v1 event ring to stdout. See docs/observability.md.\n"
      "\n"
      "--cache-mb M enables the cross-query cache (M megabytes shared by\n"
      "all workers: k-hop neighborhoods + query results; off by default).\n"
      "--batches B runs B workload batches against the same cache, each\n"
      "drawn from a seed derived from --seed, so batch 2+ measures warm\n"
      "reuse on fresh queries rather than replaying batch 1. See\n"
      "docs/caching.md.\n"
      "\n"
      "--mode picks the execution strategy (docs/heuristics.md): exact\n"
      "(default) proves optimality; anytime seeds the search greedily and\n"
      "honors --budget-ms / deadlines by returning best-so-far plus a\n"
      "sound optimality gap.\n"
      "\n"
      "serve hosts the dataset behind a line-delimited JSON TCP protocol\n"
      "with admission control, request batching and per-query deadlines;\n"
      "loadgen drives it closed-loop (saturation) or open-loop (--rate)\n"
      "and, with --check, differentially verifies every response against\n"
      "a direct engine run. See docs/server.md.\n";
  return text;
}

int RunMain(const std::vector<std::string>& argv) {
  const std::string cmd =
      (!argv.empty() && !argv[0].starts_with("--")) ? argv[0] : "";
  if (cmd.empty()) {
    std::printf("%s", UsageText().c_str());
    return 2;
  }
  if (cmd == "help") {
    std::printf("%s", UsageText().c_str());
    return 0;
  }
  const CommandSpec* spec = FindCommand(cmd);
  if (spec == nullptr) {
    std::fprintf(stderr, "error: unknown command '%s'\n%s", cmd.c_str(),
                 UsageText().c_str());
    return 2;
  }
  // Flags are validated against the command's own list, so a flag another
  // command owns fails loudly instead of being silently ignored.
  auto args = Args::Parse(argv, spec->flags);
  if (!args.ok()) {
    std::fprintf(stderr, "error: %s\n%s", args.status().ToString().c_str(),
                 UsageText().c_str());
    return 2;
  }
  const Status status = spec->fn(*args);
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    return 1;
  }
  return 0;
}

}  // namespace ktg::cli
