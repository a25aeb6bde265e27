// Copyright (c) 2026 The ktg Authors.

#include "bench/common.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>

#include "util/rng.h"
#include "util/shutdown.h"
#include "util/timer.h"

namespace ktg::bench {

double BenchScale() {
  static const double scale = [] {
    const char* env = std::getenv("KTG_BENCH_SCALE");
    if (env != nullptr) {
      const double v = std::atof(env);
      if (v > 0) return v;
    }
    return 0.25;
  }();
  return scale;
}

obs::MetricsRegistry& Metrics() {
  static obs::MetricsRegistry registry;
  return registry;
}

void WriteMetricsSidecar(const std::string& bench_name) {
  // Every sidecar names the thread count it was measured under.
  Metrics().gauge("exec.bench.threads")
      .Set(static_cast<double>(BenchThreads()));
  const char* env = std::getenv("KTG_BENCH_METRICS_PATH");
  const std::string path = (env != nullptr && env[0] != '\0')
                               ? std::string(env)
                               : bench_name + ".metrics.json";
  const std::string json = Metrics().ToJson() + "\n";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "[bench] cannot write metrics sidecar %s\n",
                 path.c_str());
    return;
  }
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  std::fprintf(stderr, "[bench] metrics sidecar -> %s\n", path.c_str());
}

void InstallBenchSignalFlush(const std::string& bench_name) {
  InstallShutdownHandlers();
  RegisterShutdownFlush([bench_name] { WriteMetricsSidecar(bench_name); });
}

uint32_t BenchQueries() {
  static const uint32_t n = [] {
    const char* env = std::getenv("KTG_BENCH_QUERIES");
    if (env != nullptr) {
      const int v = std::atoi(env);
      if (v > 0) return static_cast<uint32_t>(v);
    }
    return kDefaultQueries;
  }();
  return n;
}

namespace {
// -1 = no --threads flag seen; ConsumeThreadsFlag runs before any
// BenchThreads() call, so a plain int (no atomics) is enough.
int g_threads_override = -1;
int g_repeat_override = -1;  // same single-threaded-startup contract
}  // namespace

uint32_t BenchThreads() {
  if (g_threads_override >= 0) return static_cast<uint32_t>(g_threads_override);
  static const uint32_t n = [] {
    const char* env = std::getenv("KTG_BENCH_THREADS");
    if (env != nullptr) {
      const int v = std::atoi(env);
      if (v >= 0) return static_cast<uint32_t>(v);
    }
    return 1u;  // serial: reproduce the paper's single-thread latencies
  }();
  return n;
}

void ConsumeThreadsFlag(int* argc, char** argv) {
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--threads" && i + 1 < *argc) {
      g_threads_override = std::max(0, std::atoi(argv[++i]));
    } else if (arg.rfind("--threads=", 0) == 0) {
      g_threads_override = std::max(0, std::atoi(arg.c_str() + 10));
    } else {
      argv[out++] = argv[i];
    }
  }
  *argc = out;
}

uint32_t BenchRepeats() {
  if (g_repeat_override >= 1) return static_cast<uint32_t>(g_repeat_override);
  static const uint32_t n = [] {
    const char* env = std::getenv("KTG_BENCH_REPEAT");
    if (env != nullptr) {
      const int v = std::atoi(env);
      if (v >= 1) return static_cast<uint32_t>(v);
    }
    return 1u;
  }();
  return n;
}

void ConsumeRepeatFlag(int* argc, char** argv) {
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--repeat" && i + 1 < *argc) {
      g_repeat_override = std::max(1, std::atoi(argv[++i]));
    } else if (arg.rfind("--repeat=", 0) == 0) {
      g_repeat_override = std::max(1, std::atoi(arg.c_str() + 9));
    } else {
      argv[out++] = argv[i];
    }
  }
  *argc = out;
}

BenchDataset::BenchDataset(std::string name, AttributedGraph graph)
    : name_(std::move(name)),
      graph_(std::move(graph)),
      index_(graph_) {}

BenchDataset& BenchDataset::GetScaled(const std::string& preset_name,
                                      double extra_scale) {
  static std::map<std::string, std::unique_ptr<BenchDataset>> cache;
  const std::string key =
      preset_name + "@" + std::to_string(BenchScale() * extra_scale);
  auto it = cache.find(key);
  if (it == cache.end()) {
    auto spec = GetPreset(preset_name, BenchScale() * extra_scale);
    KTG_CHECK_MSG(spec.ok(), spec.status().ToString().c_str());
    std::fprintf(stderr, "[bench] building dataset %s (n=%u)...\n",
                 preset_name.c_str(), spec->num_vertices);
    it = cache
             .emplace(key, std::unique_ptr<BenchDataset>(new BenchDataset(
                               preset_name, BuildDataset(*spec))))
             .first;
  }
  return *it->second;
}

BenchDataset& BenchDataset::Get(const std::string& preset_name) {
  return GetScaled(preset_name, 1.0);
}

DistanceChecker& BenchDataset::Checker(CheckerKind kind) {
  auto it = checkers_.find(kind);
  if (it == checkers_.end()) {
    std::fprintf(stderr, "[bench] building %s checker for %s...\n",
                 CheckerKindName(kind), name_.c_str());
    Stopwatch watch;
    auto checker = MakeChecker(kind, graph_.graph(), BenchThreads());
    Metrics()
        .gauge(std::string("bench.build_s.") + CheckerKindName(kind) + "." +
               name_)
        .Set(watch.ElapsedSeconds());
    it = checkers_.emplace(kind, std::move(checker)).first;
  }
  return *it->second;
}

std::string BenchDataset::Summary() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%s: n=%u m=%llu avg_deg=%.1f vocab=%u",
                name_.c_str(), graph_.num_vertices(),
                static_cast<unsigned long long>(graph_.num_edges()),
                graph_.graph().AverageDegree(), graph_.num_keywords());
  return buf;
}

void PinPaperEngine(EngineOptions& engine) {
  engine.ceiling_prune = false;
  engine.residual_bound = false;
  engine.bulk_filtering = false;
  engine.degree_ascending = true;
}

std::vector<AlgoConfig> PaperAlgoConfigs(bool include_qkc) {
  std::vector<AlgoConfig> configs;
  if (include_qkc) {
    configs.push_back(
        {"KTG-QKC-NLRNL", false, SortStrategy::kQkc, CheckerKind::kNlrnl, {}});
  }
  configs.push_back(
      {"KTG-VKC-NL", false, SortStrategy::kVkc, CheckerKind::kNl, {}});
  configs.push_back(
      {"KTG-VKC-NLRNL", false, SortStrategy::kVkc, CheckerKind::kNlrnl, {}});
  configs.push_back({"KTG-VKC-DEG-NLRNL", false, SortStrategy::kVkcDeg,
                     CheckerKind::kNlrnl, {}});
  configs.push_back({"DKTG-Greedy", true, SortStrategy::kVkcDeg,
                     CheckerKind::kNlrnl, {}});
  // A node budget caps pathological points on the scaled-down datasets.
  for (auto& config : configs) {
    PinPaperEngine(config.engine);
    config.engine.max_nodes = 2'000'000;
  }
  return configs;
}

Measurement RunBatch(BenchDataset& dataset, const AlgoConfig& config,
                     const std::vector<KtgQuery>& queries) {
  Measurement m;
  if (queries.empty()) return m;
  DistanceChecker& checker = dataset.Checker(config.checker);

  const uint32_t repeats = BenchRepeats();
  std::vector<double> repeat_ms;  // per-repeat average query latency
  repeat_ms.reserve(repeats);
  for (uint32_t rep = 0; rep < repeats; ++rep) {
    double batch_ms = 0.0;
    for (const auto& query : queries) {
      EngineOptions opts = config.engine;
      opts.sort = config.sort;
      opts.num_threads = BenchThreads();
      opts.metrics = &Metrics();
      SearchStats stats;
      double best = 0.0;
      bool empty = false;
      if (config.is_dktg) {
        DktgOptions dopts;
        dopts.engine = opts;
        const auto r =
            RunDktgGreedy(dataset.graph(), dataset.index(), checker, query,
                          dopts);
        KTG_CHECK_MSG(r.ok(), r.status().ToString().c_str());
        stats = r->stats;
        empty = r->groups.empty();
        best = r->groups.empty()
                   ? 0.0
                   : QkcRatio(r->groups.front(), r->query_keyword_count);
      } else {
        const auto r =
            RunKtg(dataset.graph(), dataset.index(), checker, query, opts);
        KTG_CHECK_MSG(r.ok(), r.status().ToString().c_str());
        stats = r->stats;
        empty = r->groups.empty();
        best = r->best_coverage();
      }
      batch_ms += stats.elapsed_ms;
      if (rep != 0) continue;
      // Search counters are deterministic across repeats; accumulate once.
      m.avg_nodes += static_cast<double>(stats.nodes_expanded);
      m.avg_checks += static_cast<double>(stats.distance_checks);
      m.avg_best_coverage += best;
      if (empty) ++m.empty_results;
      ++m.queries;
    }
    repeat_ms.push_back(batch_ms / static_cast<double>(queries.size()));
  }
  std::sort(repeat_ms.begin(), repeat_ms.end());
  for (const double ms : repeat_ms) m.avg_ms += ms;
  m.avg_ms /= static_cast<double>(repeat_ms.size());
  m.min_ms = repeat_ms.front();
  m.median_ms = repeat_ms[repeat_ms.size() / 2];
  m.avg_nodes /= m.queries;
  m.avg_checks /= m.queries;
  m.avg_best_coverage /= m.queries;
  return m;
}

std::vector<KtgQuery> MakeWorkload(const BenchDataset& dataset, uint32_t p,
                                   HopDistance k, uint32_t wq, uint32_t n) {
  WorkloadOptions opts;
  opts.num_queries = BenchQueries();
  opts.group_size = p;
  opts.tenuity = k;
  opts.keyword_count = wq;
  opts.top_n = n;
  // Query keywords match tens of users each (the paper's real-data regime;
  // see EXPERIMENTS.md "workload calibration").
  opts.frequency_banded = true;
  // Seed per dataset so every algorithm sees identical queries.
  Rng rng(0xBEC4 + Mix64(std::hash<std::string>{}(dataset.name())));
  return GenerateWorkload(dataset.graph(), opts, rng);
}

void PrintHeader(const std::string& title, const std::string& note) {
  std::printf(
      "\n================================================================\n");
  std::printf("%s\n", title.c_str());
  if (!note.empty()) std::printf("%s\n", note.c_str());
  std::printf(
      "================================================================\n");
}

void PrintRow(const std::vector<std::string>& cells,
              const std::vector<int>& widths) {
  for (size_t i = 0; i < cells.size(); ++i) {
    const int w = i < widths.size() ? widths[i] : 12;
    std::printf("%-*s", w, cells[i].c_str());
  }
  std::printf("\n");
}

std::string Fmt(double value, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
  return buf;
}

}  // namespace ktg::bench
