#include "layers.h"

#include <algorithm>
#include <unordered_set>

#include "cache/caching_checker.h"
#include "cache/ktg_cache.h"
#include "core/candidates.h"
#include "index/checker_factory.h"
#include "server/protocol.h"

namespace perfbench {
namespace {

// Distinct queries the index/candidate/executor replays use.
constexpr size_t kReplayQueries = 256;
// Candidate pairs in the timed IsFartherThan batch.
constexpr size_t kCheckPairs = 200000;
// Slots of the run the serial cache replay re-executes.
constexpr uint64_t kCacheReplaySlots = 20000;
// Protocol calls timed.
constexpr size_t kProtocolSamples = 2000;
constexpr uint32_t kParallelThreads = 4;

const ktg::obs::Phase kPhases[4] = {
    ktg::obs::Phase::kCandidateGen, ktg::obs::Phase::kKlineFilter,
    ktg::obs::Phase::kBbSearch, ktg::obs::Phase::kTopNMerge};

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double Ms(int64_t ns) { return static_cast<double>(ns) / 1e6; }

}  // namespace

void EngineTotals::Add(const ktg::SearchStats& s) {
  runs += 1;
  nodes += static_cast<double>(s.nodes_expanded);
  groups += static_cast<double>(s.groups_completed);
  prunes += static_cast<double>(s.keyword_prunes + s.ub_prunes);
  kline += static_cast<double>(s.kline_filtered);
  checks += static_cast<double>(s.distance_checks);
  elapsed_ms += s.elapsed_ms;
  cpu_ms += s.cpu_ms;
  for (int i = 0; i < 4; ++i) phase_ms[i] += s.phases[kPhases[i]];
}

EngineTotals EngineTotals::Since(const EngineTotals& b) const {
  EngineTotals d = *this;
  d.runs -= b.runs;
  d.nodes -= b.nodes;
  d.groups -= b.groups;
  d.prunes -= b.prunes;
  d.kline -= b.kline;
  d.checks -= b.checks;
  d.elapsed_ms -= b.elapsed_ms;
  d.cpu_ms -= b.cpu_ms;
  for (int i = 0; i < 4; ++i) d.phase_ms[i] -= b.phase_ms[i];
  return d;
}

EngineTotals EngineTotals::FromRegistry(ktg::obs::MetricsRegistry& r) {
  EngineTotals t;
  auto c = [&](const char* name) {
    return static_cast<double>(r.CounterValue(name));
  };
  t.runs = c("engine.queries");
  t.nodes = c("engine.nodes_expanded");
  t.groups = c("engine.groups_completed");
  t.prunes = c("engine.prune.keyword") + c("engine.prune.ub");
  t.kline = c("engine.prune.kline");
  t.checks = c("engine.distance_checks");
  t.elapsed_ms = r.histogram("engine.query_ms").sum();
  t.cpu_ms = r.histogram("engine.cpu_ms").sum();
  for (int i = 0; i < 4; ++i) {
    t.phase_ms[i] = r.histogram(std::string("phase.") +
                                ktg::obs::PhaseName(kPhases[i]) + "_ms")
                        .sum();
  }
  return t;
}

std::vector<uint32_t> SampleQueries(const Inputs& in, size_t count) {
  std::vector<uint32_t> out;
  std::unordered_set<uint32_t> seen;
  for (size_t i = 0; i < in.stream.size() && out.size() < count; ++i) {
    const uint32_t q = in.stream[i];
    if (q != kWriteSlot && seen.insert(q).second) out.push_back(q);
  }
  return out;
}

double SpanSeconds(const SpanLog& log, const char* name) {
  for (const Span& s : log.spans()) {
    if (std::string_view(s.name) == name) {
      return static_cast<double>(s.end_ns - s.start_ns) / 1e9;
    }
  }
  return 0.0;
}

ktg::Status ReplayIndexLayers(const WorkloadSpec& spec, const Inputs& in,
                              const std::vector<uint32_t>& sample,
                              SpanLog* log, LayerReport* out,
                              std::unique_ptr<ktg::InvertedIndex>* index,
                              std::unique_ptr<ktg::DistanceChecker>* checker) {
  int32_t s = log->Begin("keywords.inverted_index_build", 0);
  *index = std::make_unique<ktg::InvertedIndex>(in.graph);
  log->End(s);
  s = log->Begin("index.build", 0);
  *checker = ktg::MakeSnapshotChecker(ktg::CheckerKind::kNlrnl,
                                      in.graph.graph(), spec.k, 0);
  log->End(s);
  out->inverted_index_build_s =
      SpanSeconds(*log, "keywords.inverted_index_build");
  out->index_build_s = SpanSeconds(*log, "index.build");
  out->index_bytes = static_cast<double>((*checker)->MemoryBytes());

  std::vector<double> extract_us;
  double total_candidates = 0;
  std::vector<std::pair<ktg::VertexId, ktg::VertexId>> pairs;
  for (const uint32_t qi : sample) {
    s = log->Begin("core.candidates.extract", qi);
    const auto cands = ktg::ExtractCandidates(in.graph, **index, in.pool[qi],
                                              **checker);
    log->End(s);
    const Span& span = log->spans()[static_cast<size_t>(s)];
    extract_us.push_back(static_cast<double>(span.end_ns - span.start_ns) /
                         1e3);
    total_candidates += static_cast<double>(cands.size());
    for (size_t i = 0; i < cands.size() && pairs.size() < kCheckPairs; ++i) {
      for (size_t j = i + 1; j < cands.size() && pairs.size() < kCheckPairs;
           ++j) {
        pairs.emplace_back(cands[i].vertex, cands[j].vertex);
      }
    }
  }
  out->extract_us = Median(extract_us);
  out->candidates = Ratio(total_candidates, static_cast<double>(sample.size()));
  if (pairs.empty()) {
    return ktg::Status::Internal("no candidate pairs to time index checks on");
  }

  ktg::DistanceChecker& chk = **checker;
  uint64_t farther = 0;
  s = log->Begin("index.check_batch", 0);
  for (const auto& [u, v] : pairs) farther += chk.IsFartherThan(u, v, spec.k);
  log->End(s);
  const Span& batch = log->spans()[static_cast<size_t>(s)];
  out->check_ns = static_cast<double>(batch.end_ns - batch.start_ns) /
                  static_cast<double>(pairs.size());
  chk.EnableDetailStats();
  chk.ResetStats();
  uint64_t farther_again = 0;
  for (const auto& [u, v] : pairs) {
    farther_again += chk.IsFartherThan(u, v, spec.k);
  }
  if (farther_again != farther) {
    return ktg::Status::Internal("index checks are not repeatable");
  }
  out->probes_per_check = Ratio(static_cast<double>(chk.num_probes()),
                                static_cast<double>(chk.num_checks()));
  return ktg::Status::OK();
}

void ExecFromPairs(const std::vector<double>& serial_ms,
                   const std::vector<double>& parallel_ms, LayerReport* out) {
  std::vector<double> overhead;
  double heavy_serial = 0;
  double heavy_parallel = 0;
  for (size_t i = 0; i < serial_ms.size() && i < parallel_ms.size(); ++i) {
    if (serial_ms[i] < 1.0) overhead.push_back(parallel_ms[i] - serial_ms[i]);
    if (serial_ms[i] >= 10.0) {
      heavy_serial += serial_ms[i];
      heavy_parallel += parallel_ms[i];
    }
  }
  out->parallel_overhead_ms = Median(overhead);
  out->speedup_heavy = Ratio(heavy_serial, heavy_parallel);
}

ktg::Status ReplayServedLayers(const WorkloadSpec& spec, const Inputs& in,
                               const std::vector<std::string>& lines,
                               uint64_t slots_used, SpanLog* log,
                               LayerReport* out) {
  const std::vector<uint32_t> sample = SampleQueries(in, kReplayQueries);
  std::unique_ptr<ktg::InvertedIndex> index;
  std::unique_ptr<ktg::DistanceChecker> checker;
  KTG_RETURN_IF_ERROR(
      ReplayIndexLayers(spec, in, sample, log, out, &index, &checker));

  std::vector<double> serial_ms;
  std::vector<double> parallel_ms;
  {
    const AllCpusScope all_cpus;
    for (const uint32_t qi : sample) {
      for (const uint32_t threads : {1u, kParallelThreads}) {
        ktg::EngineOptions eo;
        eo.num_threads = threads;
        const int32_t s =
            log->Begin(threads == 1 ? "exec.serial" : "exec.parallel", qi);
        auto r = ktg::RunKtg(in.graph, *index, *checker, in.pool[qi], eo);
        log->End(s);
        if (!r.ok()) return r.status();
        const Span& span = log->spans()[static_cast<size_t>(s)];
        (threads == 1 ? serial_ms : parallel_ms)
            .push_back(Ms(span.end_ns - span.start_ns));
      }
    }
  }
  ExecFromPairs(serial_ms, parallel_ms, out);

  ktg::KtgCache cache(ktg::CacheOptionsForMb(spec.cache_mb));
  ktg::SnapshotStore::Options so;
  so.checker = ktg::CheckerKind::kNlrnl;
  so.cache = &cache;
  ktg::SnapshotStore store(ktg::AttributedGraph(in.graph), so);
  size_t next_batch = 0;
  std::vector<double> parse_us;
  std::vector<double> serialize_us;
  ktg::CacheTierStats ball_before;
  ktg::CacheTierStats query_before;
  // Slots [0, pool) replay the warm-up (every pool query once, in order);
  // the stream's slots follow.
  const uint64_t warmup = in.pool.size();
  const uint64_t replay = warmup + std::min(slots_used, kCacheReplaySlots);
  for (uint64_t i = 0; i < replay; ++i) {
    if (i == warmup) {
      ball_before = cache.BallStats();
      query_before = cache.QueryStats();
    }
    const uint64_t slot = i - std::min(i, warmup);
    const uint32_t qi = i < warmup ? static_cast<uint32_t>(i)
                                   : in.stream[slot % in.stream.size()];
    if (qi == kWriteSlot) {
      if (next_batch >= in.mutations.size()) break;
      const int32_t s = log->Begin("core.snapshot.apply", slot);
      const auto applied = store.Apply(in.mutations[next_batch++]);
      log->End(s);
      if (!applied.ok()) return applied.status();
      continue;
    }
    const bool timed = i >= warmup;
    if (timed && parse_us.size() < kProtocolSamples) {
      const int32_t s = log->Begin("server.protocol.parse", slot);
      const auto req = ktg::server::ParseRequestLine(lines[qi]);
      log->End(s);
      if (!req.ok()) return req.status();
      const Span& span = log->spans()[static_cast<size_t>(s)];
      parse_us.push_back(static_cast<double>(span.end_ns - span.start_ns) /
                         1e3);
    }
    const ktg::SnapshotPin pin = store.Pin();
    ktg::CachingChecker cached(pin->checker(), pin->graph().graph(), &cache,
                               pin->epoch());
    ktg::EngineOptions eo;
    eo.cache = &cache;
    eo.snapshot_epoch = pin->epoch();
    ktg::KtgEngine engine(pin->graph(), pin->index(), cached, eo);
    const int32_t run = log->Begin("cache.replay_run", slot);
    auto result = engine.Run(in.pool[qi]);
    log->End(run);
    if (!result.ok()) return result.status();
    if (timed && serialize_us.size() < kProtocolSamples) {
      ktg::server::ServingInfo serving;
      serving.epoch = pin->epoch();
      const int32_t s = log->Begin("server.protocol.serialize", slot);
      const std::string line = ktg::server::QueryResponseJson(
          slot, pin->graph(), in.pool[qi], *result, serving);
      log->End(s);
      const Span& span = log->spans()[static_cast<size_t>(s)];
      serialize_us.push_back(
          static_cast<double>(span.end_ns - span.start_ns) / 1e3);
    }
  }
  auto delta = [](ktg::CacheTierStats now, const ktg::CacheTierStats& b) {
    now.hits -= b.hits;
    now.misses -= b.misses;
    now.evictions -= b.evictions;
    now.invalidations -= b.invalidations;
    return now;
  };
  out->parse_us = Median(parse_us);
  out->serialize_us = Median(serialize_us);
  out->ball = delta(cache.BallStats(), ball_before);
  out->query = delta(cache.QueryStats(), query_before);
  return ktg::Status::OK();
}

void AddLayerMetrics(const LayerReport& r, RunOutput* out) {
  auto hit_ratio = [](const ktg::CacheTierStats& s) {
    return Ratio(static_cast<double>(s.hits),
                 static_cast<double>(s.hits + s.misses));
  };
  out->Add("cache.query.hit_ratio", hit_ratio(r.query), "ratio");
  out->Add("cache.ball.hit_ratio", hit_ratio(r.ball), "ratio");
  out->Add("cache.evictions",
           static_cast<double>(r.ball.evictions + r.query.evictions),
           "count");
  out->Add("cache.invalidations",
           static_cast<double>(r.ball.invalidations + r.query.invalidations),
           "count");
  out->Add("cache.bytes", static_cast<double>(r.ball.bytes + r.query.bytes),
           "bytes");

  std::vector<double> publish, rebuilds, affected, retired;
  for (const auto& a : r.applies) {
    publish.push_back(a.publish_ms);
    rebuilds.push_back(static_cast<double>(a.checker_rebuilds));
    affected.push_back(static_cast<double>(a.affected_vertices));
    retired.push_back(static_cast<double>(a.retired_live));
  }
  out->Add("core.snapshot.publish_ms.p50", Median(publish), "ms");
  AddTail(out, "core.snapshot.publish_ms.p99", TailRule(publish), "ms");
  out->Add("core.snapshot.checker_rebuilds_per_batch", Mean(rebuilds),
           "count");
  out->Add("core.snapshot.affected_vertices_per_batch", Mean(affected),
           "count");
  out->Add("core.snapshot.retired_live", Mean(retired), "count");

  const EngineTotals& e = r.engine;
  out->Add("core.candidates.extract_us", r.extract_us, "us");
  out->Add("core.candidates.count", r.candidates, "count");
  out->Add("core.engine.run_ms", Ratio(e.elapsed_ms, e.runs), "ms");
  const char* phase_names[4] = {"candidate_gen", "kline_filter", "bb_search",
                                "topn_merge"};
  for (int i = 0; i < 4; ++i) {
    out->Add(std::string("core.engine.phase.") + phase_names[i] + "_ms",
             Ratio(e.phase_ms[i], e.runs), "ms");
  }
  out->Add("core.engine.nodes_per_query", Ratio(e.nodes, e.runs), "count");
  out->Add("core.engine.groups_per_node", Ratio(e.groups, e.nodes), "ratio");
  out->Add("core.engine.prune_frac", Ratio(e.prunes, e.nodes + e.prunes),
           "ratio");
  out->Add("core.engine.kline_filtered_per_query", Ratio(e.kline, e.runs),
           "count");
  out->Add("core.engine.cpu_per_wall", Ratio(e.cpu_ms, e.elapsed_ms),
           "ratio");
  out->Add("exec.parallel_overhead_ms.p50", r.parallel_overhead_ms, "ms");
  out->Add("exec.speedup_heavy", r.speedup_heavy, "ratio");
  out->Add("index.checks_per_query", Ratio(e.checks, e.runs), "count");
  out->Add("index.check_ns", r.check_ns, "ns");
  out->Add("index.probes_per_check", r.probes_per_check, "ratio");
  out->Add("index.build_s", r.index_build_s, "s");
  out->Add("index.bytes", r.index_bytes, "bytes");
  out->Add("datagen.build_s", r.datagen_build_s, "s");
  out->Add("keywords.inverted_index_build_s", r.inverted_index_build_s, "s");
  out->Add("trace.overhead_frac", r.overhead_frac, "ratio");
  out->Add("run.cpu_share", r.cpu_share, "ratio");
}

}  // namespace perfbench
