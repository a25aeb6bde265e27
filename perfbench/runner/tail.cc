// paper_tail: the published KTG-VKC-DEG-NLRNL on p=6 queries, called
// directly (no server, no cache) with root-parallel search on 4 threads.
// Every pass over the pool runs each query once, in a fresh seeded order.
// Timings are process CPU time converted to reference time (calibrate.h);
// spans stay on the wall clock.

#include <algorithm>
#include <map>

#include "core/ktg_engine.h"
#include "index/checker_factory.h"
#include "keywords/inverted_index.h"
#include "layers.h"
#include "run.h"
#include "validate.h"

namespace perfbench {
namespace {

// Queries whose 4-thread answers are compared with a serial run's.
constexpr uint32_t kProfileSample = 32;

ktg::EngineOptions TailOptions(const WorkloadSpec& spec, uint32_t threads) {
  ktg::EngineOptions eo;
  eo.sort = ktg::SortStrategy::kVkcDeg;
  // The figure benches' settings: the paper's additive Theorem-2 bound
  // only, with a node budget for pathological instances.
  eo.ceiling_prune = false;
  eo.residual_bound = false;
  eo.max_nodes = 2'000'000;
  eo.num_threads = threads == 0 ? spec.engine_threads : threads;
  return eo;
}

// Dataset, inverted index and NLRNL checker. Heap-held: the index borrows
// the graph.
struct TailStack {
  ktg::AttributedGraph graph;
  std::unique_ptr<ktg::InvertedIndex> index;
  std::unique_ptr<ktg::DistanceChecker> checker;
};

std::unique_ptr<TailStack> StartTail(const WorkloadSpec& spec,
                                     const Inputs& in, double* seconds,
                                     SpanLog* log) {
  const int64_t c0 = CpuNs();
  auto stack = std::make_unique<TailStack>();
  const int32_t root = log ? log->Begin("setup", 0) : -1;
  int32_t s = log ? log->Begin("datagen.build", 0, root) : -1;
  stack->graph = ktg::BuildDataset(in.dataset);
  if (log) log->End(s);
  s = log ? log->Begin("keywords.inverted_index_build", 0, root) : -1;
  stack->index = std::make_unique<ktg::InvertedIndex>(stack->graph);
  if (log) log->End(s);
  s = log ? log->Begin("index.build", 0, root) : -1;
  stack->checker = ktg::MakeSnapshotChecker(
      ktg::CheckerKind::kNlrnl, stack->graph.graph(), spec.k, 0);
  if (log) {
    log->End(s);
    log->End(root);
  }
  *seconds = static_cast<double>(CpuNs() - c0) / 1e9;
  return stack;
}

// Wall time between calibrations in the window.
constexpr int64_t kChunkNs = 100'000'000;

struct TailWindow {
  ClockReading start;
  ClockReading end;
  SpeedTrack track;
  ChunkedTimes runs;
  std::vector<uint32_t> run_query;  // pool query of each run
  /// Runs completed at the end of every whole pass over the pool.
  std::vector<size_t> pass_ends;
  FailureTally tally;
  std::vector<AnswerRecord> answers;  // distinct
  EngineTotals engine;  // traced only
};

TailWindow DriveTail(const WorkloadSpec& spec, const Inputs& in,
                     TailStack& stack, double seconds,
                     ktg::obs::MetricsRegistry* metrics, SpanLog* log) {
  TailWindow w;
  ktg::EngineOptions eo = TailOptions(spec, 0);
  eo.metrics = metrics;
  ktg::KtgEngine engine(stack.graph, *stack.index, *stack.checker, eo);
  std::unordered_map<uint64_t, bool> seen;
  w.track.Mark();
  w.start = ClockReading::Now();
  const int64_t end_ns =
      w.start.wall_ns + static_cast<int64_t>(seconds * 1e9);
  int64_t chunk_end = w.start.wall_ns + kChunkNs;
  for (uint64_t slot = 0; NowNs() < end_ns; ++slot) {
    if (NowNs() >= chunk_end) {
      w.track.Mark();
      chunk_end = NowNs() + kChunkNs;
    }
    if (slot > 0 && slot % spec.pool == 0) {
      w.pass_ends.push_back(w.runs.size());
    }
    const uint32_t qi = in.stream[slot % in.stream.size()];
    w.tally.attempted++;
    const int64_t t0 = NowNs();
    const int64_t c0 = CpuNs();
    auto result = engine.Run(in.pool[qi]);
    const int64_t c1 = CpuNs();
    const int64_t t1 = NowNs();
    if (log) log->Add("core.engine.run", t0, t1, slot);
    if (!result.ok()) {
      w.tally.errors++;
      continue;
    }
    if (!engine.last_run_complete()) w.tally.timeouts++;
    w.runs.Add(static_cast<double>(c1 - c0) / 1e6, w.track.chunk());
    w.run_query.push_back(qi);
    if (metrics) w.engine.Add(result->stats);
    AnswerRecord a{qi, 0, ToRecords(*result)};
    if (seen.emplace(AnswerDigest(a), true).second) {
      w.answers.push_back(std::move(a));
    }
  }
  w.end = ClockReading::Now();
  w.track.Mark();
  return w;
}

// The library write path on this dataset: a SnapshotStore over it, each
// batch applied and published on the calling thread.
struct ProbeResult {
  SpeedTrack track;  // a mark before every batch and after the last
  ChunkedTimes write_ms;
  std::vector<ktg::SnapshotStore::ApplyInfo> infos;
  FailureTally tally;
};

ProbeResult WriteProbe(const Inputs& in, SpanLog* log) {
  ProbeResult p;
  ktg::SnapshotStore::Options so;
  so.checker = ktg::CheckerKind::kNlrnl;
  ktg::SnapshotStore store(ktg::AttributedGraph(in.graph), so);
  for (size_t i = 0; i < in.mutations.size(); ++i) {
    p.track.Mark();
    p.tally.attempted++;
    const int64_t t0 = NowNs();
    const int64_t c0 = CpuNs();
    auto info = store.Apply(in.mutations[i]);
    const int64_t c1 = CpuNs();
    const int64_t t1 = NowNs();
    if (log) log->Add("core.snapshot.apply", t0, t1, i);
    if (!info.ok() || info->epoch != i + 1) {
      p.tally.errors++;
      continue;
    }
    p.write_ms.Add(static_cast<double>(c1 - c0) / 1e6, p.track.chunk());
    p.infos.push_back(*info);
  }
  p.track.Mark();
  return p;
}

// The fixed sample of pool queries checked against serial runs.
uint32_t SampleQuery(const WorkloadSpec& spec, uint32_t i) {
  return i * (spec.pool / kProfileSample);
}

// Structural check of every distinct answer, then the coverage-profile
// check of a fixed sample against serial runs. Returns the number of
// refused answers.
uint64_t ValidateTail(const WorkloadSpec& spec, const Inputs& in,
                      TailStack& stack, const TailWindow& w,
                      std::string* first) {
  uint64_t invalid = 0;
  auto refuse = [&](const std::string& why) {
    ++invalid;
    if (first->empty()) *first = why;
  };
  EpochGraph graph(in.graph);
  std::map<uint32_t, std::vector<const AnswerRecord*>> by_query;
  for (const AnswerRecord& a : w.answers) {
    const std::string why = graph.Check(in.pool[a.query], a.groups);
    if (!why.empty()) refuse(why);
    by_query[a.query].push_back(&a);
  }
  ktg::KtgEngine serial(stack.graph, *stack.index, *stack.checker,
                        TailOptions(spec, 1));
  ktg::KtgEngine parallel(stack.graph, *stack.index, *stack.checker,
                          TailOptions(spec, 0));
  for (uint32_t i = 0; i < kProfileSample; ++i) {
    const uint32_t qi = SampleQuery(spec, i);
    auto expect = serial.Run(in.pool[qi]);
    if (!expect.ok() || !serial.last_run_complete()) {
      refuse("serial reference run failed or was truncated");
      continue;
    }
    if (by_query[qi].empty()) {
      auto got = parallel.Run(in.pool[qi]);
      if (!got.ok() || Profile(*got) != Profile(*expect)) {
        refuse("4-thread coverage profile differs from the serial run");
      }
    }
    for (const AnswerRecord* a : by_query[qi]) {
      if (Profile(a->groups) != Profile(*expect)) {
        refuse("4-thread coverage profile differs from the serial run");
      }
    }
  }
  return invalid;
}

// Every pass runs the same queries, so whole passes are the unit of
// throughput: the runs of the whole passes over their reference time. A
// window without a whole pass falls back to every run in it.
double PassRate(const TailWindow& w, const std::vector<double>& ref_ms) {
  const size_t n = w.pass_ends.empty() ? ref_ms.size() : w.pass_ends.back();
  double ms = 0.0;
  for (size_t i = 0; i < n; ++i) ms += ref_ms[i];
  return ms > 0 ? static_cast<double>(n) * 1e3 / ms : 0.0;
}

// Each distinct query once, at the median of its runs in the window: the
// latency percentiles then describe the pool, not the slice of it a run
// happened to reach.
std::vector<double> PerQueryMedians(const TailWindow& w,
                                    const std::vector<double>& ref_ms) {
  std::map<uint32_t, std::vector<double>> by_query;
  for (size_t i = 0; i < ref_ms.size(); ++i) {
    by_query[w.run_query[i]].push_back(ref_ms[i]);
  }
  std::vector<double> out;
  for (const auto& [qi, times] : by_query) out.push_back(Median(times));
  return out;
}

// The executor layer: the profile sample run serially and on 4 engine
// threads, on every CPU the process started with.
void ReplayExec(const WorkloadSpec& spec, const Inputs& in, TailStack& stack,
                LayerReport* out) {
  const AllCpusScope all_cpus;
  ktg::KtgEngine serial(stack.graph, *stack.index, *stack.checker,
                        TailOptions(spec, 1));
  ktg::KtgEngine parallel(stack.graph, *stack.index, *stack.checker,
                          TailOptions(spec, 0));
  std::vector<double> serial_ms;
  std::vector<double> parallel_ms;
  for (uint32_t i = 0; i < kProfileSample; ++i) {
    const ktg::KtgQuery& q = in.pool[SampleQuery(spec, i)];
    int64_t t0 = NowNs();
    const bool ok = serial.Run(q).ok();
    serial_ms.push_back(static_cast<double>(NowNs() - t0) / 1e6);
    t0 = NowNs();
    const bool ok_parallel = parallel.Run(q).ok();
    parallel_ms.push_back(static_cast<double>(NowNs() - t0) / 1e6);
    if (!ok || !ok_parallel) {
      serial_ms.pop_back();
      parallel_ms.pop_back();
    }
  }
  ExecFromPairs(serial_ms, parallel_ms, out);
}

struct TailPass {
  std::vector<double> setup_s;
  std::unique_ptr<TailStack> stack;
  TailWindow window;
  double peak_rss_mb = 0.0;
  ProbeResult probe;
  std::string invalid_why;
};

void RunTailPass(const WorkloadSpec& spec, const Inputs& in, double seconds,
                 int setups, ktg::obs::MetricsRegistry* metrics,
                 SpanLog* log, TailPass* pass) {
  SpeedTrack track;
  std::vector<double> cpu_s;
  for (int r = 0; r < setups; ++r) {
    pass->stack.reset();
    track.Mark();
    double secs = 0.0;
    pass->stack = StartTail(spec, in, &secs, r + 1 == setups ? log : nullptr);
    cpu_s.push_back(secs);
  }
  track.Mark();
  pass->setup_s = ReferenceSeconds(cpu_s, track);
  pass->window = DriveTail(spec, in, *pass->stack, seconds, metrics, log);
  pass->peak_rss_mb = PeakRssMb();
  pass->probe = WriteProbe(in, log);
  pass->window.tally += pass->probe.tally;
  pass->window.tally.invalid +=
      ValidateTail(spec, in, *pass->stack, pass->window, &pass->invalid_why);
}

}  // namespace

ktg::Result<RunOutput> RunTail(const WorkloadSpec& spec, const Inputs& in,
                               const RunArgs& args) {
  RunOutput out;
  if (!args.trace) {
    TailPass pass;
    RunTailPass(spec, in, args.seconds, kSetupRepeats, nullptr, nullptr,
                &pass);
    const TailWindow& w = pass.window;
    out.tally = w.tally;
    if (w.tally.invalid > 0) {
      out.correct = false;
      out.Note("validation: " + pass.invalid_why);
    }
    out.Add("setup_s", Median(pass.setup_s), "s");
    const std::vector<double> ref_ms = w.runs.ReferenceMs(w.track);
    out.Add("queries_per_s", PassRate(w, ref_ms), "1/ref_s");
    const std::vector<double> per_query = PerQueryMedians(w, ref_ms);
    out.Add("read_p50_ms", Median(per_query), "ref_ms");
    AddTail(&out, "read_p99_ms", TailRule(per_query), "ref_ms");
    const std::vector<double> writes =
        pass.probe.write_ms.ReferenceMs(pass.probe.track);
    out.Add("write_p50_ms", Median(writes), "ref_ms");
    AddTail(&out, "write_p99_ms", TailRule(writes), "ref_ms");
    out.Add("peak_rss_mb", pass.peak_rss_mb, "MiB");
    NoteClock(&out, w.runs.cpu_ms, ref_ms, w.track);
    out.Note("queries " + std::to_string(w.runs.size()) + " (" +
             std::to_string(per_query.size()) + " distinct), writes " +
             std::to_string(pass.probe.write_ms.size()) +
             " (library probe after the window), whole passes " +
             std::to_string(w.pass_ends.size()));
    NoteShares(&out, SharesBetween(w.start, w.end));
    return out;
  }

  // The untraced pass is the overhead baseline and runs the executor
  // replay, so the engine's own instrumentation does not time it.
  double untraced_qps = 0.0;
  LayerReport layers;
  {
    TailPass pass;
    RunTailPass(spec, in, args.seconds, 1, nullptr, nullptr, &pass);
    out.tally += pass.window.tally;
    if (pass.window.tally.invalid > 0) out.correct = false;
    untraced_qps =
        PassRate(pass.window, pass.window.runs.ReferenceMs(pass.window.track));
    layers.cpu_share =
        SharesBetween(pass.window.start, pass.window.end).cpu_share;
    ReplayExec(spec, in, *pass.stack, &layers);
  }
  ktg::obs::MetricsRegistry registry;
  SpanLog log;
  log.Reserve(1 << 16);
  TailPass pass;
  RunTailPass(spec, in, args.seconds, 1, &registry, &log, &pass);
  const TailWindow& w = pass.window;
  out.tally += w.tally;
  if (w.tally.invalid > 0) {
    out.correct = false;
    out.Note("validation: " + pass.invalid_why);
  }
  const double traced_qps = PassRate(w, w.runs.ReferenceMs(w.track));

  layers.datagen_build_s = SpanSeconds(log, "datagen.build");
  SpanLog replay_log;
  std::unique_ptr<ktg::InvertedIndex> index;
  std::unique_ptr<ktg::DistanceChecker> checker;
  const ktg::Status st = ReplayIndexLayers(
      spec, in, SampleQueries(in, 256), &replay_log, &layers, &index,
      &checker);
  if (!st.ok()) return st;
  // Build times come from the traced set-up, not the replay's rebuild.
  layers.inverted_index_build_s =
      SpanSeconds(log, "keywords.inverted_index_build");
  layers.index_build_s = SpanSeconds(log, "index.build");
  layers.engine = w.engine;

  layers.applies = pass.probe.infos;
  layers.overhead_frac =
      untraced_qps > 0 ? 1.0 - traced_qps / untraced_qps : 0.0;
  // No server and no cache on this workload: those layers report 0.
  for (const char* name :
       {"server.protocol.parse_us", "server.protocol.serialize_us"}) {
    out.Add(name, 0.0, "us");
  }
  for (const char* name :
       {"server.transport_ms.p50", "server.queue_ms.p50", "server.exec_ms.p50",
        "server.read_during_write_ms.p50"}) {
    out.Add(name, 0.0, "ms");
  }
  out.Add("server.coalesced_frac", 0.0, "ratio");
  AddLayerMetrics(layers, &out);
  NoteSelfTimes(&out, {log.spans(), replay_log.spans()});
  if (!args.trace_path.empty() &&
      !WriteSpans(args.trace_path, {log.spans(), replay_log.spans()})) {
    out.Note("could not write spans to " + args.trace_path);
  }
  return out;
}

}  // namespace perfbench
