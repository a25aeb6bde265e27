// Copyright (c) 2026 The ktg Authors.
// Observability layer: metrics registry (including exactness under
// parallel workers — run under `ctest -L tsan` with KTG_SANITIZE=thread),
// phase-timer nesting, the query-trace ring, and the engine wiring that
// mirrors SearchStats into a registry.

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "core/brute_force.h"
#include "core/candidates.h"
#include "core/greedy_heuristic.h"
#include "core/ktg_engine.h"
#include "core/obs_bridge.h"
#include "core/paper_example.h"
#include "datagen/generators.h"
#include "datagen/keyword_assigner.h"
#include "datagen/query_gen.h"
#include "index/bfs_checker.h"
#include "index/checker_factory.h"
#include "keywords/inverted_index.h"
#include "obs/metrics.h"
#include "obs/phase_timer.h"
#include "obs/phases.h"
#include "obs/schema_check.h"
#include "obs/query_trace.h"
#include "util/executor.h"

namespace ktg::obs {
namespace {

TEST(MetricsRegistryTest, CountersGaugesHistograms) {
  MetricsRegistry reg;
  reg.counter("c").Add();
  reg.counter("c").Add(4);
  EXPECT_EQ(reg.counter("c").value(), 5u);
  EXPECT_EQ(reg.CounterValue("c"), 5u);
  EXPECT_EQ(reg.CounterValue("never_touched"), 0u);

  reg.gauge("g").Set(2.5);
  reg.gauge("g").Set(-1.0);  // last write wins
  EXPECT_DOUBLE_EQ(reg.gauge("g").value(), -1.0);

  Histogram& h = reg.histogram("h");
  h.Record(1.0);
  h.Record(2.0);
  h.Record(4.0);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.sum(), 7.0);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 4.0);
  // Log-scale estimate: p50 must land within a factor sqrt(2) of the true
  // median (2.0).
  const double p50 = h.Quantile(0.5);
  EXPECT_GT(p50, 2.0 / 1.5);
  EXPECT_LT(p50, 2.0 * 1.5);
}

TEST(MetricsRegistryTest, StableAddressesAcrossInserts) {
  MetricsRegistry reg;
  Counter& first = reg.counter("first");
  for (int i = 0; i < 100; ++i) {
    reg.counter("filler_" + std::to_string(i)).Add();
  }
  EXPECT_EQ(&first, &reg.counter("first"));
}

TEST(MetricsRegistryTest, CountersExactUnderParallelFor) {
  MetricsRegistry reg;
  constexpr uint32_t kWorkers = 8;
  constexpr uint64_t kPerWorker = 20'000;
  Counter& shared = reg.counter("shared");
  Histogram& hist = reg.histogram("latency");
  ParallelFor(kWorkers, 0, kWorkers, 1, [&](uint64_t begin, uint64_t end) {
    for (uint64_t w = begin; w < end; ++w) {
      for (uint64_t i = 0; i < kPerWorker; ++i) {
        shared.Add();
        hist.Record(static_cast<double>(w) + 1.0);
        // Lookup path raced too: every worker also resolves by name.
        reg.counter("by_name").Add();
      }
      reg.gauge("last_worker").Set(static_cast<double>(w));
    }
  });
  EXPECT_EQ(shared.value(), kWorkers * kPerWorker);
  EXPECT_EQ(reg.CounterValue("by_name"), kWorkers * kPerWorker);
  EXPECT_EQ(hist.count(), kWorkers * kPerWorker);
  EXPECT_DOUBLE_EQ(hist.min(), 1.0);
  EXPECT_DOUBLE_EQ(hist.max(), static_cast<double>(kWorkers));
}

TEST(MetricsRegistryTest, JsonSchema) {
  MetricsRegistry reg;
  reg.counter("engine.queries").Add();
  reg.gauge("threads").Set(4);
  reg.histogram("query_ms").Record(1.25);
  const std::string json = reg.ToJson();
  for (const char* needle :
       {"\"schema\":\"ktg.metrics.v1\"", "\"counters\":", "\"gauges\":",
        "\"histograms\":", "\"engine.queries\":1", "\"threads\":4",
        "\"query_ms\":", "\"count\":1", "\"p50\":", "\"p99\":", "\"sum\":"}) {
    EXPECT_NE(json.find(needle), std::string::npos) << needle << "\n" << json;
  }
  const auto problems = ktg::obs::CheckMetricsV1(json);
  EXPECT_TRUE(problems.empty()) << problems.front();
}

// A perfbench ledger: the summary must restate its runs exactly.
TEST(BenchLedgerSchemaTest, SummaryMustAgreeWithRuns) {
  const auto ledger = [](const std::string& median) {
    return std::string(R"({"schema":"ktg.bench.v1","command":"run.py",)") +
           R"("nproc":4,"parent":{"commit":"a"},"change":{"commit":"b"},)" +
           R"("workloads":{"w":{"parent":{"runs":[)" +
           R"({"seed":1,"correct":true,"attempted":9,"failed":0,)" +
           R"("metrics":{"q":1}},{"seed":2,"correct":true,"attempted":9,)" +
           R"("failed":0,"metrics":{"q":2}},{"seed":3,"correct":true,)" +
           R"("attempted":9,"failed":0,"metrics":{"q":4}}],)" +
           R"("summary":{"q":{"n":3,"min":1,"median":)" + median +
           R"(,"rel_spread":0.75}}},"change":{"runs":[{"seed":1,)" +
           R"("correct":true,"attempted":9,"failed":0,"metrics":{"q":5}}],)" +
           R"("summary":{"q":{"n":1,"min":5,"median":5,"rel_spread":0}}}}}})";
  };
  const auto good = ktg::obs::CheckAnyKnownSchema(ledger("2"));
  EXPECT_TRUE(good.empty()) << good.front();
  const auto bad = ktg::obs::CheckBenchV1(ledger("3"));
  ASSERT_EQ(bad.size(), 1u);
  EXPECT_NE(bad.front().find("median"), std::string::npos) << bad.front();
  EXPECT_FALSE(ktg::obs::CheckBenchV1(R"({"schema":"ktg.bench.v1"})").empty());
}

TEST(PhaseTimerTest, NullSinkIsNoOp) {
  PhaseTimer timer(nullptr, Phase::kBbSearch);
  timer.Stop();  // must not crash or touch anything
}

TEST(PhaseTimerTest, NestedTimersAttributeToBoth) {
  PhaseBreakdown sink;
  {
    PhaseTimer outer(&sink, Phase::kBbSearch);
    {
      PhaseTimer inner(&sink, Phase::kKlineFilter);
      // Spin until some measurable time passes.
      Stopwatch w;
      while (w.ElapsedMillis() < 1.0) {
      }
    }
  }
  EXPECT_GT(sink[Phase::kKlineFilter], 0.0);
  // Sub-phase semantics: the outer scope contains the inner one.
  EXPECT_GE(sink[Phase::kBbSearch], sink[Phase::kKlineFilter]);
  EXPECT_DOUBLE_EQ(sink[Phase::kCandidateGen], 0.0);
}

TEST(PhaseTimerTest, StopIsIdempotentAndEarly) {
  PhaseBreakdown sink;
  PhaseTimer timer(&sink, Phase::kTopNMerge);
  timer.Stop();
  const double after_first = sink[Phase::kTopNMerge];
  Stopwatch w;
  while (w.ElapsedMillis() < 1.0) {
  }
  timer.Stop();  // second Stop (and the destructor later) add nothing
  EXPECT_DOUBLE_EQ(sink[Phase::kTopNMerge], after_first);
}

TEST(PhaseBreakdownTest, TopLevelTotalExcludesSubPhase) {
  PhaseBreakdown b;
  b[Phase::kCandidateGen] = 1.0;
  b[Phase::kBbSearch] = 2.0;
  b[Phase::kKlineFilter] = 1.5;  // inside kBbSearch, not double-counted
  b[Phase::kTopNMerge] = 0.5;
  EXPECT_DOUBLE_EQ(b.TopLevelTotalMs(), 3.5);
}

TEST(PhaseNamesTest, EveryPhaseHasAName) {
  for (int i = 0; i < kNumPhases; ++i) {
    const char* name = PhaseName(static_cast<Phase>(i));
    ASSERT_NE(name, nullptr);
    EXPECT_GT(std::string(name).size(), 0u);
  }
}

TEST(QueryTraceTest, RecordsInOrder) {
  QueryTrace trace(8);
  trace.Record(TraceEventKind::kExpand, 1, 10, 5);
  trace.Record(TraceEventKind::kOffer, 2, 11, 3);
  const auto events = trace.Snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].kind, TraceEventKind::kExpand);
  EXPECT_EQ(events[0].depth, 1u);
  EXPECT_EQ(events[0].vertex, 10u);
  EXPECT_EQ(events[0].detail, 5);
  EXPECT_EQ(events[1].kind, TraceEventKind::kOffer);
  EXPECT_GE(events[1].t_ms, events[0].t_ms);
  EXPECT_EQ(trace.total_recorded(), 2u);
  EXPECT_EQ(trace.dropped(), 0u);
}

TEST(QueryTraceTest, RingKeepsTheTail) {
  QueryTrace trace(4);
  for (int i = 0; i < 10; ++i) {
    trace.Record(TraceEventKind::kNote, 0, 0, i);
  }
  EXPECT_EQ(trace.total_recorded(), 10u);
  EXPECT_EQ(trace.dropped(), 6u);
  const auto events = trace.Snapshot();
  ASSERT_EQ(events.size(), 4u);
  // Oldest-first snapshot of the newest 4 events.
  EXPECT_EQ(events[0].detail, 6);
  EXPECT_EQ(events[3].detail, 9);
}

TEST(QueryTraceTest, ClearRestarts) {
  QueryTrace trace(4);
  trace.Record(TraceEventKind::kNote, 0, 0, 1);
  trace.Clear();
  EXPECT_EQ(trace.total_recorded(), 0u);
  EXPECT_TRUE(trace.Snapshot().empty());
}

TEST(QueryTraceTest, JsonSchema) {
  QueryTrace trace(16);
  trace.Record(TraceEventKind::kKeywordPrune, 2, 7, 42);
  const std::string json = trace.ToJson();
  for (const char* needle :
       {"\"schema\":\"ktg.trace.v1\"", "\"capacity\":16", "\"recorded\":1",
        "\"dropped\":0", "\"events\":", "\"kind\":\"keyword_prune\"",
        "\"depth\":2", "\"vertex\":7", "\"detail\":42"}) {
    EXPECT_NE(json.find(needle), std::string::npos) << needle << "\n" << json;
  }
  const auto problems = ktg::obs::CheckTraceV1(json);
  EXPECT_TRUE(problems.empty()) << problems.front();
}

// One run flushed into `reg` agrees with its SearchStats.
void ExpectRunFlushed(const MetricsRegistry& reg, const SearchStats& s) {
  EXPECT_EQ(reg.CounterValue("engine.queries"), 1u);
  EXPECT_EQ(reg.CounterValue("engine.candidates"), s.candidates);
  EXPECT_EQ(reg.CounterValue("engine.nodes_expanded"), s.nodes_expanded);
  EXPECT_EQ(reg.CounterValue("engine.groups_completed"), s.groups_completed);
  EXPECT_EQ(reg.CounterValue("engine.prune.keyword"), s.keyword_prunes);
  EXPECT_EQ(reg.CounterValue("engine.prune.ub"), s.ub_prunes);
  EXPECT_EQ(reg.CounterValue("engine.prune.kline"), s.kline_filtered);
  EXPECT_EQ(reg.CounterValue("engine.distance_checks"), s.distance_checks);
}

// The engine wiring: counters flushed into an attached registry must agree
// exactly with the SearchStats the engine returns, and an attached trace
// must narrate the search.
TEST(ObsWiringTest, RegistryMatchesSearchStats) {
  const AttributedGraph g = PaperExampleGraph();
  const InvertedIndex idx(g);
  BfsChecker checker(g.graph());
  const KtgQuery q = PaperExampleQuery(g);

  MetricsRegistry reg;
  QueryTrace trace;
  EngineOptions opts;
  opts.metrics = &reg;
  opts.trace = &trace;
  const auto r = RunKtg(g, idx, checker, q, opts);
  ASSERT_TRUE(r.ok());
  const SearchStats& s = r->stats;

  ExpectRunFlushed(reg, s);

  // Detail stats were enabled on attach. BFS answers through the k-line
  // memo like every checker: each pair check lands in one verdict, but a
  // row filled from the graph counts as a check toward neither, so
  // farther + within only bounds checks from below.
  EXPECT_LE(reg.CounterValue("checker.BFS.farther") +
                reg.CounterValue("checker.BFS.within"),
            reg.CounterValue("checker.BFS.checks"));
  EXPECT_EQ(reg.CounterValue("checker.BFS.checks"), s.distance_checks);

  // The trace narrates the search: at least one expansion and one offer.
  uint64_t expands = 0, offers = 0;
  for (const auto& e : trace.Snapshot()) {
    expands += e.kind == TraceEventKind::kExpand;
    offers += e.kind == TraceEventKind::kOffer;
  }
  EXPECT_GT(expands, 0u);
  EXPECT_EQ(offers, s.groups_completed);

  // Phase attribution covers the measured wall-clock (same clocks, so the
  // partition can only undershoot by timer overhead).
  EXPECT_GT(s.phases[Phase::kBbSearch], 0.0);
  EXPECT_LE(s.phases.TopLevelTotalMs(), s.elapsed_ms + 0.5);

  // Same partition for the root-parallel path, whose elapsed_ms is read
  // after the driver's pool has joined (NLRNL is concurrent-read-safe, so
  // four threads really split the roots).
  const auto nlrnl = MakeChecker(CheckerKind::kNlrnl, g.graph());
  EngineOptions parallel_opts;
  parallel_opts.num_threads = 4;
  const auto pr = RunKtg(g, idx, *nlrnl, q, parallel_opts);
  ASSERT_TRUE(pr.ok());
  ASSERT_GT(pr->stats.candidates, q.group_size) << "must run parallel";
  EXPECT_GT(pr->stats.phases[Phase::kBbSearch], 0.0);
  EXPECT_LE(pr->stats.phases.TopLevelTotalMs(), pr->stats.elapsed_ms + 0.5);

  // checker.<name>.checks is the run's own check tally, so it equals
  // distance_checks on the memo path (a row filled from the graph counts
  // as one), serially and on four workers.
  for (const CheckerKind kind : {CheckerKind::kBfs, CheckerKind::kNlrnl}) {
    const auto run_checker = MakeChecker(kind, g.graph());
    for (const uint32_t threads : {1u, 4u}) {
      MetricsRegistry run_reg;
      EngineOptions run_opts;
      run_opts.metrics = &run_reg;
      run_opts.num_threads = threads;
      const auto rr = RunKtg(g, idx, *run_checker, q, run_opts);
      ASSERT_TRUE(rr.ok());
      ExpectRunFlushed(run_reg, rr->stats);
      EXPECT_GT(rr->stats.distance_checks, 0u);
      EXPECT_EQ(run_reg.CounterValue("checker." + run_checker->name() +
                                     ".checks"),
                rr->stats.distance_checks)
          << run_checker->name() << " threads=" << threads;
    }
  }

  // Query vertices shrink S_R by their k-neighbourhoods, and the engine
  // counts those exclusions as k-line removals. With lazy feasibility
  // checks the search itself removes nothing, so the exclusions are the
  // whole count.
  KtgQuery with_vertices = q;
  with_vertices.query_vertices = {0};
  uint64_t excluded = 0;
  ExtractCandidates(g, idx, with_vertices, checker, &excluded);
  ASSERT_GT(excluded, 0u);
  MetricsRegistry vertex_reg;
  EngineOptions vertex_opts;
  vertex_opts.metrics = &vertex_reg;
  vertex_opts.eager_kline_filtering = false;
  const auto vr = RunKtg(g, idx, checker, with_vertices, vertex_opts);
  ASSERT_TRUE(vr.ok());
  ExpectRunFlushed(vertex_reg, vr->stats);  // engine.prune.kline included
  EXPECT_EQ(vr->stats.kline_filtered, excluded);
}

// Per-pair checks keep the strict invariant: every check lands in exactly
// one of farther/within, and every check probes the index. On the bulk
// path a k-line row filled from the graph counts one check that reaches
// neither.
TEST(ObsWiringTest, PerPairCheckerVerdictsPartitionChecks) {
  const AttributedGraph g = PaperExampleGraph();
  const InvertedIndex idx(g);
  const auto checker = MakeChecker(CheckerKind::kNlrnl, g.graph());
  ASSERT_NE(checker, nullptr);
  const KtgQuery q = PaperExampleQuery(g);

  for (const bool bulk : {false, true}) {
    MetricsRegistry reg;
    EngineOptions opts;
    opts.metrics = &reg;
    opts.bulk_filtering = bulk;
    const auto r = RunKtg(g, idx, *checker, q, opts);
    ASSERT_TRUE(r.ok());

    const uint64_t checks = reg.CounterValue("checker.NLRNL.checks");
    const uint64_t verdicts = reg.CounterValue("checker.NLRNL.farther") +
                              reg.CounterValue("checker.NLRNL.within");
    EXPECT_GT(checks, 0u);
    EXPECT_EQ(checks, r->stats.distance_checks);
    if (bulk) {
      EXPECT_LT(verdicts, checks);  // the graph filled some rows
    } else {
      EXPECT_EQ(verdicts, checks);
      EXPECT_GE(reg.CounterValue("checker.NLRNL.probes"), checks);
    }
  }
}

// Runs sharing one checker at the same time each count only their own
// checks: a result's distance_checks is that run's tally, never a delta of
// the shared checker's counter. Two threads run the same queries at once
// and must see exactly the counts of solo serial runs.
TEST(ObsWiringTest, ConcurrentRunsOnOneCheckerCountOnlyTheirOwnChecks) {
  Rng rng(0x7A11);
  KeywordModel model;
  model.vocabulary_size = 16;
  model.min_per_vertex = 1;
  model.max_per_vertex = 3;
  const AttributedGraph g =
      AssignKeywords(BarabasiAlbert(150, 2, rng), model, rng);
  const InvertedIndex idx(g);
  WorkloadOptions wopts;
  wopts.num_queries = 8;
  wopts.keyword_count = 5;
  wopts.group_size = 3;
  wopts.tenuity = 2;
  wopts.top_n = 3;
  const auto queries = GenerateWorkload(g, wopts, rng);
  const auto checker = MakeChecker(CheckerKind::kNlrnl, g.graph());

  // Per query: the exact engine's, greedy's and brute force's checks.
  using Counts = std::vector<uint64_t>;
  const auto run_all = [&] {
    Counts counts;
    for (const KtgQuery& q : queries) {
      const auto exact = RunKtg(g, idx, *checker, q);
      const auto greedy = RunKtgGreedy(g, idx, *checker, q);
      const auto brute = BruteForceKtg(g, idx, *checker, q);
      if (!exact.ok() || !greedy.ok() || !brute.ok()) return Counts{};
      counts.push_back(exact->stats.distance_checks);
      counts.push_back(greedy->stats.distance_checks);
      counts.push_back(brute->stats.distance_checks);
    }
    return counts;
  };
  const Counts solo = run_all();
  ASSERT_EQ(solo.size(), 3 * queries.size());

  constexpr int kPasses = 3;
  std::vector<std::vector<Counts>> seen(2);
  std::vector<std::thread> threads;
  for (auto& mine : seen) {
    threads.emplace_back([&] {
      for (int pass = 0; pass < kPasses; ++pass) mine.push_back(run_all());
    });
  }
  for (auto& t : threads) t.join();
  for (const auto& mine : seen) {
    for (const Counts& counts : mine) EXPECT_EQ(counts, solo);
  }
}

TEST(ObsWiringTest, DisabledPathRecordsNothing) {
  const AttributedGraph g = PaperExampleGraph();
  const InvertedIndex idx(g);
  BfsChecker checker(g.graph());
  const KtgQuery q = PaperExampleQuery(g);
  const auto r = RunKtg(g, idx, checker, q);  // no registry, no trace
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(checker.detail_stats_enabled());
  EXPECT_EQ(checker.num_farther(), 0u);
  EXPECT_EQ(checker.num_within(), 0u);
  // Top-level phases still measured (they are plain Stopwatch reads on
  // cold paths), but per-node k-line timing stays off.
  EXPECT_DOUBLE_EQ(r->stats.phases[Phase::kKlineFilter], 0.0);
}

}  // namespace
}  // namespace ktg::obs
