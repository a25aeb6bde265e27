// Copyright (c) 2026 The ktg Authors.
// Observability layer: metrics registry (including exactness under the
// thread pool — run under `ctest -L tsan` with KTG_SANITIZE=thread),
// phase-timer nesting, the query-trace ring, and the engine wiring that
// mirrors SearchStats into a registry.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/candidates.h"
#include "core/conflict_graph_engine.h"
#include "core/ktg_engine.h"
#include "core/obs_bridge.h"
#include "core/paper_example.h"
#include "heur/portfolio.h"
#include "index/bfs_checker.h"
#include "index/checker_factory.h"
#include "keywords/inverted_index.h"
#include "obs/metrics.h"
#include "obs/phase_timer.h"
#include "obs/phases.h"
#include "obs/schema_check.h"
#include "obs/query_trace.h"
#include "util/thread_pool.h"

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

TEST(MetricsRegistryTest, CountersExactUnderThreadPool) {
  MetricsRegistry reg;
  constexpr uint32_t kWorkers = 8;
  constexpr uint64_t kPerWorker = 20'000;
  Counter& shared = reg.counter("shared");
  Histogram& hist = reg.histogram("latency");
  ThreadPool pool(kWorkers);
  for (uint32_t w = 0; w < kWorkers; ++w) {
    pool.Submit([&reg, &shared, &hist, w] {
      for (uint64_t i = 0; i < kPerWorker; ++i) {
        shared.Add();
        hist.Record(static_cast<double>(w) + 1.0);
        // Lookup path raced too: every worker also resolves by name.
        reg.counter("by_name").Add();
      }
      reg.gauge("last_worker").Set(static_cast<double>(w));
    });
  }
  pool.Wait();
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

// One run flushed into `reg` under `prefix` agrees with its SearchStats.
void ExpectRunFlushed(const MetricsRegistry& reg, const std::string& prefix,
                      const SearchStats& s) {
  EXPECT_EQ(reg.CounterValue(prefix + ".queries"), 1u);
  EXPECT_EQ(reg.CounterValue(prefix + ".candidates"), s.candidates);
  EXPECT_EQ(reg.CounterValue(prefix + ".nodes_expanded"), s.nodes_expanded);
  EXPECT_EQ(reg.CounterValue(prefix + ".groups_completed"),
            s.groups_completed);
  EXPECT_EQ(reg.CounterValue(prefix + ".prune.keyword"), s.keyword_prunes);
  EXPECT_EQ(reg.CounterValue(prefix + ".prune.ub"), s.ub_prunes);
  EXPECT_EQ(reg.CounterValue(prefix + ".prune.kline"), s.kline_filtered);
  EXPECT_EQ(reg.CounterValue(prefix + ".distance_checks"), s.distance_checks);
}

// The engine wiring: counters flushed into an attached registry must agree
// exactly with the SearchStats the engine returns (for the paper's engine,
// the conflict engine and the portfolio), and an attached trace must
// narrate the search.
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

  ExpectRunFlushed(reg, "engine", s);

  // Detail stats were enabled on attach. BFS answers mostly through the
  // bulk BallWithinK path whose traversals count as checks but toward
  // neither verdict, so farther + within only bounds checks from below.
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

  // Same partition for the conflict engine's root-parallel path, whose
  // elapsed_ms is read after the driver's pool has joined.
  ConflictEngineOptions copts;
  copts.num_threads = 4;
  const auto c = RunKtgConflictGraph(g, idx, checker, q, copts);
  ASSERT_TRUE(c.ok());
  EXPECT_GT(c->stats.phases[Phase::kBbSearch], 0.0);
  EXPECT_LE(c->stats.phases.TopLevelTotalMs(), c->stats.elapsed_ms + 0.5);

  // The conflict engine and the portfolio flush the same family under
  // their own prefixes.
  MetricsRegistry conflict_reg;
  ConflictEngineOptions conflict_opts;
  conflict_opts.metrics = &conflict_reg;
  const auto cr = RunKtgConflictGraph(g, idx, checker, q, conflict_opts);
  ASSERT_TRUE(cr.ok());
  ExpectRunFlushed(conflict_reg, "conflict", cr->stats);

  MetricsRegistry portfolio_reg;
  heur::PortfolioOptions portfolio_opts;
  portfolio_opts.num_threads = 1;
  portfolio_opts.metrics = &portfolio_reg;
  const auto pr = heur::RunKtgPortfolio(g, idx, checker, q, portfolio_opts);
  ASSERT_TRUE(pr.ok());
  ExpectRunFlushed(portfolio_reg, "portfolio", pr->stats);

  // Query vertices shrink S_R by their k-neighbourhoods, and every engine
  // counts those exclusions as k-line removals: the conflict engine's
  // kline_filtered is its conflict edges plus the excluded count, and the
  // portfolio (same candidates, same adjacency) reports the same total.
  KtgQuery with_vertices = q;
  with_vertices.query_vertices = {0};
  uint64_t excluded = 0;
  ExtractCandidates(g, idx, with_vertices, checker, &excluded);
  ASSERT_GT(excluded, 0u);
  MetricsRegistry vertex_reg;
  ConflictEngineOptions vertex_opts;
  vertex_opts.metrics = &vertex_reg;
  const auto vr =
      RunKtgConflictGraph(g, idx, checker, with_vertices, vertex_opts);
  ASSERT_TRUE(vr.ok());
  ExpectRunFlushed(vertex_reg, "conflict", vr->stats);
  EXPECT_EQ(vr->stats.kline_filtered,
            vertex_reg.CounterValue("kernel.conflict.edges") + excluded);
  const auto vp =
      heur::RunKtgPortfolio(g, idx, checker, with_vertices, portfolio_opts);
  ASSERT_TRUE(vp.ok());
  EXPECT_EQ(vp->stats.kline_filtered, vr->stats.kline_filtered);
}

// Per-pair checkers (no bulk path) keep the strict invariant: every check
// lands in exactly one of farther/within, and every check probes the index.
TEST(ObsWiringTest, PerPairCheckerVerdictsPartitionChecks) {
  const AttributedGraph g = PaperExampleGraph();
  const InvertedIndex idx(g);
  const auto checker = MakeChecker(CheckerKind::kNlrnl, g.graph(), 2);
  ASSERT_NE(checker, nullptr);
  const KtgQuery q = PaperExampleQuery(g);

  MetricsRegistry reg;
  EngineOptions opts;
  opts.metrics = &reg;
  const auto r = RunKtg(g, idx, *checker, q, opts);
  ASSERT_TRUE(r.ok());

  const uint64_t checks = reg.CounterValue("checker.NLRNL.checks");
  EXPECT_GT(checks, 0u);
  EXPECT_EQ(reg.CounterValue("checker.NLRNL.farther") +
                reg.CounterValue("checker.NLRNL.within"),
            checks);
  EXPECT_GE(reg.CounterValue("checker.NLRNL.probes"), checks);
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
