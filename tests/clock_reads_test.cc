// Copyright (c) 2026 The ktg Authors.
// Clock reads per search: an unobserved exact run reads the clock a fixed
// number of times, however many nodes it expands, and an idle timer reads
// none. An observed run still times the k-line sub-phase, and observing a
// run changes no group and no counter. The executable defines
// clock_gettime itself, counts each call and forwards it to the C
// library's, so it is its own test binary.

#include <dlfcn.h>
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <ctime>
#include <memory>
#include <string>
#include <utility>

#include "core/ktg_engine.h"
#include "core/root_parallel.h"
#include "datagen/presets.h"
#include "datagen/query_gen.h"
#include "index/checker_factory.h"
#include "keywords/inverted_index.h"
#include "obs/metrics.h"
#include "obs/phase_timer.h"
#include "util/timer.h"

namespace {
std::atomic<uint64_t> g_clock_reads{0};
}  // namespace

extern "C" int clock_gettime(clockid_t clock, struct timespec* ts) noexcept {
  using Fn = int (*)(clockid_t, struct timespec*);
  static const Fn real =
      reinterpret_cast<Fn>(dlsym(RTLD_NEXT, "clock_gettime"));
  g_clock_reads.fetch_add(1, std::memory_order_relaxed);
  return real(clock, ts);
}

namespace ktg {
namespace {

// Reads per run allowed whatever the node count: the run frame, the phase
// timers and the workers' own clocks.
constexpr uint64_t kMaxReadsPerRun = 32;

struct Instance {
  AttributedGraph graph;
  KtgQuery query;
};

// A frequency-banded p=8, k=2 query on the gowalla preset at scale 0.05
// whose serial search expands about 1,600 nodes with the reachable-coverage
// ceiling and the residual clamp off, as on the benchmark's tail workload.
Instance HardInstance() {
  const auto spec = GetPreset("gowalla", 0.05);
  EXPECT_TRUE(spec.ok());
  if (!spec.ok()) return {};
  AttributedGraph g = BuildDataset(*spec);
  WorkloadOptions wopts;
  wopts.num_queries = 3;
  wopts.keyword_count = 6;
  wopts.group_size = 8;
  wopts.tenuity = 2;
  wopts.top_n = 5;
  wopts.frequency_banded = true;
  Rng rng(1);
  KtgQuery q = GenerateWorkload(g, wopts, rng).back();
  return {std::move(g), std::move(q)};
}

EngineOptions TailOptions(uint32_t threads) {
  EngineOptions options;
  options.ceiling_prune = false;
  options.residual_bound = false;
  options.num_threads = threads;
  return options;
}

struct CountedRun {
  KtgResult result;
  uint64_t clock_reads = 0;
};

CountedRun RunCounted(const Instance& inst, DistanceChecker& checker,
                      const InvertedIndex& index,
                      const EngineOptions& options) {
  const uint64_t before = g_clock_reads.load();
  auto r = RunKtg(inst.graph, index, checker, inst.query, options);
  const uint64_t reads = g_clock_reads.load() - before;
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  if (!r.ok()) return {};
  return {std::move(*r), reads};
}

// The count must see the library's reads, or a bound on it proves nothing.
TEST(ClockReadsTest, InterposerSeesStopwatchReads) {
  const uint64_t before = g_clock_reads.load();
  const Stopwatch watch;
  (void)watch.ElapsedMillis();
  EXPECT_GE(g_clock_reads.load() - before, 2u);
}

// A timer with nothing to time reads no clock: an unstarted stopwatch, a
// phase timer without a sink, and the run controls' idle run clock.
TEST(ClockReadsTest, IdleTimersReadNoClock) {
  const uint64_t before = g_clock_reads.load();
  const Stopwatch unstarted(Stopwatch::kUnstarted);
  obs::PhaseTimer timer(nullptr, obs::Phase::kKlineFilter);
  timer.Stop();
  const RunControls controls;
  EXPECT_EQ(g_clock_reads.load(), before);
}

TEST(ClockReadsTest, UnobservedRunsReadABoundedNumberOfTimes) {
  const Instance inst = HardInstance();
  const InvertedIndex index(inst.graph);
  const auto checker = MakeChecker(CheckerKind::kNlrnl, inst.graph.graph());
  for (const uint32_t threads : {1u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const CountedRun run =
        RunCounted(inst, *checker, index, TailOptions(threads));
    ASSERT_TRUE(run.result.stats.complete);
    ASSERT_GE(run.result.stats.nodes_expanded, 1000u)
        << "the instance must expand many nodes to tell the bound apart";
    EXPECT_LE(run.clock_reads, kMaxReadsPerRun)
        << run.result.stats.nodes_expanded << " nodes";
  }
}

// An observed run times the k-line sub-phase. Serially its groups and
// every counter equal the unobserved run's; on four workers, where node
// and check counts depend on when each worker sees the shared threshold,
// its coverage profile does.
TEST(ClockReadsTest, ObservedRunTimesTheSubPhaseAndMatches) {
  const Instance inst = HardInstance();
  const InvertedIndex index(inst.graph);
  const auto checker = MakeChecker(CheckerKind::kNlrnl, inst.graph.graph());
  for (const uint32_t threads : {1u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const EngineOptions plain = TailOptions(threads);
    obs::MetricsRegistry registry;
    EngineOptions observed = plain;
    observed.metrics = &registry;
    const CountedRun a = RunCounted(inst, *checker, index, plain);
    const CountedRun b = RunCounted(inst, *checker, index, observed);
    const SearchStats& s = a.result.stats;
    const SearchStats& t = b.result.stats;
    EXPECT_EQ(s.phases[obs::Phase::kKlineFilter], 0.0);
    EXPECT_GT(t.phases[obs::Phase::kKlineFilter], 0.0);
    EXPECT_EQ(registry.CounterValue("engine.nodes_expanded"), t.nodes_expanded);
    EXPECT_GT(b.clock_reads, a.clock_reads);
    ASSERT_EQ(a.result.groups.size(), b.result.groups.size());
    for (size_t i = 0; i < a.result.groups.size(); ++i) {
      EXPECT_EQ(a.result.groups[i].covered(), b.result.groups[i].covered());
      if (threads == 1) {
        EXPECT_EQ(a.result.groups[i].members, b.result.groups[i].members);
        EXPECT_EQ(a.result.groups[i].mask, b.result.groups[i].mask);
      }
    }
    EXPECT_EQ(s.candidates, t.candidates);
    EXPECT_EQ(s.upper_bound, t.upper_bound);
    EXPECT_EQ(s.gap, t.gap);
    EXPECT_EQ(s.complete, t.complete);
    if (threads == 1) {
      EXPECT_EQ(s.nodes_expanded, t.nodes_expanded);
      EXPECT_EQ(s.groups_completed, t.groups_completed);
      EXPECT_EQ(s.keyword_prunes, t.keyword_prunes);
      EXPECT_EQ(s.ub_prunes, t.ub_prunes);
      EXPECT_EQ(s.kline_filtered, t.kline_filtered);
      EXPECT_EQ(s.distance_checks, t.distance_checks);
    }
  }
}

}  // namespace
}  // namespace ktg
