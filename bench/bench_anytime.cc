// Copyright (c) 2026 The ktg Authors.
// Anytime quality curves: best-so-far coverage and the sound optimality
// gap as a function of search budget, per dataset.
//
// Not a paper figure — this bench shows the anytime mode at bench scale:
// under a node-budget sweep the mean reported gap of kAnytime runs shrinks
// monotonically to 0 as the budget grows (the deterministic curve
// tests/anytime_test.cc checks at unit scale). Workload is deliberately
// harder than the Table I defaults (p=6, |W_Q|=8) so that small budgets
// actually truncate.
//
// Series:
//   anytime nodes=B     — kAnytime, max_nodes=B (deterministic)
//
// Columns per budget: mean gap, mean best coverage, truncated fraction,
// mean latency (ms).

#include <cstdint>
#include <vector>

#include "bench/common.h"
#include "util/timer.h"

namespace ktg::bench {
namespace {

constexpr uint32_t kHardP = 6;
constexpr uint32_t kHardWq = 8;

struct QualityPoint {
  double mean_gap = 0.0;
  double mean_best = 0.0;
  double truncated_fraction = 0.0;
  double avg_ms = 0.0;
};

QualityPoint RunAnytime(BenchDataset& ds, const std::vector<KtgQuery>& queries,
                        uint64_t max_nodes) {
  EngineOptions opts;
  opts.mode = EngineMode::kAnytime;
  opts.max_nodes = max_nodes;
  opts.metrics = &Metrics();
  DistanceChecker& checker = ds.Checker(CheckerKind::kNlrnl);
  KtgEngine engine(ds.graph(), ds.index(), checker, opts);

  QualityPoint point;
  Stopwatch timer;
  for (const KtgQuery& q : queries) {
    auto result = engine.Run(q);
    if (!result.ok()) continue;
    point.mean_gap += result->stats.gap;
    point.mean_best +=
        result->groups.empty() ? 0 : result->groups.front().covered();
    if (!engine.last_run_complete()) point.truncated_fraction += 1.0;
  }
  point.avg_ms = timer.ElapsedMillis() / queries.size();
  point.mean_gap /= queries.size();
  point.mean_best /= queries.size();
  point.truncated_fraction /= queries.size();
  return point;
}

void PrintPoints(const std::string& label,
                 const std::vector<std::pair<uint64_t, QualityPoint>>& curve) {
  std::vector<int> widths = {24, 10, 10, 10, 12};
  for (const auto& [budget, p] : curve) {
    PrintRow({label + "=" + std::to_string(budget), Fmt(p.mean_gap),
              Fmt(p.mean_best), Fmt(p.truncated_fraction),
              Fmt(p.avg_ms)},
             widths);
  }
}

void RunFigure() {
  const std::vector<std::string> datasets = {"gowalla", "brightkite"};
  const std::vector<uint64_t> node_budgets = {2, 8, 32, 256, 4096, 0};

  for (const auto& name : datasets) {
    BenchDataset& ds = BenchDataset::Get(name);
    PrintHeader("Anytime quality (" + name + "): gap vs budget",
                ds.Summary() + "  [p=" + std::to_string(kHardP) +
                    ", k=2, |W_Q|=" + std::to_string(kHardWq) +
                    ", N=" + std::to_string(kDefaultN) + "; budget 0 = off]");
    const auto workload =
        MakeWorkload(ds, kHardP, kDefaultK, kHardWq, kDefaultN);

    std::vector<int> widths = {24, 10, 10, 10, 12};
    PrintRow({"series", "gap", "best", "trunc", "ms"}, widths);

    std::vector<std::pair<uint64_t, QualityPoint>> curve;
    for (uint64_t b : node_budgets) {
      curve.emplace_back(b, RunAnytime(ds, workload, b));
    }
    PrintPoints("anytime nodes", curve);
  }
}

}  // namespace
}  // namespace ktg::bench

int main(int argc, char** argv) {
  ktg::bench::ConsumeThreadsFlag(&argc, argv);
  ktg::bench::InstallBenchSignalFlush("bench_anytime");
  ktg::bench::ConsumeRepeatFlag(&argc, argv);
  ktg::bench::RunFigure();
  ktg::bench::WriteMetricsSidecar("bench_anytime");
  return 0;
}
