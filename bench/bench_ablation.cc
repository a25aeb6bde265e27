// Copyright (c) 2026 The ktg Authors.
// Ablation study (beyond the paper's figures, for the design choices
// DESIGN.md calls out): contribution of each engine ingredient at the
// Table I defaults on the Gowalla-like dataset.
//
//   1. sorting strategy      — QKC vs VKC vs VKC-DEG (same checker);
//   2. keyword pruning       — Theorem 2 on/off;
//   3. k-line filtering      — eager (Theorem 3) vs lazy per-selection;
//   4. degree tie-break      — ascending (paper intent) vs descending
//                              (the paper's literal "descending" wording);
//   5. distance checker      — BFS vs NL vs NLRNL under the same engine.
// Reported: latency, branch-and-bound nodes, distance checks.

#include <cstdio>

#include "bench/common.h"

namespace ktg::bench {
namespace {

void Report(const std::string& section,
            const std::vector<std::pair<std::string, AlgoConfig>>& variants) {
  BenchDataset& ds = BenchDataset::Get("gowalla");
  PrintHeader("Ablation: " + section,
              ds.Summary() + "  [p=4, k=2, |W_Q|=6, N=5]");
  const bool repeated = BenchRepeats() > 1;
  std::vector<int> widths = {30, 12, 14, 16};
  std::vector<std::string> header = {"variant", "ms/query", "BB nodes",
                                     "dist checks"};
  if (repeated) {
    widths = {30, 12, 12, 12, 14, 16};
    header = {"variant", "ms/query", "min ms", "med ms", "BB nodes",
              "dist checks"};
  }
  PrintRow(header, widths);
  const auto workload =
      MakeWorkload(ds, kDefaultP, kDefaultK, kDefaultWq, kDefaultN);
  for (const auto& [label, config] : variants) {
    const auto m = RunBatch(ds, config, workload);
    if (repeated) {
      PrintRow({label, Fmt(m.avg_ms), Fmt(m.min_ms), Fmt(m.median_ms),
                Fmt(m.avg_nodes, 0), Fmt(m.avg_checks, 0)},
               widths);
    } else {
      PrintRow(
          {label, Fmt(m.avg_ms), Fmt(m.avg_nodes, 0), Fmt(m.avg_checks, 0)},
          widths);
    }
  }
}

AlgoConfig Base() {
  AlgoConfig c{"base", false, SortStrategy::kVkcDeg, CheckerKind::kNlrnl, {}};
  c.engine.max_nodes = 10'000'000;
  return c;
}

void RunAblation() {
  {
    auto qkc = Base();
    qkc.sort = SortStrategy::kQkc;
    auto vkc = Base();
    vkc.sort = SortStrategy::kVkc;
    Report("sorting strategy",
           {{"QKC (static sort)", qkc},
            {"VKC (re-sorted)", vkc},
            {"VKC-DEG (paper's best)", Base()}});
  }
  {
    auto off = Base();
    off.engine.keyword_pruning = false;
    Report("keyword pruning (Theorem 2)",
           {{"pruning ON", Base()}, {"pruning OFF", off}});
  }
  {
    auto lazy = Base();
    lazy.engine.eager_kline_filtering = false;
    Report("k-line filtering (Theorem 3)",
           {{"eager filtering (paper)", Base()},
            {"lazy per-selection checks", lazy}});
  }
  {
    auto desc = Base();
    desc.engine.degree_ascending = false;
    Report("degree tie-break direction",
           {{"ascending (small degree first)", Base()},
            {"descending (literal reading)", desc}});
  }
  {
    auto bfs = Base();
    bfs.checker = CheckerKind::kBfs;
    auto nl = Base();
    nl.checker = CheckerKind::kNl;
    auto bfs_per_pair = bfs;
    bfs_per_pair.engine.bulk_filtering = false;
    auto nlrnl_per_pair = Base();
    nlrnl_per_pair.engine.bulk_filtering = false;
    Report("distance checker",
           {{"BFS (k-line memo)", bfs},
            {"BFS (per-pair checks)", bfs_per_pair},
            {"NL", nl},
            {"NLRNL (k-line memo)", Base()},
            {"NLRNL (per-pair checks)", nlrnl_per_pair}});
  }
  {
    // Bound extensions vs the paper's engine: the reachable-coverage
    // ceiling and the residual suffix-union clamp.
    BenchDataset& ds = BenchDataset::Get("gowalla");
    PrintHeader("Ablation: engine family (library extensions)",
                ds.Summary() + "  [p=6, k=2, |W_Q|=6, N=5]");
    const std::vector<int> widths = {34, 12, 14, 16};
    PrintRow({"variant", "ms/query", "BB nodes", "dist checks"}, widths);
    const auto workload = MakeWorkload(ds, 6, kDefaultK, kDefaultWq,
                                       kDefaultN);

    auto paper = Base();
    paper.engine.ceiling_prune = false;
    paper.engine.residual_bound = false;
    const auto m1 = RunBatch(ds, paper, workload);
    PrintRow({"paper bound (Thm 2 only)", Fmt(m1.avg_ms),
              Fmt(m1.avg_nodes, 0), Fmt(m1.avg_checks, 0)},
             widths);

    auto ceiling_only = Base();
    ceiling_only.engine.residual_bound = false;
    const auto m2 = RunBatch(ds, ceiling_only, workload);
    PrintRow({"+ reachable-coverage ceiling", Fmt(m2.avg_ms),
              Fmt(m2.avg_nodes, 0), Fmt(m2.avg_checks, 0)},
             widths);

    const auto m3 = RunBatch(ds, Base(), workload);
    PrintRow({"+ residual suffix-union clamp", Fmt(m3.avg_ms),
              Fmt(m3.avg_nodes, 0), Fmt(m3.avg_checks, 0)},
             widths);
  }
}

}  // namespace
}  // namespace ktg::bench

int main(int argc, char** argv) {
  ktg::bench::ConsumeThreadsFlag(&argc, argv);
  ktg::bench::InstallBenchSignalFlush("bench_ablation");
  ktg::bench::ConsumeRepeatFlag(&argc, argv);
  ktg::bench::RunAblation();
  ktg::bench::WriteMetricsSidecar("bench_ablation");
  return 0;
}
