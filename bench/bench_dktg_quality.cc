// Copyright (c) 2026 The ktg Authors.
// DKTG quality study (companion to Section VI and the Example 3
// discussion): how diversified are DKTG-Greedy's results versus the plain
// KTG top-N for the same queries, across N and γ.
//
// Reported per point: diversity dL(RG) (Eq. 3), min-coverage, and the total
// score (Eq. 4) for both result sets. Expected shape: KTG's top-N overlaps
// heavily (dL well below 1); DKTG-Greedy returns pairwise-disjoint groups
// (dL = 1) at a small min-coverage cost.

#include <cstdio>

#include "bench/common.h"
#include "core/diversity.h"

namespace ktg::bench {
namespace {

void RunQualityStudy() {
  BenchDataset& ds = BenchDataset::Get("gowalla");
  DistanceChecker& checker = ds.Checker(CheckerKind::kNlrnl);

  PrintHeader("DKTG quality: diversity and score vs N (gamma = 0.5)",
              ds.Summary() + "  [p=4, k=2, |W_Q|=6]");
  {
    const std::vector<int> widths = {6, 10, 10, 12, 12, 12, 12};
    PrintRow({"N", "KTG dL", "DKTG dL", "KTG minQKC", "DKTG minQKC",
              "KTG score", "DKTG score"},
             widths);
    for (const uint32_t n : {3u, 5u, 7u, 9u, 11u}) {
      const auto workload =
          MakeWorkload(ds, kDefaultP, kDefaultK, kDefaultWq, n);
      double ktg_dl = 0, dktg_dl = 0, ktg_min = 0, dktg_min = 0,
             ktg_score = 0, dktg_score = 0;
      uint32_t counted = 0;
      for (const auto& query : workload) {
        const auto ktg = RunKtg(ds.graph(), ds.index(), checker, query);
        const auto dktg =
            RunDktgGreedy(ds.graph(), ds.index(), checker, query);
        KTG_CHECK(ktg.ok() && dktg.ok());
        if (ktg->groups.empty() || dktg->groups.empty()) continue;
        ++counted;
        double mn = 1.0;
        for (const auto& g : ktg->groups) {
          mn = std::min(mn, QkcRatio(g, query.num_keywords()));
        }
        ktg_dl += AverageDiversity(ktg->groups);
        ktg_min += mn;
        ktg_score += DktgScore(ktg->groups, query.num_keywords(), 0.5);
        dktg_dl += dktg->diversity;
        dktg_min += dktg->min_coverage;
        dktg_score += dktg->score;
      }
      if (counted == 0) continue;
      const double c = counted;
      PrintRow({std::to_string(n), Fmt(ktg_dl / c, 3), Fmt(dktg_dl / c, 3),
                Fmt(ktg_min / c, 3), Fmt(dktg_min / c, 3),
                Fmt(ktg_score / c, 3), Fmt(dktg_score / c, 3)},
               widths);
    }
  }

  PrintHeader("DKTG quality: score vs gamma (N = 5)",
              "score = gamma*minQKC + (1-gamma)*dL  (Eq. 4)");
  {
    const std::vector<int> widths = {8, 12, 12};
    PrintRow({"gamma", "KTG score", "DKTG score"}, widths);
    const auto workload =
        MakeWorkload(ds, kDefaultP, kDefaultK, kDefaultWq, kDefaultN);
    for (const double gamma : {0.0, 0.25, 0.5, 0.75, 1.0}) {
      double ktg_score = 0, dktg_score = 0;
      uint32_t counted = 0;
      for (const auto& query : workload) {
        const auto ktg = RunKtg(ds.graph(), ds.index(), checker, query);
        DktgOptions dopts;
        dopts.gamma = gamma;
        const auto dktg =
            RunDktgGreedy(ds.graph(), ds.index(), checker, query, dopts);
        KTG_CHECK(ktg.ok() && dktg.ok());
        if (ktg->groups.empty() || dktg->groups.empty()) continue;
        ++counted;
        ktg_score += DktgScore(ktg->groups, query.num_keywords(), gamma);
        dktg_score += dktg->score;
      }
      if (counted == 0) continue;
      PrintRow({Fmt(gamma, 2), Fmt(ktg_score / counted, 3),
                Fmt(dktg_score / counted, 3)},
               widths);
    }
  }
}

}  // namespace
}  // namespace ktg::bench

int main(int argc, char** argv) {
  ktg::bench::ConsumeThreadsFlag(&argc, argv);
  ktg::bench::InstallBenchSignalFlush("bench_dktg_quality");
  ktg::bench::ConsumeRepeatFlag(&argc, argv);
  ktg::bench::RunQualityStudy();
  ktg::bench::WriteMetricsSidecar("bench_dktg_quality");
  return 0;
}
