// Copyright (c) 2026 The ktg Authors.
// Figure 7: (a) denser graph — KTG-VKC vs KTG-VKC-DEG vs p on the
// Twitter-like preset; (b) large graph — NL vs NLRNL (under KTG-VKC) vs the
// social constraint k on the DBLP-large preset.
//
// Expected shape: (a) the degree tie-break wins by a growing margin as p
// grows on dense graphs (k-line conflicts dominate); (b) NL degrades
// sharply at large k (on-demand expansion toward all-pairs), NLRNL scales.

#include "bench/common.h"

namespace ktg::bench {
namespace {

void RunPartA() {
  BenchDataset& ds = BenchDataset::Get("twitter");
  PrintHeader("Figure 7(a) (twitter, denser graph): latency (ms) vs p",
              ds.Summary() + "  [k=2, |W_Q|=6, N=5]");

  const std::vector<uint32_t> p_values = {3, 4, 5, 6, 7};
  std::vector<AlgoConfig> configs = {
      {"KTG-VKC-NLRNL", false, SortStrategy::kVkc, CheckerKind::kNlrnl, {}},
      {"KTG-VKC-DEG-NLRNL", false, SortStrategy::kVkcDeg, CheckerKind::kNlrnl,
       {}},
  };
  for (auto& c : configs) {
    PinPaperEngine(c.engine);
    c.engine.max_nodes = 5'000'000;  // caps pathological points
  }

  std::vector<int> widths = {20};
  std::vector<std::string> head = {"algorithm"};
  for (const auto p : p_values) {
    head.push_back("p=" + std::to_string(p));
    widths.push_back(12);
  }
  PrintRow(head, widths);
  for (const auto& config : configs) {
    std::vector<std::string> row = {config.label};
    for (const auto p : p_values) {
      const auto workload = MakeWorkload(ds, p, kDefaultK, kDefaultWq,
                                         kDefaultN);
      row.push_back(Fmt(RunBatch(ds, config, workload).avg_ms));
    }
    PrintRow(row, widths);
  }
}

void RunPartB() {
  // dblp-large at the bench scale (the paper used 1M vertices on a 120 GB
  // box; see EXPERIMENTS.md for the scaling substitution).
  BenchDataset& ds = BenchDataset::Get("dblp-large");
  PrintHeader("Figure 7(b) (dblp-large): latency (ms) vs k, NL vs NLRNL",
              ds.Summary() + "  [p=4, |W_Q|=6, N=5]");

  const std::vector<int> k_values = {1, 2, 3, 4, 5};
  std::vector<AlgoConfig> configs = {
      {"KTG-VKC-NL", false, SortStrategy::kVkc, CheckerKind::kNl, {}},
      {"KTG-VKC-DEG-NLRNL", false, SortStrategy::kVkcDeg, CheckerKind::kNlrnl,
       {}},
  };
  for (auto& c : configs) {
    PinPaperEngine(c.engine);
    c.engine.max_nodes = 5'000'000;  // caps pathological points
  }

  std::vector<int> widths = {20};
  std::vector<std::string> head = {"algorithm"};
  for (const int k : k_values) {
    head.push_back("k=" + std::to_string(k));
    widths.push_back(12);
  }
  PrintRow(head, widths);
  for (const auto& config : configs) {
    std::vector<std::string> row = {config.label};
    for (const int k : k_values) {
      const auto workload =
          MakeWorkload(ds, kDefaultP, static_cast<HopDistance>(k), kDefaultWq,
                       kDefaultN);
      row.push_back(Fmt(RunBatch(ds, config, workload).avg_ms));
    }
    PrintRow(row, widths);
  }
}

}  // namespace
}  // namespace ktg::bench

int main(int argc, char** argv) {
  ktg::bench::ConsumeThreadsFlag(&argc, argv);
  ktg::bench::InstallBenchSignalFlush("bench_fig7_scalability");
  ktg::bench::ConsumeRepeatFlag(&argc, argv);
  ktg::bench::RunPartA();
  ktg::bench::RunPartB();
  ktg::bench::WriteMetricsSidecar("bench_fig7_scalability");
  return 0;
}
