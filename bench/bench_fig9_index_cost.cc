// Copyright (c) 2026 The ktg Authors.
// Figure 9: index cost on the four datasets — (a) space, (b) construction
// time — for NL vs NLRNL.
//
// Expected shape: NLRNL space < NL space (it skips each vertex's biggest
// level and stores each pair once), while NLRNL construction time > NL
// (it materializes the reverse lists down to k_max).

#include <cstdio>

#include "bench/common.h"
#include "index/nl_index.h"
#include "index/nlrnl_index.h"
#include "util/timer.h"

namespace ktg::bench {
namespace {

void RunFigure() {
  const std::vector<std::string> datasets = {"gowalla", "brightkite",
                                             "flickr", "dblp"};
  PrintHeader("Figure 9: index space (MB) and construction time (s)",
              "scale=" + Fmt(BenchScale(), 2) +
                  "  (paper: 120 GB server, full-size datasets)");

  const std::vector<int> widths = {14, 12, 12, 12, 14};
  PrintRow({"dataset", "NL MB", "NLRNL MB", "NL build s", "NLRNL build s"},
           widths);

  for (const auto& name : datasets) {
    BenchDataset& ds = BenchDataset::Get(name);
    const Graph& g = ds.graph().graph();

    Stopwatch w1;
    const NlIndex nl(g);
    const double nl_s = w1.ElapsedSeconds();

    Stopwatch w2;
    const NlrnlIndex nlrnl(g);
    const double nlrnl_s = w2.ElapsedSeconds();

    constexpr double kMb = 1024.0 * 1024.0;
    PrintRow({name, Fmt(nl.MemoryBytes() / kMb),
              Fmt(nlrnl.MemoryBytes() / kMb), Fmt(nl_s, 3), Fmt(nlrnl_s, 3)},
             widths);
  }

  std::printf(
      "\nNote: NL additionally GROWS at query time (memoized expansions); "
      "the numbers above are construction-time footprints. Figure 7(b) and\n"
      "bench_micro_index show the query-time effect.\n");
}

}  // namespace
}  // namespace ktg::bench

int main(int argc, char** argv) {
  ktg::bench::ConsumeThreadsFlag(&argc, argv);
  ktg::bench::InstallBenchSignalFlush("bench_fig9_index_cost");
  ktg::bench::ConsumeRepeatFlag(&argc, argv);
  ktg::bench::RunFigure();
  ktg::bench::WriteMetricsSidecar("bench_fig9_index_cost");
  return 0;
}
