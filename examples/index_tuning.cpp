// Copyright (c) 2026 The ktg Authors.
// Index selection guide — when to pick BFS, NL or NLRNL.
//
//   $ ./build/examples/index_tuning [preset] [scale]
//
// Builds every DistanceChecker over one dataset and reports build time,
// memory and the average cost of a k-line check at several k, then runs
// the same KTG workload under each. This is the decision the paper's
// Section V + Figure 9 inform.

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <vector>

#include "core/ktg_engine.h"
#include "datagen/presets.h"
#include "datagen/query_gen.h"
#include "index/checker_factory.h"
#include "keywords/inverted_index.h"
#include "util/rng.h"
#include "util/timer.h"

using namespace ktg;

int main(int argc, char** argv) {
  const std::string preset = argc > 1 ? argv[1] : "brightkite";
  const double scale = argc > 2 ? std::atof(argv[2]) : 0.2;

  const auto spec = GetPreset(preset, scale);
  if (!spec.ok()) {
    std::fprintf(stderr, "%s\n", spec.status().ToString().c_str());
    return 1;
  }
  const AttributedGraph graph = BuildDataset(*spec);
  const InvertedIndex index(graph);
  std::printf("dataset %s: n=%u m=%llu\n\n", preset.c_str(),
              graph.num_vertices(),
              static_cast<unsigned long long>(graph.num_edges()));

  constexpr HopDistance kTenuity = 2;
  struct Entry {
    CheckerKind kind;
    std::unique_ptr<DistanceChecker> checker;
    double build_s;
  };
  std::vector<Entry> entries;
  for (const auto kind :
       {CheckerKind::kBfs, CheckerKind::kNl, CheckerKind::kNlrnl}) {
    Stopwatch watch;
    auto checker = MakeChecker(kind, graph.graph());
    entries.push_back({kind, std::move(checker), watch.ElapsedSeconds()});
  }

  std::printf("%-14s %12s %12s %16s\n", "checker", "build s", "MB",
              "ns/check (k=2)");
  Rng rng(0xCAFE);
  std::vector<std::pair<VertexId, VertexId>> pairs;
  for (int i = 0; i < 20000; ++i) {
    pairs.emplace_back(static_cast<VertexId>(rng.Below(graph.num_vertices())),
                       static_cast<VertexId>(rng.Below(graph.num_vertices())));
  }
  for (auto& e : entries) {
    Stopwatch watch;
    uint64_t farther = 0;
    for (const auto& [u, v] : pairs) {
      farther += e.checker->IsFartherThan(u, v, kTenuity);
    }
    const double ns = watch.ElapsedSeconds() * 1e9 / pairs.size();
    std::printf("%-14s %12.3f %12.2f %16.1f   (%llu farther)\n",
                e.checker->name().c_str(), e.build_s,
                e.checker->MemoryBytes() / (1024.0 * 1024.0), ns,
                static_cast<unsigned long long>(farther));
  }

  // End-to-end: the same KTG workload under each checker.
  WorkloadOptions wopts;
  wopts.num_queries = 10;
  wopts.tenuity = kTenuity;
  Rng qrng(0xF1E1D);
  const auto workload = GenerateWorkload(graph, wopts, qrng);
  std::printf("\n%-14s %16s\n", "checker", "KTG ms/query");
  for (auto& e : entries) {
    double total_ms = 0;
    for (const auto& query : workload) {
      const auto r = RunKtg(graph, index, *e.checker, query);
      if (!r.ok()) {
        std::fprintf(stderr, "%s\n", r.status().ToString().c_str());
        return 1;
      }
      total_ms += r->stats.elapsed_ms;
    }
    std::printf("%-14s %16.3f\n", e.checker->name().c_str(),
                total_ms / workload.size());
  }
  std::printf(
      "\nguidance: BFS needs no build (one-off queries); NLRNL is the "
      "paper's\nbest general index.\n");
  return 0;
}
