// Copyright (c) 2026 The ktg Authors.

#include "index/checker_factory.h"

#include <algorithm>
#include <cctype>

#include "index/bfs_checker.h"
#include "index/nl_index.h"
#include "index/nlrnl_index.h"

namespace ktg {

Result<CheckerKind> ParseCheckerKind(const std::string& name) {
  std::string lower(name);
  std::transform(lower.begin(), lower.end(), lower.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  if (lower == "bfs") return CheckerKind::kBfs;
  if (lower == "nl") return CheckerKind::kNl;
  if (lower == "nlrnl") return CheckerKind::kNlrnl;
  return Status::InvalidArgument("unknown checker kind '" + name +
                                 "' (expected bfs|nl|nlrnl)");
}

const char* CheckerKindName(CheckerKind kind) {
  switch (kind) {
    case CheckerKind::kBfs:
      return "BFS";
    case CheckerKind::kNl:
      return "NL";
    case CheckerKind::kNlrnl:
      return "NLRNL";
  }
  return "?";
}

std::unique_ptr<DistanceChecker> MakeChecker(CheckerKind kind,
                                             const Graph& graph,
                                             uint32_t num_threads) {
  switch (kind) {
    case CheckerKind::kBfs:
      return std::make_unique<BfsChecker>(graph);
    case CheckerKind::kNl: {
      NlIndexOptions options;
      options.num_threads = num_threads;
      return std::make_unique<NlIndex>(graph, options);
    }
    case CheckerKind::kNlrnl: {
      NlrnlIndexOptions options;
      options.num_threads = num_threads;
      return std::make_unique<NlrnlIndex>(graph, options);
    }
  }
  return nullptr;
}

std::unique_ptr<DistanceChecker> MakeSnapshotChecker(
    CheckerKind kind, const Graph& graph, HopDistance /*k*/,
    uint32_t num_threads) {
  switch (kind) {
    case CheckerKind::kBfs:
      return nullptr;  // per-run construction; see header
    case CheckerKind::kNl: {
      NlIndexOptions options;
      options.num_threads = num_threads;
      options.memoize_expansions = false;  // reads must not mutate the lists
      return std::make_unique<NlIndex>(graph, options);
    }
    case CheckerKind::kNlrnl:
      return MakeChecker(kind, graph, num_threads);
  }
  return nullptr;
}

}  // namespace ktg
