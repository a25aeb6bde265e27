// Copyright (c) 2026 The ktg Authors.
// Named construction of DistanceCheckers, used by the bench harness and the
// examples to switch implementations from configuration.

#ifndef KTG_INDEX_CHECKER_FACTORY_H_
#define KTG_INDEX_CHECKER_FACTORY_H_

#include <memory>
#include <string>

#include "graph/graph.h"
#include "index/distance_checker.h"
#include "util/status.h"

namespace ktg {

/// Available DistanceChecker implementations.
enum class CheckerKind {
  kBfs,    ///< no index, bidirectional bounded BFS per check
  kNl,     ///< h-hop neighbors list (Section V.A)
  kNlrnl,  ///< (c-1)-hop + reverse c-hop lists (Section V.B)
};

/// Parses "bfs" | "nl" | "nlrnl" (case-insensitive); any other name is
/// InvalidArgument naming the accepted kinds.
Result<CheckerKind> ParseCheckerKind(const std::string& name);

/// Human-readable name of a kind.
const char* CheckerKindName(CheckerKind kind);

/// Builds a checker of the given kind over `graph`; every kind answers
/// every k. `num_threads` parallelizes the index construction loops (1 =
/// serial, 0 = the CPUs the calling thread may run on; ignored by kBfs,
/// which has nothing to build). The graph must outlive the checker for
/// kBfs; kNl/kNlrnl copy it.
std::unique_ptr<DistanceChecker> MakeChecker(CheckerKind kind,
                                             const Graph& graph,
                                             uint32_t num_threads = 1);

/// Like MakeChecker, but every returned checker is concurrent_read_safe so
/// one instance can be shared by all readers pinned to a snapshot:
/// NL is built with memoize_expansions off (reads never mutate the lists),
/// NLRNL is read-safe natively. kBfs returns nullptr — BfsChecker is
/// stateful scratch and trivial to construct, so snapshot readers build one
/// per run instead of sharing. `k` is ignored: no kind is built for one k.
std::unique_ptr<DistanceChecker> MakeSnapshotChecker(CheckerKind kind,
                                                     const Graph& graph,
                                                     HopDistance k,
                                                     uint32_t num_threads = 1);

}  // namespace ktg

#endif  // KTG_INDEX_CHECKER_FACTORY_H_
