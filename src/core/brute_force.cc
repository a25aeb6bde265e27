// Copyright (c) 2026 The ktg Authors.

#include "core/brute_force.h"

#include <algorithm>

#include "core/candidates.h"
#include "core/topn.h"
#include "util/timer.h"

namespace ktg {

bool IsKDistanceGroup(std::span<const VertexId> members, HopDistance k,
                      DistanceChecker& checker) {
  for (size_t i = 0; i < members.size(); ++i) {
    for (size_t j = i + 1; j < members.size(); ++j) {
      if (!checker.IsFartherThan(members[i], members[j], k)) return false;
    }
  }
  return true;
}

namespace {

// Recursive p-combination enumeration with incremental feasibility: each
// newly chosen candidate is checked against the ones already chosen, which
// keeps the enumeration exhaustive but skips obviously infeasible suffixes.
struct BruteState {
  const std::vector<Candidate>* cands;
  DistanceChecker* checker;
  uint32_t p;
  HopDistance k;
  TopNCollector* collector;
  std::vector<VertexId> members;
  CoverMask covered = 0;
  uint64_t completed = 0;
  uint64_t checks = 0;

  void Recurse(size_t from) {
    if (members.size() == p) {
      ++completed;
      Group g;
      g.members = members;
      std::sort(g.members.begin(), g.members.end());
      g.mask = covered;
      collector->Offer(std::move(g));
      return;
    }
    const uint32_t need = p - static_cast<uint32_t>(members.size());
    for (size_t i = from; i + need <= cands->size(); ++i) {
      const Candidate& c = (*cands)[i];
      bool ok = true;
      for (const VertexId m : members) {
        if (!checker->IsFartherThan(c.vertex, m, k, &checks)) {
          ok = false;
          break;
        }
      }
      if (!ok) continue;
      members.push_back(c.vertex);
      const CoverMask prev = covered;
      covered |= c.mask;
      Recurse(i + 1);
      covered = prev;
      members.pop_back();
    }
  }
};

}  // namespace

Result<KtgResult> BruteForceKtg(const AttributedGraph& graph,
                                const InvertedIndex& index,
                                DistanceChecker& checker,
                                const KtgQuery& query) {
  KTG_RETURN_IF_ERROR(ValidateQuery(query, graph));
  Stopwatch watch;
  BruteState state;
  const auto cands = ExtractCandidates(
      graph, index, query, checker, /*kline_removed=*/nullptr, &state.checks);

  TopNCollector collector(query.top_n);
  state.cands = &cands;
  state.checker = &checker;
  state.p = query.group_size;
  state.k = query.tenuity;
  state.collector = &collector;
  state.Recurse(0);

  KtgResult result;
  result.groups = collector.Take();
  result.query_keyword_count = query.num_keywords();
  result.stats.candidates = cands.size();
  result.stats.groups_completed = state.completed;
  result.stats.distance_checks = state.checks;
  result.stats.elapsed_ms = watch.ElapsedMillis();
  result.stats.cpu_ms = result.stats.elapsed_ms;  // single-threaded
  return result;
}

}  // namespace ktg
