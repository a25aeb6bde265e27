// Copyright (c) 2026 The ktg Authors.
// Query execution phases and their per-query latency breakdown.
//
// Every engine attributes its wall-clock to a fixed set of named stages so
// latency regressions can be localized ("the p=6 slowdown is all in k-line
// filtering") and compared against the paper's Theorem 2/3 pruning claims.
// The breakdown is a plain struct of doubles — cheap enough to live inside
// SearchStats and be returned with every result.

#ifndef KTG_OBS_PHASES_H_
#define KTG_OBS_PHASES_H_

#include <cstddef>

namespace ktg::obs {

/// The stages engines attribute latency to. kKlineFilter is a sub-phase of
/// kBbSearch (child-set construction inside the tree walk); the top-level
/// phases kCandidateGen + kBbSearch + kTopNMerge (+ kDiversify for DKTG)
/// partition a run's wall-clock.
enum class Phase : int {
  kCandidateGen = 0,  ///< candidate extraction + initial sort
  kKlineFilter,       ///< Theorem-3 child-set filtering (inside the search)
  kBbSearch,          ///< the branch-and-bound tree walk
  kTopNMerge,         ///< final collector drain/sort
  kDiversify,         ///< DKTG scoring + per-round bookkeeping
};

inline constexpr int kNumPhases = 5;

const char* PhaseName(Phase phase);

/// Milliseconds accumulated per phase. Under the root-parallel engine the
/// sub-phase entries (kKlineFilter) sum worker time and may exceed the
/// run's wall-clock — they attribute CPU, not elapsed time.
struct PhaseBreakdown {
  double ms[kNumPhases] = {};

  double& operator[](Phase p) { return ms[static_cast<int>(p)]; }
  double operator[](Phase p) const { return ms[static_cast<int>(p)]; }

  /// Sum over the top-level phases (excludes the kKlineFilter sub-phase).
  double TopLevelTotalMs() const {
    return (*this)[Phase::kCandidateGen] + (*this)[Phase::kBbSearch] +
           (*this)[Phase::kTopNMerge] + (*this)[Phase::kDiversify];
  }

  PhaseBreakdown& operator+=(const PhaseBreakdown& o) {
    for (int i = 0; i < kNumPhases; ++i) ms[i] += o.ms[i];
    return *this;
  }
};

}  // namespace ktg::obs

#endif  // KTG_OBS_PHASES_H_
