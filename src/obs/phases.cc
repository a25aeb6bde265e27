// Copyright (c) 2026 The ktg Authors.

#include "obs/phases.h"

namespace ktg::obs {

const char* PhaseName(Phase phase) {
  switch (phase) {
    case Phase::kCandidateGen:
      return "candidate_gen";
    case Phase::kKlineFilter:
      return "kline_filter";
    case Phase::kBbSearch:
      return "bb_search";
    case Phase::kTopNMerge:
      return "topn_merge";
    case Phase::kDiversify:
      return "diversify";
  }
  return "?";
}

}  // namespace ktg::obs
