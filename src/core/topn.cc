// Copyright (c) 2026 The ktg Authors.

#include "core/topn.h"

#include <algorithm>

namespace ktg {

bool TopNCollector::Offer(Group group) {
  if (full() && group.covered() <= worst_count_) return false;
  // An anytime search reaches its greedy seeds again; a group already held
  // must not take a second slot. The scan sits after the threshold test so
  // only offers that would be admitted pay for it (an exact search never
  // offers a group twice).
  for (const auto& [seq, held] : groups_) {
    KTG_UNUSED(seq);
    if (held.members == group.members) return false;
  }
  if (!full()) {
    groups_.emplace_back(next_seq_++, std::move(group));
    RecomputeWorst();
    return true;
  }

  // Evict the worst-coverage group; on ties the most recently inserted one
  // goes first (keep the longest-standing results stable).
  size_t evict = 0;
  for (size_t i = 1; i < groups_.size(); ++i) {
    const int ci = groups_[i].second.covered();
    const int ce = groups_[evict].second.covered();
    if (ci < ce || (ci == ce && groups_[i].first > groups_[evict].first)) {
      evict = i;
    }
  }
  groups_[evict] = {next_seq_++, std::move(group)};
  RecomputeWorst();
  return true;
}

void TopNCollector::RecomputeWorst() {
  if (!full()) {
    worst_count_ = -1;
    return;
  }
  worst_count_ = groups_.front().second.covered();
  for (const auto& [seq, g] : groups_) {
    KTG_UNUSED(seq);
    worst_count_ = std::min(worst_count_, g.covered());
  }
}

std::vector<Group> TopNCollector::Take() {
  std::stable_sort(groups_.begin(), groups_.end(),
                   [](const auto& a, const auto& b) {
                     if (a.second.covered() != b.second.covered()) {
                       return a.second.covered() > b.second.covered();
                     }
                     return a.first < b.first;
                   });
  std::vector<Group> out;
  out.reserve(groups_.size());
  for (auto& [seq, g] : groups_) {
    KTG_UNUSED(seq);
    out.push_back(std::move(g));
  }
  groups_.clear();
  worst_count_ = -1;
  next_seq_ = 0;
  return out;
}

}  // namespace ktg
