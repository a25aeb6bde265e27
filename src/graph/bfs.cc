// Copyright (c) 2026 The ktg Authors.

#include "graph/bfs.h"

#include <algorithm>
#include <array>
#include <limits>
#include <numeric>

namespace ktg {

BoundedBfs::BoundedBfs(const Graph& graph)
    : graph_(graph),
      stamp_(graph.num_vertices(), 0),
      stamp_back_(graph.num_vertices(), 0) {}

void BoundedBfs::NewEpoch() {
  if (++epoch_ == 0) {
    // Stamp counter wrapped; reset all marks and restart at epoch 1.
    std::fill(stamp_.begin(), stamp_.end(), 0);
    std::fill(stamp_back_.begin(), stamp_back_.end(), 0);
    epoch_ = 1;
  }
}

HopDistance BoundedBfs::Distance(VertexId s, VertexId t,
                                 HopDistance max_hops) {
  KTG_DCHECK(s < graph_.num_vertices() && t < graph_.num_vertices());
  if (s == t) return 0;
  NewEpoch();
  last_visited_ = 1;
  frontier_.clear();
  frontier_.push_back(s);
  Mark(s);
  for (HopDistance depth = 1; depth <= max_hops && !frontier_.empty();
       ++depth) {
    next_.clear();
    for (const VertexId u : frontier_) {
      for (const VertexId w : graph_.Neighbors(u)) {
        if (!Mark(w)) continue;
        ++last_visited_;
        if (w == t) return depth;
        next_.push_back(w);
      }
    }
    frontier_.swap(next_);
  }
  return kUnreachable;
}

HopDistance BoundedBfs::DistanceBidirectional(VertexId s, VertexId t,
                                              HopDistance max_hops) {
  KTG_DCHECK(s < graph_.num_vertices() && t < graph_.num_vertices());
  if (s == t) return 0;
  if (max_hops == 0) return kUnreachable;
  NewEpoch();
  last_visited_ = 2;

  // Forward marks use stamp_, backward marks use stamp_back_; both sides
  // share the epoch counter.
  std::vector<VertexId> fwd{s};
  std::vector<VertexId> bwd{t};
  stamp_[s] = epoch_;
  stamp_back_[t] = epoch_;
  HopDistance fwd_depth = 0;
  HopDistance bwd_depth = 0;

  std::vector<VertexId> next;
  while (!fwd.empty() && !bwd.empty()) {
    if (fwd_depth + bwd_depth >= max_hops) return kUnreachable;
    // Expand the smaller frontier.
    const bool expand_fwd = fwd.size() <= bwd.size();
    auto& frontier = expand_fwd ? fwd : bwd;
    auto& my_stamp = expand_fwd ? stamp_ : stamp_back_;
    auto& other_stamp = expand_fwd ? stamp_back_ : stamp_;
    next.clear();
    for (const VertexId u : frontier) {
      for (const VertexId w : graph_.Neighbors(u)) {
        if (my_stamp[w] == epoch_) continue;
        my_stamp[w] = epoch_;
        ++last_visited_;
        if (other_stamp[w] == epoch_) {
          // Meeting point: the two searches join at w.
          return static_cast<HopDistance>(fwd_depth + bwd_depth + 1);
        }
        next.push_back(w);
      }
    }
    frontier.swap(next);
    if (expand_fwd) {
      ++fwd_depth;
    } else {
      ++bwd_depth;
    }
  }
  return kUnreachable;
}

std::vector<VertexId> BoundedBfs::Ball(VertexId s, HopDistance max_hops) {
  KTG_DCHECK(s < graph_.num_vertices());
  NewEpoch();
  last_visited_ = 1;
  std::vector<VertexId> out;
  frontier_.clear();
  frontier_.push_back(s);
  Mark(s);
  for (HopDistance depth = 1; depth <= max_hops && !frontier_.empty();
       ++depth) {
    next_.clear();
    for (const VertexId u : frontier_) {
      for (const VertexId w : graph_.Neighbors(u)) {
        if (!Mark(w)) continue;
        ++last_visited_;
        out.push_back(w);
        next_.push_back(w);
      }
    }
    frontier_.swap(next_);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::vector<VertexId>> BoundedBfs::Levels(VertexId s,
                                                      HopDistance max_hops) {
  KTG_DCHECK(s < graph_.num_vertices());
  NewEpoch();
  last_visited_ = 1;
  std::vector<std::vector<VertexId>> levels;
  frontier_.clear();
  frontier_.push_back(s);
  Mark(s);
  for (HopDistance depth = 1; depth <= max_hops && !frontier_.empty();
       ++depth) {
    next_.clear();
    std::vector<VertexId> level;
    for (const VertexId u : frontier_) {
      for (const VertexId w : graph_.Neighbors(u)) {
        if (!Mark(w)) continue;
        ++last_visited_;
        level.push_back(w);
        next_.push_back(w);
      }
    }
    if (level.empty()) break;
    std::sort(level.begin(), level.end());
    levels.push_back(std::move(level));
    frontier_.swap(next_);
  }
  return levels;
}

HopDistance BoundedBfs::Eccentricity(VertexId s) {
  const auto levels =
      Levels(s, std::numeric_limits<HopDistance>::max() - 1);
  return static_cast<HopDistance>(levels.size());
}

LevelSweep::LevelSweep(const Graph& graph)
    : graph_(graph),
      seen_(graph.num_vertices(), 0),
      frontier_(graph.num_vertices(), 0),
      next_(graph.num_vertices(), 0) {}

void LevelSweep::Start(std::span<const VertexId> sources) {
  KTG_CHECK(!sources.empty() && sources.size() <= kWidth);
  std::fill(seen_.begin(), seen_.end(), 0);
  std::fill(frontier_.begin(), frontier_.end(), 0);
  all_ = 0;
  uint64_t frontier_arcs = 0;
  for (size_t i = 0; i < sources.size(); ++i) {
    const VertexId s = sources[i];
    KTG_DCHECK(s < graph_.num_vertices());
    const uint64_t bit = uint64_t{1} << i;
    seen_[s] |= bit;
    frontier_[s] |= bit;
    all_ |= bit;
    frontier_arcs += graph_.Degree(s);
  }
  push_ = PushPays(frontier_arcs);
  depth_ = 0;
}

void LevelSweep::StartRange(VertexId first, uint32_t count) {
  std::array<VertexId, kWidth> sources;
  KTG_CHECK(count <= kWidth);
  std::iota(sources.begin(), sources.begin() + count, first);
  Start({sources.data(), count});
}

HopDistance HopDistanceBetween(const Graph& graph, VertexId s, VertexId t) {
  BoundedBfs bfs(graph);
  return bfs.Distance(s, t, std::numeric_limits<HopDistance>::max() - 1);
}

std::vector<HopDistance> DistancesFrom(const Graph& graph, VertexId s) {
  KTG_CHECK(s < graph.num_vertices());
  std::vector<HopDistance> dist(graph.num_vertices(), kUnreachable);
  dist[s] = 0;
  std::vector<VertexId> frontier{s};
  std::vector<VertexId> next;
  HopDistance depth = 0;
  while (!frontier.empty()) {
    ++depth;
    next.clear();
    for (const VertexId u : frontier) {
      for (const VertexId w : graph.Neighbors(u)) {
        if (dist[w] != kUnreachable) continue;
        dist[w] = depth;
        next.push_back(w);
      }
    }
    frontier.swap(next);
  }
  return dist;
}

}  // namespace ktg
