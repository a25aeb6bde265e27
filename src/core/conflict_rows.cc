// Copyright (c) 2026 The ktg Authors.

#include "core/conflict_rows.h"

#include <algorithm>

namespace ktg {

uint64_t ConflictRows::Visits(const Graph& graph, VertexId v, HopDistance hops,
                              uint64_t cap) {
  if (hops == 0) return 1;
  const auto neighbors = graph.Neighbors(v);
  uint64_t visits = 1 + neighbors.size();
  if (hops == 1) return visits;
  if (hops > 2) return graph.num_vertices() + 2 * graph.num_edges();
  for (const VertexId u : neighbors) {
    if (visits > cap) break;
    visits += graph.Degree(u);
  }
  return visits;
}

uint64_t ConflictRows::FillCost(const Graph& graph, VertexId pivot,
                                HopDistance k, size_t words, uint64_t cap) {
  const HopDistance hops = k - k / 2;
  const uint64_t per_visit = (kVisitCost + words) * (hops > 1 ? 2 : 1);
  return (Visits(graph, pivot, hops, cap / per_visit) + kFillCallVisits) *
         per_visit;
}

uint64_t ConflictRows::BuildCost(const Graph& graph,
                                 std::span<const VertexId> slot_vertex,
                                 HopDistance k) {
  const HopDistance hops = k / 2;
  const uint64_t words = (slot_vertex.size() + 63) / 64;
  // The first level pushes one word per arc, a deeper one its rows.
  uint64_t first = 0;
  for (const VertexId c : slot_vertex) {
    first += Visits(graph, c, std::min<HopDistance>(hops, 1));
  }
  uint64_t cost = first * (kBuildVisitCost + words);
  if (hops >= 2) {
    const uint64_t levels = std::min<uint64_t>(hops - 1, graph.num_vertices());
    cost += levels * (graph.num_vertices() + 2 * graph.num_edges()) *
            kDeepVisitFactor * (kBuildVisitCost + words);
  }
  return cost;
}

uint32_t ConflictRows::NewRow(VertexId x) {
  const auto row = static_cast<uint32_t>(touched_.size());
  touched_.push_back(x);
  // Rows past the last build's are zero (and unqueued) already: Build()
  // clears what the last build used, and the buffers grow zeroed.
  const size_t end = touched_.size() * words_;
  if (bits_.size() < end) bits_.resize(std::max(end, 2 * bits_.size()));
  if (queued_.size() < touched_.size()) {
    queued_.resize(2 * touched_.size(), kNone);
  }
  return row;
}

void ConflictRows::Build(const Graph& graph,
                         std::span<const VertexId> slot_vertex,
                         HopDistance k) {
  for (const VertexId x : touched_) row_of_[x] = kNone;
  std::fill_n(bits_.begin(), touched_.size() * words_, 0);
  if (graph_ != &graph || row_of_.size() != graph.num_vertices()) {
    row_of_.assign(graph.num_vertices(), kNone);
  }
  graph_ = &graph;
  touched_.clear();
  words_ = (slot_vertex.size() + 63) / 64;
  const size_t words = words_;  // a local: the bitset stores may alias it
  pivot_hops_ = k - k / 2;
  const HopDistance hops = k / 2;
  // Levels 0 and 1 one slot at a time, the slot's own bit the only one
  // that travels; deeper levels push each frontier vertex's fresh words.
  next_.clear();
  next_fresh_.clear();
  for (size_t slot = 0; slot < slot_vertex.size(); ++slot) {
    const auto w = static_cast<uint32_t>(slot / 64);
    const uint64_t bit = uint64_t{1} << (slot % 64);
    bits_[size_t{RowOf(slot_vertex[slot])} * words + w] |= bit;
    if (hops == 0) continue;
    for (const VertexId y : graph.Neighbors(slot_vertex[slot])) {
      const uint32_t row = RowOf(y);
      uint64_t& word = bits_[size_t{row} * words + w];
      if (hops > 1 && (word & bit) == 0) Queue(row, w, bit);
      word |= bit;
    }
  }
  for (HopDistance d = 1; d < hops && !next_.empty(); ++d) {
    for (const Front& f : next_) queued_[f.row] = kNone;
    frontier_.swap(next_);
    fresh_.swap(next_fresh_);
    next_.clear();
    next_fresh_.clear();
    const bool last = d + 1 == hops;
    for (size_t i = 0; i < frontier_.size(); ++i) {
      const Front& f = frontier_[i];
      const uint64_t* fresh = fresh_.data() + i * words;
      for (const VertexId y : graph.Neighbors(touched_[f.row])) {
        const uint32_t row = RowOf(y);
        uint64_t* bits = bits_.data() + size_t{row} * words;
        for (uint32_t w = f.lo; w < f.hi; ++w) {
          const uint64_t reached = fresh[w] & ~bits[w];
          if (reached == 0) continue;
          bits[w] |= reached;
          if (!last) Queue(row, w, reached);
        }
      }
    }
  }
}

void ConflictRows::Queue(uint32_t row, uint32_t w, uint64_t reached) {
  if (queued_[row] == kNone) {
    queued_[row] = static_cast<uint32_t>(next_.size());
    next_.push_back({row, w, w + 1});
    next_fresh_.resize(next_fresh_.size() + words_, 0);
  }
  Front& f = next_[queued_[row]];
  f.lo = std::min(f.lo, w);
  f.hi = std::max(f.hi, w + 1);
  next_fresh_[size_t{queued_[row]} * words_ + w] |= reached;
}

void ConflictRows::OrInto(VertexId x, uint64_t* within, size_t stride) const {
  const uint32_t row = row_of_[x];
  if (row == kNone) return;
  const uint64_t* bits = bits_.data() + size_t{row} * words_;
  for (size_t w = 0; w < words_; ++w) within[w * stride] |= bits[w];
}

void ConflictRows::Fill(VertexId pivot, uint64_t* within,
                        size_t stride) const {
  const Graph& graph = *graph_;
  OrInto(pivot, within, stride);
  if (pivot_hops_ == 0) return;
  for (const VertexId u : graph.Neighbors(pivot)) OrInto(u, within, stride);
  if (pivot_hops_ == 1) return;
  if (pivot_hops_ == 2) {
    // Repeats cost an idempotent OR each, cheaper than deduplicating.
    for (const VertexId u : graph.Neighbors(pivot)) {
      for (const VertexId x : graph.Neighbors(u)) OrInto(x, within, stride);
    }
    return;
  }
  // Deeper: level by level. An undirected graph's level d + 1 is the
  // neighbours of level d outside levels d and d - 1, so sorted levels
  // stand in for visit marks.
  std::vector<VertexId> prev;
  std::vector<VertexId> level(graph.Neighbors(pivot).begin(),
                              graph.Neighbors(pivot).end());
  std::vector<VertexId> next;
  prev.push_back(pivot);
  for (HopDistance d = 1; d < pivot_hops_ && !level.empty(); ++d) {
    next.clear();
    for (const VertexId x : level) {
      const auto neighbors = graph.Neighbors(x);
      next.insert(next.end(), neighbors.begin(), neighbors.end());
    }
    std::sort(next.begin(), next.end());
    next.erase(std::unique(next.begin(), next.end()), next.end());
    std::erase_if(next, [&](VertexId y) {
      return std::binary_search(level.begin(), level.end(), y) ||
             std::binary_search(prev.begin(), prev.end(), y);
    });
    for (const VertexId y : next) OrInto(y, within, stride);
    prev.swap(level);
    level.swap(next);
  }
}

}  // namespace ktg
