// Copyright (c) 2026 The ktg Authors.
// The exact engine's search frontier: each node's S_R as a bitset.
//
// A run numbers its candidates once (RankCandidates, core/candidates.h) by
// the sort strategy's static tie key. Every strategy's node order is then
// "vkc descending, then slot ascending" (QKC: slot ascending), so a node's
// S_R is a bitset over slots and its order is a walk over vkc buckets:
// bucket b holds the slots whose masks add b keywords to the node's
// coverage. Theorem 2's optimistic gain reads the per-bucket counts. A
// child's S_R is the slots the walk has not reached yet minus those within
// k hops of the chosen member, one AND-NOT per word against that member's
// k-line row (the engine's memo). All storage is one per-run arena with a
// frame per search depth, so no node allocates.

#ifndef KTG_CORE_FRONTIER_H_
#define KTG_CORE_FRONTIER_H_

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/candidates.h"
#include "util/bits.h"

namespace ktg {

class Frontier {
 public:
  /// vkc ranges over 0..64, one bucket each.
  static constexpr int kMaxBuckets = 65;

  /// Prepares a run over `cands` (ranked: slots 0..n-1) whose nodes reach
  /// depth `max_depth` at most. `by_vkc` walks vkc buckets; false walks
  /// plain slot order (QKC). Depth 0's S_R holds every slot.
  void Reset(const std::vector<Candidate>& cands, uint32_t max_depth,
             bool by_vkc);

  /// Words per S_R bitset: ceil(n / 64).
  size_t words() const { return words_; }
  /// The S_R of the node at `depth`; a parent writes its child's.
  uint64_t* remaining(uint32_t depth) { return bits_.data() + depth * stride_; }
  CoverMask mask(uint32_t slot) const { return masks_[slot]; }

  /// Enters the node at `depth` with coverage `covered`: buckets its S_R
  /// by vkc and counts each bucket, 64 slots at a time. Returns `covered`
  /// joined with the union of the S_R's masks.
  CoverMask Open(uint32_t depth, CoverMask covered);

  /// Removes `slot`, of vkc `vkc` in the node, from depth's S_R.
  void Take(uint32_t depth, uint32_t slot, int vkc) {
    remaining(depth)[slot / 64] &= ~(uint64_t{1} << (slot % 64));
    --nodes_[depth].counts[vkc];
  }

  /// Sum of the `need` largest vkc values left in depth's S_R.
  int Gain(uint32_t depth, uint32_t need) const {
    const Node& node = nodes_[depth];
    int gain = 0;
    for (int b = node.top; b > 0 && need > 0; --b) {
      const uint32_t n = std::min<uint32_t>(node.counts[b], need);
      gain += static_cast<int>(n) * b;
      need -= n;
    }
    return gain;
  }

  /// Visits depth's S_R (`size` slots, opened) in the node order. Each
  /// slot leaves the S_R before `visit(slot, vkc, left)` runs, `left`
  /// being the slots still after it; the walk stops when `visit` returns
  /// false.
  template <typename Visit>
  void Walk(uint32_t depth, uint32_t size, Visit&& visit);

  /// Unions for the residual clamp: entry L is the union of the masks of
  /// the last L slots of the walk, for L up to `left`, the slots left in
  /// depth's S_R.
  const CoverMask* Suffix(uint32_t depth, uint32_t left);

 private:
  struct Node {
    CoverMask covered = 0;
    int top = 0;  // highest vkc the node held when opened
    std::array<int32_t, kMaxBuckets> counts{};
  };

  uint64_t* bucket(uint32_t depth, int b) {
    return remaining(depth) + (1 + static_cast<size_t>(b)) * words_;
  }

  size_t words_ = 0;
  bool by_vkc_ = true;
  size_t stride_ = 0;  // words per depth: the S_R, then the buckets
  std::vector<CoverMask> masks_;
  // The keywords some slot covers (bit positions), and per keyword the
  // bitset of slots covering it.
  std::vector<int> keywords_;
  std::vector<uint64_t> keyword_slots_;
  std::vector<uint64_t> bits_;
  std::vector<CoverMask> suffix_;  // n + 1 per depth, on first use
  std::vector<Node> nodes_;
};

template <typename Visit>
void Frontier::Walk(uint32_t depth, uint32_t size, Visit&& visit) {
  Node& node = nodes_[depth];
  uint64_t* rem = remaining(depth);
  uint32_t left = size;
  if (!by_vkc_) {
    for (size_t w = 0; w < words_; ++w) {
      for (uint64_t bits = rem[w]; bits != 0; bits &= bits - 1) {
        const auto slot =
            static_cast<uint32_t>(w * 64 + std::countr_zero(bits));
        const int vkc = PopCount(NovelBits(masks_[slot], node.covered));
        Take(depth, slot, vkc);
        if (!visit(slot, vkc, --left)) return;
      }
    }
    return;
  }
  for (int b = node.top; b >= 0; --b) {
    const uint64_t* words = bucket(depth, b);
    for (size_t w = 0; w < words_ && node.counts[b] > 0; ++w) {
      for (uint64_t bits = words[w]; bits != 0; bits &= bits - 1) {
        const auto slot =
            static_cast<uint32_t>(w * 64 + std::countr_zero(bits));
        Take(depth, slot, b);
        if (!visit(slot, b, --left)) return;
      }
    }
  }
}

}  // namespace ktg

#endif  // KTG_CORE_FRONTIER_H_
