// Copyright (c) 2026 The ktg Authors.

#include "core/frontier.h"

#include <algorithm>

namespace ktg {

void Frontier::Reset(const std::vector<Candidate>& cands, uint32_t max_depth,
                     bool by_vkc) {
  const size_t n = cands.size();
  by_vkc_ = by_vkc;
  words_ = (n + 63) / 64;
  masks_.resize(n);
  CoverMask reach = 0;
  for (const Candidate& c : cands) {
    masks_[c.slot] = c.mask;
    reach |= c.mask;
  }
  keywords_.clear();
  ForEachSetBit(reach, [&](int j) { keywords_.push_back(j); });
  keyword_slots_.assign(keywords_.size() * words_, 0);
  for (size_t t = 0; t < keywords_.size(); ++t) {
    uint64_t* row = keyword_slots_.data() + t * words_;
    for (const Candidate& c : cands) {
      if ((c.mask >> keywords_[t]) & 1) {
        row[c.slot / 64] |= uint64_t{1} << (c.slot % 64);
      }
    }
  }
  const size_t buckets = by_vkc ? keywords_.size() + 1 : 0;
  stride_ = words_ * (1 + buckets);
  const size_t depths = std::min<size_t>(max_depth, n) + 1;
  bits_.resize(depths * stride_);
  suffix_.clear();
  nodes_.resize(depths);
  uint64_t* root = remaining(0);
  std::fill(root, root + words_, ~uint64_t{0});
  if (n % 64 != 0) root[words_ - 1] = LowBits(static_cast<int>(n % 64));
}

CoverMask Frontier::Open(uint32_t depth, CoverMask covered) {
  Node& node = nodes_[depth];
  node.covered = covered;
  // The keywords still open, each with its slot bitset.
  const uint64_t* rows[64];
  int bit_of[64];
  int open = 0;
  for (size_t t = 0; t < keywords_.size(); ++t) {
    if ((covered >> keywords_[t]) & 1) continue;
    rows[open] = keyword_slots_.data() + t * words_;
    bit_of[open++] = keywords_[t];
  }
  const int planes = std::bit_width(static_cast<unsigned>(open));
  std::fill(node.counts.begin(), node.counts.begin() + open + 1, 0);
  const uint64_t* rem = remaining(depth);
  CoverMask reach = covered;
  for (size_t w = 0; w < words_; ++w) {
    const uint64_t r = rem[w];
    // vkc of every slot of the word at once: a bit-sliced counter, plane
    // i holding bit i of each slot's count of open keywords.
    uint64_t count[7] = {};
    for (int t = 0; t < open && r != 0; ++t) {
      uint64_t x = rows[t][w] & r;
      if (x != 0) reach |= CoverMask{1} << bit_of[t];
      for (int i = 0; x != 0; ++i) {
        const uint64_t carry = count[i] & x;
        count[i] ^= x;
        x = carry;
      }
    }
    for (int b = 0; b <= open; ++b) {
      uint64_t in_bucket = r;
      for (int i = 0; i < planes; ++i) {
        in_bucket &= ((b >> i) & 1) != 0 ? count[i] : ~count[i];
      }
      if (by_vkc_) bucket(depth, b)[w] = in_bucket;
      node.counts[b] += PopCount(in_bucket);
    }
  }
  node.top = open;
  while (node.top > 0 && node.counts[node.top] == 0) --node.top;
  return reach;
}

const CoverMask* Frontier::Suffix(uint32_t depth, uint32_t left) {
  // Sized for every depth at once, on the run's first use: a deeper call
  // must not move the storage a shallower node still reads.
  if (suffix_.empty()) suffix_.resize(nodes_.size() * (masks_.size() + 1));
  CoverMask* out = suffix_.data() + depth * (masks_.size() + 1);
  const uint64_t* rem = remaining(depth);
  CoverMask acc = 0;
  uint32_t filled = 0;
  out[0] = 0;
  // The walk order reversed: buckets upward, slots downward.
  const auto add_down = [&](size_t w, uint64_t bits) {
    while (bits != 0) {
      const int bit = 63 - std::countl_zero(bits);
      bits &= ~(uint64_t{1} << bit);
      acc |= masks_[w * 64 + bit];
      out[++filled] = acc;
    }
  };
  if (!by_vkc_) {
    for (size_t w = words_; w-- > 0;) add_down(w, rem[w]);
    return out;
  }
  for (int b = 0; b <= nodes_[depth].top && filled < left; ++b) {
    const uint64_t* words = bucket(depth, b);
    for (size_t w = words_; w-- > 0;) add_down(w, words[w] & rem[w]);
  }
  return out;
}

}  // namespace ktg
