// Copyright (c) 2026 The ktg Authors.
// Bit-mask helpers for query-keyword coverage masks.
//
// KTG queries have at most 64 query keywords (the paper evaluates 4..8), so
// the set of covered query keywords of a vertex or a group is represented as
// a uint64_t bitmask relative to the query's keyword ordering. Coverage
// comparisons then reduce to popcounts, which keeps the branch-and-bound hot
// loop free of floating point and of set allocations.

#ifndef KTG_UTIL_BITS_H_
#define KTG_UTIL_BITS_H_

#include <bit>
#include <cstdint>

namespace ktg {

/// Coverage mask relative to a query's keyword list: bit i set means query
/// keyword i is covered.
using CoverMask = uint64_t;

/// Number of set bits.
inline int PopCount(CoverMask m) { return std::popcount(m); }

/// Mask with the lowest `n` bits set (n <= 64).
inline CoverMask LowBits(int n) {
  return n >= 64 ? ~CoverMask{0} : ((CoverMask{1} << n) - 1);
}

/// Bits of `m` not already present in `covered` — the "valid" (novel)
/// keywords of Definition 8.
inline CoverMask NovelBits(CoverMask m, CoverMask covered) {
  return m & ~covered;
}

/// Calls fn(i) for every set bit i of `bits`, in ascending order.
template <typename Fn>
inline void ForEachSetBit(uint64_t bits, Fn&& fn) {
  for (; bits != 0; bits &= bits - 1) fn(std::countr_zero(bits));
}

}  // namespace ktg

#endif  // KTG_UTIL_BITS_H_
