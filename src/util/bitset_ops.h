// Copyright (c) 2026 The ktg Authors.
// The name of the popcount this build compiles PopCount (util/bits.h) to.
// The library has no bitset kernels of its own; the benchmark runner
// (perfbench/runner/main.cc) prints this name as `kernel_tier` on its
// `env:` line, so every ledger run records which popcount it measured.

#ifndef KTG_UTIL_BITSET_OPS_H_
#define KTG_UTIL_BITSET_OPS_H_

namespace ktg {

/// "popcnt" when this translation unit was compiled with the POPCNT
/// instruction (src/util/CMakeLists.txt's configure-time probe adds
/// -mpopcnt on x86-64 hosts that run it), else "none": std::popcount's
/// portable lowering.
inline const char* KernelDispatchName() {
#ifdef __POPCNT__
  return "popcnt";
#else
  return "none";
#endif
}

}  // namespace ktg

#endif  // KTG_UTIL_BITSET_OPS_H_
