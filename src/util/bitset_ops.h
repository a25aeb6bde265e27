// Copyright (c) 2026 The ktg Authors.
// The bitset kernel tier name, and nothing else: the library has no bitset
// kernels. This header stays only because the benchmark runner
// (perfbench/runner/main.cc) includes it and prints the value on its
// `env:` line; delete it when that runner stops.

#ifndef KTG_UTIL_BITSET_OPS_H_
#define KTG_UTIL_BITSET_OPS_H_

namespace ktg {

/// The bitset kernel tier this build dispatches to: always "none".
inline const char* KernelDispatchName() { return "none"; }

}  // namespace ktg

#endif  // KTG_UTIL_BITSET_OPS_H_
