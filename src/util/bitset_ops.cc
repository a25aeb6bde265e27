// Copyright (c) 2026 The ktg Authors.

#include "util/bitset_ops.h"

#include <cstdlib>

#if KTG_BITSET_AVX2_COMPILED
#include <immintrin.h>
#endif

#if KTG_BITSET_NEON_COMPILED
#include <arm_neon.h>
#endif

namespace ktg {

// ---- scalar bodies --------------------------------------------------------
// Plain word loops. Compilers unroll these, but without -mavx2 on the whole
// build they stay at one word per iteration — which is exactly the baseline
// the AVX2 path is measured against.

namespace bitset_scalar {

void AndNot(uint64_t* dst, const uint64_t* a, const uint64_t* b, size_t n) {
  for (size_t i = 0; i < n; ++i) dst[i] = a[i] & ~b[i];
}

void And(uint64_t* dst, const uint64_t* a, const uint64_t* b, size_t n) {
  for (size_t i = 0; i < n; ++i) dst[i] = a[i] & b[i];
}

void Or(uint64_t* dst, const uint64_t* a, const uint64_t* b, size_t n) {
  for (size_t i = 0; i < n; ++i) dst[i] = a[i] | b[i];
}

uint64_t Popcount(const uint64_t* a, size_t n) {
  uint64_t c = 0;
  for (size_t i = 0; i < n; ++i) c += std::popcount(a[i]);
  return c;
}

uint64_t AndPopcount(const uint64_t* a, const uint64_t* b, size_t n) {
  uint64_t c = 0;
  for (size_t i = 0; i < n; ++i) c += std::popcount(a[i] & b[i]);
  return c;
}

uint64_t AndNotPopcount(const uint64_t* a, const uint64_t* b, size_t n) {
  uint64_t c = 0;
  for (size_t i = 0; i < n; ++i) c += std::popcount(a[i] & ~b[i]);
  return c;
}

bool Intersects(const uint64_t* a, const uint64_t* b, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    if ((a[i] & b[i]) != 0) return true;
  }
  return false;
}

}  // namespace bitset_scalar

// ---- AVX2 bodies ----------------------------------------------------------
// Four words per vector op via target attributes, so the rest of the build
// needs no -mavx2 and the binary still runs on pre-AVX2 hardware (dispatch
// never selects these there). Popcounts use the scalar popcnt instruction
// over vector lanes' extracts — on the sizes the engines see this is
// load-bandwidth-bound either way; the win comes from halving the loads
// and the loop overhead of the logical ops.

#if KTG_BITSET_AVX2_COMPILED
namespace bitset_avx2 {

#define KTG_TARGET_AVX2 __attribute__((target("avx2")))

KTG_TARGET_AVX2
void AndNot(uint64_t* dst, const uint64_t* a, const uint64_t* b, size_t n) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i va = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(a + i));
    const __m256i vb = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(b + i));
    // _mm256_andnot_si256 computes ~first & second.
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_andnot_si256(vb, va));
  }
  for (; i < n; ++i) dst[i] = a[i] & ~b[i];
}

KTG_TARGET_AVX2
void And(uint64_t* dst, const uint64_t* a, const uint64_t* b, size_t n) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i va = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(a + i));
    const __m256i vb = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(b + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_and_si256(va, vb));
  }
  for (; i < n; ++i) dst[i] = a[i] & b[i];
}

KTG_TARGET_AVX2
void Or(uint64_t* dst, const uint64_t* a, const uint64_t* b, size_t n) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i va = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(a + i));
    const __m256i vb = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(b + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_or_si256(va, vb));
  }
  for (; i < n; ++i) dst[i] = a[i] | b[i];
}

KTG_TARGET_AVX2
uint64_t Popcount(const uint64_t* a, size_t n) {
  // popcnt has no 256-bit form (pre-AVX512); extract lanes and use the
  // 64-bit instruction. Four accumulators hide the popcnt latency chain.
  uint64_t c0 = 0, c1 = 0, c2 = 0, c3 = 0;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i v = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(a + i));
    c0 += __builtin_popcountll(_mm256_extract_epi64(v, 0));
    c1 += __builtin_popcountll(_mm256_extract_epi64(v, 1));
    c2 += __builtin_popcountll(_mm256_extract_epi64(v, 2));
    c3 += __builtin_popcountll(_mm256_extract_epi64(v, 3));
  }
  uint64_t c = c0 + c1 + c2 + c3;
  for (; i < n; ++i) c += __builtin_popcountll(a[i]);
  return c;
}

KTG_TARGET_AVX2
uint64_t AndPopcount(const uint64_t* a, const uint64_t* b, size_t n) {
  uint64_t c0 = 0, c1 = 0, c2 = 0, c3 = 0;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i va = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(a + i));
    const __m256i vb = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(b + i));
    const __m256i v = _mm256_and_si256(va, vb);
    c0 += __builtin_popcountll(_mm256_extract_epi64(v, 0));
    c1 += __builtin_popcountll(_mm256_extract_epi64(v, 1));
    c2 += __builtin_popcountll(_mm256_extract_epi64(v, 2));
    c3 += __builtin_popcountll(_mm256_extract_epi64(v, 3));
  }
  uint64_t c = c0 + c1 + c2 + c3;
  for (; i < n; ++i) c += __builtin_popcountll(a[i] & b[i]);
  return c;
}

KTG_TARGET_AVX2
uint64_t AndNotPopcount(const uint64_t* a, const uint64_t* b, size_t n) {
  uint64_t c0 = 0, c1 = 0, c2 = 0, c3 = 0;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i va = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(a + i));
    const __m256i vb = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(b + i));
    const __m256i v = _mm256_andnot_si256(vb, va);
    c0 += __builtin_popcountll(_mm256_extract_epi64(v, 0));
    c1 += __builtin_popcountll(_mm256_extract_epi64(v, 1));
    c2 += __builtin_popcountll(_mm256_extract_epi64(v, 2));
    c3 += __builtin_popcountll(_mm256_extract_epi64(v, 3));
  }
  uint64_t c = c0 + c1 + c2 + c3;
  for (; i < n; ++i) c += __builtin_popcountll(a[i] & ~b[i]);
  return c;
}

KTG_TARGET_AVX2
bool Intersects(const uint64_t* a, const uint64_t* b, size_t n) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i va = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(a + i));
    const __m256i vb = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(b + i));
    if (!_mm256_testz_si256(va, vb)) return true;
  }
  for (; i < n; ++i) {
    if ((a[i] & b[i]) != 0) return true;
  }
  return false;
}

#undef KTG_TARGET_AVX2

}  // namespace bitset_avx2
#endif  // KTG_BITSET_AVX2_COMPILED

// ---- AVX-512 bodies -------------------------------------------------------
// Eight words per vector op. The logical ops need only AVX-512F; the
// popcount family additionally uses VPOPCNTDQ (_mm512_popcnt_epi64), which
// counts all eight lanes in one instruction instead of eight scalar
// popcnts — that is where AVX-512 pulls ahead of AVX2 on the popcount-heavy
// conflict-graph construction. Dispatch requires BOTH features so the whole
// table comes from one tier (a CPU with F but not VPOPCNTDQ uses AVX2).

#if KTG_BITSET_AVX512_COMPILED
namespace bitset_avx512 {

#define KTG_TARGET_AVX512F __attribute__((target("avx512f")))
#define KTG_TARGET_AVX512_POPCNT \
  __attribute__((target("avx512f,avx512vpopcntdq")))

// Horizontal sum of the eight lanes. Spelled out instead of
// _mm512_reduce_add_epi64, whose GCC 12 header body raises
// -Wmaybe-uninitialized.
KTG_TARGET_AVX512F
inline uint64_t SumLanes(__m512i v) {
  uint64_t lanes[8];
  _mm512_storeu_si512(lanes, v);
  uint64_t sum = 0;
  for (const uint64_t lane : lanes) sum += lane;
  return sum;
}

KTG_TARGET_AVX512F
void AndNot(uint64_t* dst, const uint64_t* a, const uint64_t* b, size_t n) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512i va = _mm512_loadu_si512(a + i);
    const __m512i vb = _mm512_loadu_si512(b + i);
    _mm512_storeu_si512(dst + i, va & ~vb);
  }
  for (; i < n; ++i) dst[i] = a[i] & ~b[i];
}

KTG_TARGET_AVX512F
void And(uint64_t* dst, const uint64_t* a, const uint64_t* b, size_t n) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512i va = _mm512_loadu_si512(a + i);
    const __m512i vb = _mm512_loadu_si512(b + i);
    _mm512_storeu_si512(dst + i, _mm512_and_si512(va, vb));
  }
  for (; i < n; ++i) dst[i] = a[i] & b[i];
}

KTG_TARGET_AVX512F
void Or(uint64_t* dst, const uint64_t* a, const uint64_t* b, size_t n) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512i va = _mm512_loadu_si512(a + i);
    const __m512i vb = _mm512_loadu_si512(b + i);
    _mm512_storeu_si512(dst + i, _mm512_or_si512(va, vb));
  }
  for (; i < n; ++i) dst[i] = a[i] | b[i];
}

KTG_TARGET_AVX512_POPCNT
uint64_t Popcount(const uint64_t* a, size_t n) {
  __m512i acc = _mm512_setzero_si512();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512i v = _mm512_loadu_si512(a + i);
    acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(v));
  }
  uint64_t c = SumLanes(acc);
  for (; i < n; ++i) c += __builtin_popcountll(a[i]);
  return c;
}

KTG_TARGET_AVX512_POPCNT
uint64_t AndPopcount(const uint64_t* a, const uint64_t* b, size_t n) {
  __m512i acc = _mm512_setzero_si512();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512i va = _mm512_loadu_si512(a + i);
    const __m512i vb = _mm512_loadu_si512(b + i);
    acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(_mm512_and_si512(va, vb)));
  }
  uint64_t c = SumLanes(acc);
  for (; i < n; ++i) c += __builtin_popcountll(a[i] & b[i]);
  return c;
}

KTG_TARGET_AVX512_POPCNT
uint64_t AndNotPopcount(const uint64_t* a, const uint64_t* b, size_t n) {
  __m512i acc = _mm512_setzero_si512();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512i va = _mm512_loadu_si512(a + i);
    const __m512i vb = _mm512_loadu_si512(b + i);
    acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(va & ~vb));
  }
  uint64_t c = SumLanes(acc);
  for (; i < n; ++i) c += __builtin_popcountll(a[i] & ~b[i]);
  return c;
}

KTG_TARGET_AVX512F
bool Intersects(const uint64_t* a, const uint64_t* b, size_t n) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512i va = _mm512_loadu_si512(a + i);
    const __m512i vb = _mm512_loadu_si512(b + i);
    if (_mm512_test_epi64_mask(va, vb) != 0) return true;
  }
  for (; i < n; ++i) {
    if ((a[i] & b[i]) != 0) return true;
  }
  return false;
}

#undef KTG_TARGET_AVX512F
#undef KTG_TARGET_AVX512_POPCNT

}  // namespace bitset_avx512
#endif  // KTG_BITSET_AVX512_COMPILED

// ---- NEON bodies ----------------------------------------------------------
// Two words per vector op. arm64 has no 64-bit-lane popcount, but CNT over
// bytes plus a widening horizontal add (ADDLV) counts a full 128-bit vector
// in two instructions — cheaper than two scalar popcounts plus their moves.
// NEON is baseline on arm64, so there is no cpuid probe; KTG_DISABLE_NEON
// is the only runtime gate.

#if KTG_BITSET_NEON_COMPILED
namespace bitset_neon {

void AndNot(uint64_t* dst, const uint64_t* a, const uint64_t* b, size_t n) {
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const uint64x2_t va = vld1q_u64(a + i);
    const uint64x2_t vb = vld1q_u64(b + i);
    // vbicq computes first & ~second.
    vst1q_u64(dst + i, vbicq_u64(va, vb));
  }
  for (; i < n; ++i) dst[i] = a[i] & ~b[i];
}

void And(uint64_t* dst, const uint64_t* a, const uint64_t* b, size_t n) {
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const uint64x2_t va = vld1q_u64(a + i);
    const uint64x2_t vb = vld1q_u64(b + i);
    vst1q_u64(dst + i, vandq_u64(va, vb));
  }
  for (; i < n; ++i) dst[i] = a[i] & b[i];
}

void Or(uint64_t* dst, const uint64_t* a, const uint64_t* b, size_t n) {
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const uint64x2_t va = vld1q_u64(a + i);
    const uint64x2_t vb = vld1q_u64(b + i);
    vst1q_u64(dst + i, vorrq_u64(va, vb));
  }
  for (; i < n; ++i) dst[i] = a[i] | b[i];
}

namespace {
/// Set bits in one 128-bit vector: per-byte CNT, widening sum over lanes.
inline uint64_t VectorPopcount(uint64x2_t v) {
  return vaddlvq_u8(vcntq_u8(vreinterpretq_u8_u64(v)));
}
}  // namespace

uint64_t Popcount(const uint64_t* a, size_t n) {
  uint64_t c = 0;
  size_t i = 0;
  for (; i + 2 <= n; i += 2) c += VectorPopcount(vld1q_u64(a + i));
  for (; i < n; ++i) c += __builtin_popcountll(a[i]);
  return c;
}

uint64_t AndPopcount(const uint64_t* a, const uint64_t* b, size_t n) {
  uint64_t c = 0;
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    c += VectorPopcount(vandq_u64(vld1q_u64(a + i), vld1q_u64(b + i)));
  }
  for (; i < n; ++i) c += __builtin_popcountll(a[i] & b[i]);
  return c;
}

uint64_t AndNotPopcount(const uint64_t* a, const uint64_t* b, size_t n) {
  uint64_t c = 0;
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    c += VectorPopcount(vbicq_u64(vld1q_u64(a + i), vld1q_u64(b + i)));
  }
  for (; i < n; ++i) c += __builtin_popcountll(a[i] & ~b[i]);
  return c;
}

bool Intersects(const uint64_t* a, const uint64_t* b, size_t n) {
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const uint64x2_t v = vandq_u64(vld1q_u64(a + i), vld1q_u64(b + i));
    if ((vgetq_lane_u64(v, 0) | vgetq_lane_u64(v, 1)) != 0) return true;
  }
  for (; i < n; ++i) {
    if ((a[i] & b[i]) != 0) return true;
  }
  return false;
}

}  // namespace bitset_neon
#endif  // KTG_BITSET_NEON_COMPILED

// ---- dispatch -------------------------------------------------------------

namespace {
/// Shared escape-hatch check: a tier stays enabled unless its variable is
/// set to something other than "" or "0".
bool EnvAllows(const char* var) {
  const char* env = std::getenv(var);
  return env == nullptr || env[0] == '\0' || env[0] == '0';
}
}  // namespace

bool Avx2Available() {
#if KTG_BITSET_AVX2_COMPILED
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

bool Avx2Active() {
  static const bool active = Avx2Available() && EnvAllows("KTG_DISABLE_AVX2");
  return active;
}

bool Avx512Available() {
#if KTG_BITSET_AVX512_COMPILED
  return __builtin_cpu_supports("avx512f") &&
         __builtin_cpu_supports("avx512vpopcntdq");
#else
  return false;
#endif
}

bool Avx512Active() {
  // Avx2Active() in the chain makes the tiers nest: KTG_DISABLE_AVX2 alone
  // drops dispatch all the way to scalar, never sideways to AVX-512.
  static const bool active =
      Avx512Available() && Avx2Active() && EnvAllows("KTG_DISABLE_AVX512");
  return active;
}

bool NeonAvailable() { return KTG_BITSET_NEON_COMPILED != 0; }

bool NeonActive() {
  static const bool active =
      NeonAvailable() && EnvAllows("KTG_DISABLE_NEON");
  return active;
}

const char* KernelDispatchName() {
  if (Avx512Active()) return "avx512";
  if (Avx2Active()) return "avx2";
  if (NeonActive()) return "neon";
  return "scalar";
}

namespace internal {

const KernelTable& Kernels() {
  static const KernelTable table = [] {
    KernelTable t;
#if KTG_BITSET_AVX512_COMPILED
    if (Avx512Active()) {
      t.and_not = bitset_avx512::AndNot;
      t.and_ = bitset_avx512::And;
      t.or_ = bitset_avx512::Or;
      t.popcount = bitset_avx512::Popcount;
      t.and_popcount = bitset_avx512::AndPopcount;
      t.and_not_popcount = bitset_avx512::AndNotPopcount;
      t.intersects = bitset_avx512::Intersects;
      return t;
    }
#endif
#if KTG_BITSET_AVX2_COMPILED
    if (Avx2Active()) {
      t.and_not = bitset_avx2::AndNot;
      t.and_ = bitset_avx2::And;
      t.or_ = bitset_avx2::Or;
      t.popcount = bitset_avx2::Popcount;
      t.and_popcount = bitset_avx2::AndPopcount;
      t.and_not_popcount = bitset_avx2::AndNotPopcount;
      t.intersects = bitset_avx2::Intersects;
      return t;
    }
#endif
#if KTG_BITSET_NEON_COMPILED
    if (NeonActive()) {
      t.and_not = bitset_neon::AndNot;
      t.and_ = bitset_neon::And;
      t.or_ = bitset_neon::Or;
      t.popcount = bitset_neon::Popcount;
      t.and_popcount = bitset_neon::AndPopcount;
      t.and_not_popcount = bitset_neon::AndNotPopcount;
      t.intersects = bitset_neon::Intersects;
      return t;
    }
#endif
    t.and_not = bitset_scalar::AndNot;
    t.and_ = bitset_scalar::And;
    t.or_ = bitset_scalar::Or;
    t.popcount = bitset_scalar::Popcount;
    t.and_popcount = bitset_scalar::AndPopcount;
    t.and_not_popcount = bitset_scalar::AndNotPopcount;
    t.intersects = bitset_scalar::Intersects;
    return t;
  }();
  return table;
}

}  // namespace internal

}  // namespace ktg
