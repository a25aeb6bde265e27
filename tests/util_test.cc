// Copyright (c) 2026 The ktg Authors.
// Unit tests for the util substrate: Status/Result, Rng, Zipf, bit masks,
// sorted-vector ops and summary statistics.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <set>
#include <vector>

#include "util/bits.h"
#include "util/rng.h"
#include "util/sorted_vector.h"
#include "util/status.h"
#include "util/summary_stats.h"
#include "util/zipf.h"

namespace ktg {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad p");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad p");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad p");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (const auto code :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kIoError, StatusCode::kOutOfRange,
        StatusCode::kFailedPrecondition, StatusCode::kResourceExhausted,
        StatusCode::kUnimplemented, StatusCode::kInternal}) {
    EXPECT_STRNE(StatusCodeName(code), "Unknown");
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("missing"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r(std::string("payload"));
  std::string v = std::move(r).value();
  EXPECT_EQ(v, "payload");
}

TEST(RngTest, DeterministicAcrossInstances) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, SeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, BelowStaysInRange) {
  Rng rng(3);
  for (uint64_t bound : {1ull, 2ull, 7ull, 1000ull}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.Below(bound), bound);
  }
}

TEST(RngTest, BelowIsRoughlyUniform) {
  Rng rng(11);
  constexpr uint64_t kBound = 10;
  constexpr int kSamples = 20000;
  int counts[kBound] = {0};
  for (int i = 0; i < kSamples; ++i) ++counts[rng.Below(kBound)];
  for (const int c : counts) {
    EXPECT_GT(c, kSamples / kBound * 0.8);
    EXPECT_LT(c, kSamples / kBound * 1.2);
  }
}

TEST(RngTest, UniformInclusive) {
  Rng rng(5);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 500; ++i) {
    const int64_t x = rng.Uniform(-2, 2);
    EXPECT_GE(x, -2);
    EXPECT_LE(x, 2);
    saw_lo |= (x == -2);
    saw_hi |= (x == 2);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, SampleDistinctSparse) {
  Rng rng(13);
  const auto s = rng.SampleDistinct(1000000, 50);
  std::set<uint64_t> set(s.begin(), s.end());
  EXPECT_EQ(set.size(), 50u);
  for (const uint64_t x : s) EXPECT_LT(x, 1000000u);
}

TEST(RngTest, SampleDistinctDense) {
  Rng rng(13);
  const auto s = rng.SampleDistinct(10, 10);
  std::set<uint64_t> set(s.begin(), s.end());
  EXPECT_EQ(set.size(), 10u);  // a full permutation of 0..9
  EXPECT_EQ(*set.begin(), 0u);
  EXPECT_EQ(*set.rbegin(), 9u);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(17);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.Shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(ZipfTest, PmfSumsToOne) {
  ZipfDistribution z(100, 1.0);
  double sum = 0.0;
  for (uint64_t r = 0; r < z.size(); ++r) sum += z.Pmf(r);
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(ZipfTest, SkewFavorsLowRanks) {
  ZipfDistribution z(50, 1.2);
  EXPECT_GT(z.Pmf(0), z.Pmf(1));
  EXPECT_GT(z.Pmf(1), z.Pmf(10));
  EXPECT_GT(z.Pmf(10), z.Pmf(49));
}

TEST(ZipfTest, ZeroExponentIsUniform) {
  ZipfDistribution z(20, 0.0);
  for (uint64_t r = 0; r < 20; ++r) EXPECT_NEAR(z.Pmf(r), 0.05, 1e-9);
}

TEST(ZipfTest, SampleMatchesPmf) {
  ZipfDistribution z(10, 1.0);
  Rng rng(23);
  std::vector<int> counts(10, 0);
  constexpr int kSamples = 50000;
  for (int i = 0; i < kSamples; ++i) ++counts[z.Sample(rng)];
  for (uint64_t r = 0; r < 10; ++r) {
    const double expected = z.Pmf(r) * kSamples;
    EXPECT_NEAR(counts[r], expected, 5 * std::sqrt(expected) + 5);
  }
}

TEST(BitsTest, PopCountAndLowBits) {
  EXPECT_EQ(PopCount(0), 0);
  EXPECT_EQ(PopCount(0b1011), 3);
  EXPECT_EQ(LowBits(0), 0u);
  EXPECT_EQ(LowBits(3), 0b111u);
  EXPECT_EQ(LowBits(64), ~uint64_t{0});
  EXPECT_EQ(PopCount(LowBits(17)), 17);
}

// PopCount against a bit-by-bit reference. Builds with the POPCNT
// instruction and with the portable lowering both run it.
TEST(BitsTest, PopCountMatchesBitLoop) {
  const auto reference = [](uint64_t m) {
    int n = 0;
    for (int bit = 0; bit < 64; ++bit) n += static_cast<int>((m >> bit) & 1);
    return n;
  };
  std::vector<uint64_t> words = {
      0,
      ~uint64_t{0},
      0x5555555555555555ull,
      0xAAAAAAAAAAAAAAAAull,
      0x3333333333333333ull,
      0x0F0F0F0F0F0F0F0Full,
      0xFFFFFFFF00000000ull,
      0x00000000FFFFFFFFull,
  };
  for (int bit = 0; bit < 64; ++bit) {
    words.push_back(uint64_t{1} << bit);
    words.push_back(~(uint64_t{1} << bit));
  }
  Rng rng(0x9C47);
  for (int i = 0; i < 10000; ++i) words.push_back(rng.Next());
  for (const uint64_t m : words) {
    ASSERT_EQ(PopCount(m), reference(m)) << std::hex << m;
  }
}

TEST(BitsTest, NovelBits) {
  EXPECT_EQ(NovelBits(0b1110, 0b0110), 0b1000u);
  EXPECT_EQ(NovelBits(0b1110, 0), 0b1110u);
  EXPECT_EQ(NovelBits(0b1110, 0b1110), 0u);
}

TEST(SortedVectorTest, ContainsAndSortUnique) {
  std::vector<int> v{5, 3, 3, 1, 5};
  SortUnique(v);
  EXPECT_EQ(v, (std::vector<int>{1, 3, 5}));
  EXPECT_TRUE(SortedContains(v, 3));
  EXPECT_FALSE(SortedContains(v, 4));
}

TEST(SortedVectorTest, SetOperations) {
  const std::vector<int> a{1, 2, 4, 6};
  const std::vector<int> b{2, 3, 6, 9};
  EXPECT_EQ(SortedIntersectionSize(a, b), 2u);
  EXPECT_EQ(SortedIntersection(a, b), (std::vector<int>{2, 6}));
  EXPECT_EQ(SortedUnion(a, b), (std::vector<int>{1, 2, 3, 4, 6, 9}));
  EXPECT_TRUE(SortedIntersects(a, b));
  EXPECT_FALSE(SortedIntersects(a, std::vector<int>{3, 5, 7}));
  EXPECT_FALSE(SortedIntersects(a, std::vector<int>{}));
}

TEST(SummaryStatsTest, BasicMoments) {
  SummaryStats s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.Add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-9);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(SummaryStatsTest, EmptyIsZero) {
  SummaryStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

}  // namespace
}  // namespace ktg
