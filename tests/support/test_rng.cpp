#include "support/rng.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace dyntrace {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, NextBelowStaysInRange) {
  Rng rng(7);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL, 1ULL << 40}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.next_below(bound), bound);
    }
  }
}

TEST(Rng, NextBelowRedrawsInTheBiasedZoneOfALargeBound) {
  // For bound 2^63 + 1, almost half of all draws land in the multiply-shift
  // method's biased zone and must be redrawn; the results stay in range and
  // still fill both halves of it.
  const std::uint64_t bound = (1ULL << 63) + 1;
  Rng rng(13);
  int upper_half = 0;
  for (int i = 0; i < 256; ++i) {
    const std::uint64_t x = rng.next_below(bound);
    EXPECT_LT(x, bound);
    if (x >= bound / 2) ++upper_half;
  }
  EXPECT_GT(upper_half, 64);
  EXPECT_LT(upper_half, 192);
}

TEST(Rng, NextBelowOneIsAlwaysZero) {
  Rng rng(9);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(rng.next_below(1), 0u);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, ExponentialMeanMatches) {
  Rng rng(19);
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(4.0);
  EXPECT_NEAR(sum / n, 4.0, 0.1);
}

TEST(Rng, NormalMeanAndSpread) {
  Rng rng(23);
  double sum = 0.0, sq = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal(5.0, 2.0);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 5.0, 0.05);
  EXPECT_NEAR(var, 4.0, 0.15);
}

TEST(Rng, NormalAtLeastRespectsFloor) {
  Rng rng(29);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_GE(rng.normal_at_least(1.0, 5.0, 0.25), 0.25);
  }
}

TEST(Rng, ForkedStreamsAreIndependentAndDeterministic) {
  Rng parent1(41), parent2(41);
  Rng c1 = parent1.fork(5);
  Rng c2 = parent2.fork(5);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(c1.next_u64(), c2.next_u64());

  Rng parent3(41);
  Rng other = parent3.fork(6);
  int same = 0;
  Rng c3 = Rng(41).fork(5);
  for (int i = 0; i < 100; ++i) {
    if (c3.next_u64() == other.next_u64()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, ShuffleIsAPermutation) {
  Rng rng(43);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  auto orig = v;
  shuffle(v, rng);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

}  // namespace
}  // namespace dyntrace
