#include "sim/stats.hpp"

#include <gtest/gtest.h>

namespace dyntrace::sim {
namespace {

TEST(Accumulator, BasicMoments) {
  Accumulator a;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) a.add(v);
  EXPECT_EQ(a.count(), 8u);
  EXPECT_DOUBLE_EQ(a.sum(), 40.0);
  EXPECT_DOUBLE_EQ(a.mean(), 5.0);
  EXPECT_DOUBLE_EQ(a.min(), 2.0);
  EXPECT_DOUBLE_EQ(a.max(), 9.0);
}

TEST(Accumulator, EmptyIsZero) {
  Accumulator a;
  EXPECT_EQ(a.count(), 0u);
  EXPECT_DOUBLE_EQ(a.mean(), 0.0);
  EXPECT_DOUBLE_EQ(a.min(), 0.0);
  EXPECT_DOUBLE_EQ(a.max(), 0.0);
}

}  // namespace
}  // namespace dyntrace::sim
