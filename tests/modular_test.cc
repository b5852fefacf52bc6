#include "secagg/modular.h"

#include <gtest/gtest.h>

namespace smm::secagg {
namespace {

TEST(ModReduceTest, NonNegativeValues) {
  EXPECT_EQ(ModReduce(0, 8), 0u);
  EXPECT_EQ(ModReduce(5, 8), 5u);
  EXPECT_EQ(ModReduce(8, 8), 0u);
  EXPECT_EQ(ModReduce(13, 8), 5u);
}

TEST(ModReduceTest, NegativeValues) {
  EXPECT_EQ(ModReduce(-1, 8), 7u);
  EXPECT_EQ(ModReduce(-8, 8), 0u);
  EXPECT_EQ(ModReduce(-13, 8), 3u);
}

TEST(CenterLiftTest, MatchesAlgorithm6Mapping) {
  // Values in {0, ..., m/2 - 1} stay; {m/2, ..., m-1} map to negatives.
  const uint64_t m = 8;
  EXPECT_EQ(CenterLift(0, m), 0);
  EXPECT_EQ(CenterLift(3, m), 3);
  EXPECT_EQ(CenterLift(4, m), -4);
  EXPECT_EQ(CenterLift(7, m), -1);
}

TEST(CenterLiftTest, OddModulusBoundaryStaysPositive) {
  // For odd m the centered window is symmetric, [-(m-1)/2, (m-1)/2], so the
  // boundary value floor(m/2) is the most-positive representative — the old
  // `value >= m / 2` condition lifted it to -(m+1)/2, outside the window.
  EXPECT_EQ(CenterLift(1, 3), 1);
  EXPECT_EQ(CenterLift(2, 3), -1);
  EXPECT_EQ(CenterLift(2, 5), 2);
  EXPECT_EQ(CenterLift(3, 5), -2);
  EXPECT_EQ(CenterLift(4, 5), -1);
}

class WrapRoundTripTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(WrapRoundTripTest, LiftInvertsReduceInCenteredRange) {
  const uint64_t m = GetParam();
  // The representable window for either parity: [-floor(m/2), (m-1)/2].
  const int64_t lo = -static_cast<int64_t>(m / 2);
  const int64_t hi = static_cast<int64_t>((m - 1) / 2);
  for (int64_t v = lo; v <= hi; ++v) {
    EXPECT_EQ(CenterLift(ModReduce(v, m), m), v) << "m=" << m << " v=" << v;
  }
}

INSTANTIATE_TEST_SUITE_P(Moduli, WrapRoundTripTest,
                         ::testing::Values(2, 3, 5, 7, 8, 64, 255, 256, 1023,
                                           1024));

TEST(WrapRoundTripTest, ValuesOutsideRangeWrapIrrecoverably) {
  const uint64_t m = 8;
  // +4 is outside [-4, 4): wraps to -4.
  EXPECT_EQ(CenterLift(ModReduce(4, m), m), -4);
  EXPECT_EQ(CenterLift(ModReduce(-5, m), m), 3);
  // Odd m = 5: +3 is outside [-2, 2] and wraps to -2; -3 wraps to +2.
  EXPECT_EQ(CenterLift(ModReduce(3, 5), 5), -2);
  EXPECT_EQ(CenterLift(ModReduce(-3, 5), 5), 2);
}

TEST(VectorOpsTest, LiftVectorInvertsModReduce) {
  const std::vector<int64_t> v = {-3, 0, 3, -1};
  std::vector<uint64_t> reduced;
  for (int64_t x : v) reduced.push_back(ModReduce(x, 8));
  EXPECT_EQ(reduced, (std::vector<uint64_t>{5, 0, 3, 7}));
  EXPECT_EQ(LiftVector(reduced, 8), v);
}

}  // namespace
}  // namespace smm::secagg
