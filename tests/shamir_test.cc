#include "secagg/shamir.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "common/random.h"

namespace smm::secagg {
namespace {

TEST(ShamirTest, SplitRejectsBadParameters) {
  RandomGenerator rng(1);
  EXPECT_FALSE(ShamirSplit(kShamirPrime, 2, 3, rng).ok());  // Secret too big.
  EXPECT_FALSE(ShamirSplit(5, 0, 3, rng).ok());
  EXPECT_FALSE(ShamirSplit(5, 4, 3, rng).ok());
}

TEST(ShamirTest, RoundTripWithExactThreshold) {
  RandomGenerator rng(2);
  const uint64_t secret = 123456789ULL;
  auto shares = ShamirSplit(secret, 3, 5, rng);
  ASSERT_TRUE(shares.ok());
  ASSERT_EQ(shares->size(), 5u);
  const std::vector<ShamirShare> subset(shares->begin(), shares->begin() + 3);
  auto recovered = ShamirReconstruct(subset, 3);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(*recovered, secret);
}

TEST(ShamirTest, AnyThresholdSubsetReconstructs) {
  RandomGenerator rng(3);
  const uint64_t secret = 987654321ULL;
  auto shares = ShamirSplit(secret, 2, 4, rng);
  ASSERT_TRUE(shares.ok());
  for (size_t i = 0; i < 4; ++i) {
    for (size_t j = i + 1; j < 4; ++j) {
      const std::vector<ShamirShare> subset = {(*shares)[i], (*shares)[j]};
      auto recovered = ShamirReconstruct(subset, 2);
      ASSERT_TRUE(recovered.ok());
      EXPECT_EQ(*recovered, secret) << "subset {" << i << "," << j << "}";
    }
  }
}

TEST(ShamirTest, TooFewSharesFail) {
  RandomGenerator rng(4);
  auto shares = ShamirSplit(42, 3, 5, rng);
  ASSERT_TRUE(shares.ok());
  const std::vector<ShamirShare> subset(shares->begin(), shares->begin() + 2);
  EXPECT_FALSE(ShamirReconstruct(subset, 3).ok());
}

TEST(ShamirTest, DuplicatePointsRejected) {
  RandomGenerator rng(5);
  auto shares = ShamirSplit(42, 2, 3, rng);
  ASSERT_TRUE(shares.ok());
  const std::vector<ShamirShare> dup = {(*shares)[0], (*shares)[0]};
  EXPECT_FALSE(ShamirReconstruct(dup, 2).ok());
  // x and x + p are the same field point: interpolating over both would
  // divide by zero.
  std::vector<ShamirShare> congruent = dup;
  congruent[1].x += kShamirPrime;
  auto secret = ShamirReconstruct(congruent, 2);
  ASSERT_FALSE(secret.ok());
  EXPECT_EQ(secret.status().code(), StatusCode::kInvalidArgument);
}

TEST(ShamirTest, NonPositiveThresholdRejected) {
  RandomGenerator rng(8);
  auto shares = ShamirSplit(42, 2, 3, rng);
  ASSERT_TRUE(shares.ok());
  for (const int threshold : {0, -3}) {
    auto secret = ShamirReconstruct(*shares, threshold);
    ASSERT_FALSE(secret.ok()) << "threshold " << threshold;
    EXPECT_EQ(secret.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(ShamirTest, PointAtPrimeRejected) {
  // x = p is the field point 0, where the secret itself sits.
  RandomGenerator rng(9);
  auto shares = ShamirSplit(42, 2, 3, rng);
  ASSERT_TRUE(shares.ok());
  std::vector<ShamirShare> bad = {(*shares)[0], (*shares)[1]};
  bad[1].x = kShamirPrime;
  auto secret = ShamirReconstruct(bad, 2);
  ASSERT_FALSE(secret.ok());
  EXPECT_EQ(secret.status().code(), StatusCode::kInvalidArgument);
}

TEST(ShamirTest, BasisInterpolatesConstantsAndLowDegreePolynomials) {
  // Interpolating the constant 1 gives sum_i l_i = 1; interpolating
  // f(x) = x (degree 1 < threshold) gives f(0) = 0.
  const std::vector<uint64_t> points = {3, 1, 7, kShamirPrime - 1, 12};
  for (int threshold = 2; threshold <= 5; ++threshold) {
    auto basis = ShamirBasisAtZero(points, threshold);
    ASSERT_TRUE(basis.ok());
    ASSERT_EQ(basis->size(), static_cast<size_t>(threshold));
    const std::vector<uint64_t> ones(points.size(), 1);
    EXPECT_EQ(ShamirCombineAtZero(*basis, ones), 1u);
    EXPECT_EQ(ShamirCombineAtZero(*basis, points), 0u);
  }
}

TEST(ShamirTest, BelowThresholdSharesLookUnrelatedToSecret) {
  // With threshold 2, a single share value should vary wildly across
  // splits of the same secret (information-theoretic hiding).
  RandomGenerator rng(6);
  const uint64_t secret = 7;
  std::vector<uint64_t> first_share_values;
  for (int trial = 0; trial < 8; ++trial) {
    auto shares = ShamirSplit(secret, 2, 3, rng);
    ASSERT_TRUE(shares.ok());
    first_share_values.push_back((*shares)[0].y);
  }
  std::sort(first_share_values.begin(), first_share_values.end());
  first_share_values.erase(
      std::unique(first_share_values.begin(), first_share_values.end()),
      first_share_values.end());
  EXPECT_GE(first_share_values.size(), 7u);
}

TEST(ShamirTest, ThresholdOneIsConstantPolynomial) {
  RandomGenerator rng(7);
  auto shares = ShamirSplit(55, 1, 3, rng);
  ASSERT_TRUE(shares.ok());
  for (const auto& s : *shares) EXPECT_EQ(s.y, 55u);
}

class ShamirParamTest
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(ShamirParamTest, RoundTripAcrossConfigurations) {
  const auto [threshold, num_shares] = GetParam();
  RandomGenerator rng(static_cast<uint64_t>(threshold * 100 + num_shares));
  const uint64_t secret = rng.UniformUint64(kShamirPrime);
  auto shares = ShamirSplit(secret, threshold, num_shares, rng);
  ASSERT_TRUE(shares.ok());
  // Use the *last* threshold shares (not the first) to vary the points.
  const std::vector<ShamirShare> subset(shares->end() - threshold,
                                        shares->end());
  auto recovered = ShamirReconstruct(subset, threshold);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(*recovered, secret);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, ShamirParamTest,
    ::testing::Values(std::pair<int, int>{1, 1}, std::pair<int, int>{2, 2},
                      std::pair<int, int>{2, 5}, std::pair<int, int>{5, 8},
                      std::pair<int, int>{10, 20}));

}  // namespace
}  // namespace smm::secagg
