#include "transform/walsh_hadamard.h"

#include <cmath>
#include <cstddef>

#include <gtest/gtest.h>

#include "common/parallel.h"
#include "common/random.h"
#include "transform/random_rotation.h"

namespace smm::transform {
namespace {

TEST(WalshHadamardTest, RejectsNonPowerOfTwo) {
  std::vector<double> v(3, 1.0);
  EXPECT_FALSE(FastWalshHadamard(v).ok());
  std::vector<double> empty;
  EXPECT_FALSE(FastWalshHadamard(empty).ok());
}

TEST(WalshHadamardTest, DimensionOneIsIdentity) {
  std::vector<double> v = {3.5};
  ASSERT_TRUE(FastWalshHadamard(v).ok());
  EXPECT_DOUBLE_EQ(v[0], 3.5);
}

TEST(WalshHadamardTest, KnownTwoDimensionalValues) {
  std::vector<double> v = {1.0, 0.0};
  ASSERT_TRUE(FastWalshHadamard(v).ok());
  const double s = 1.0 / std::sqrt(2.0);
  EXPECT_NEAR(v[0], s, 1e-12);
  EXPECT_NEAR(v[1], s, 1e-12);
}

TEST(WalshHadamardTest, IsInvolution) {
  RandomGenerator rng(1);
  std::vector<double> v(64);
  for (double& x : v) x = rng.Gaussian(0.0, 1.0);
  std::vector<double> original = v;
  ASSERT_TRUE(FastWalshHadamard(v).ok());
  ASSERT_TRUE(FastWalshHadamard(v).ok());
  for (size_t i = 0; i < v.size(); ++i) EXPECT_NEAR(v[i], original[i], 1e-10);
}

class WalshHadamardNormTest : public ::testing::TestWithParam<size_t> {};

TEST_P(WalshHadamardNormTest, PreservesL2Norm) {
  const size_t d = GetParam();
  RandomGenerator rng(d);
  std::vector<double> v(d);
  for (double& x : v) x = rng.Gaussian(0.0, 1.0);
  double norm_before = 0.0;
  for (double x : v) norm_before += x * x;
  ASSERT_TRUE(FastWalshHadamard(v).ok());
  double norm_after = 0.0;
  for (double x : v) norm_after += x * x;
  EXPECT_NEAR(norm_after / norm_before, 1.0, 1e-10);
}

INSTANTIATE_TEST_SUITE_P(Dims, WalshHadamardNormTest,
                         ::testing::Values(1, 2, 4, 64, 1024, 4096, 8192));

TEST(WalshHadamardTest, BlockedKernelMatchesNaiveReference) {
  // 8192 > the kernel's cache-block size, so this exercises the two-phase
  // (block-local stages + cross-block stages) path against the textbook
  // stage-by-stage loop. Identical associations, so results are exact.
  const size_t d = 8192;
  RandomGenerator rng(3);
  std::vector<double> v(d);
  for (double& x : v) x = rng.Gaussian(0.0, 1.0);
  std::vector<double> reference = v;
  for (size_t h = 1; h < d; h <<= 1) {
    for (size_t i = 0; i < d; i += h << 1) {
      for (size_t j = i; j < i + h; ++j) {
        const double x = reference[j];
        const double y = reference[j + h];
        reference[j] = x + y;
        reference[j + h] = x - y;
      }
    }
  }
  const double scale = 1.0 / std::sqrt(static_cast<double>(d));
  for (double& x : reference) x *= scale;
  ASSERT_TRUE(FastWalshHadamard(v).ok());
  for (size_t j = 0; j < d; ++j) {
    ASSERT_DOUBLE_EQ(v[j], reference[j]) << "coordinate " << j;
  }
}

class WalshHadamardBatchTest : public ::testing::TestWithParam<size_t> {};

TEST_P(WalshHadamardBatchTest, BatchMatchesScalarBitForBit) {
  const size_t d = GetParam();
  const size_t batch = 5;
  RandomGenerator rng(7 + d);
  std::vector<double> flat(batch * d);
  for (double& x : flat) x = rng.Gaussian(0.0, 1.0);
  // Scalar reference: each row through the vector API.
  std::vector<std::vector<double>> rows(batch);
  for (size_t r = 0; r < batch; ++r) {
    rows[r].assign(flat.begin() + static_cast<ptrdiff_t>(r * d),
                   flat.begin() + static_cast<ptrdiff_t>((r + 1) * d));
    ASSERT_TRUE(FastWalshHadamard(rows[r]).ok());
  }
  ASSERT_TRUE(FastWalshHadamardBatch(flat.data(), batch, d).ok());
  for (size_t r = 0; r < batch; ++r) {
    for (size_t j = 0; j < d; ++j) {
      ASSERT_EQ(flat[r * d + j], rows[r][j])
          << "row " << r << " coordinate " << j;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Dims, WalshHadamardBatchTest,
                         ::testing::Values(1, 2, 64, 1024, 4096));

TEST(WalshHadamardTest, BatchIsThreadCountInvariant) {
  const size_t d = 512;
  const size_t batch = 7;  // Not a multiple of any chunk count.
  RandomGenerator rng(9);
  std::vector<double> reference(batch * d);
  for (double& x : reference) x = rng.Gaussian(0.0, 1.0);
  const std::vector<double> original = reference;
  ASSERT_TRUE(FastWalshHadamardBatch(reference.data(), batch, d).ok());
  for (int threads : {2, 8}) {
    ThreadPool pool(threads);
    std::vector<double> parallel = original;
    ASSERT_TRUE(
        FastWalshHadamardBatch(parallel.data(), batch, d, &pool).ok());
    EXPECT_EQ(reference, parallel) << threads << " threads";
  }
}

TEST(WalshHadamardTest, BatchRejectsBadDimension) {
  std::vector<double> flat(9, 1.0);
  EXPECT_FALSE(FastWalshHadamardBatch(flat.data(), 3, 3).ok());
  EXPECT_FALSE(FastWalshHadamardBatch(flat.data(), 1, 0).ok());
  EXPECT_TRUE(FastWalshHadamardBatch(nullptr, 0, 4).ok());  // Empty batch.
  EXPECT_FALSE(FastWalshHadamardBatch(nullptr, 2, 4).ok());
}

TEST(WalshHadamardTest, FlattensSpikes) {
  // A one-hot vector spreads to uniform magnitude 1/sqrt(d) — the property
  // that limits overflow (Section 4).
  std::vector<double> v(256, 0.0);
  v[17] = 1.0;
  ASSERT_TRUE(FastWalshHadamard(v).ok());
  for (double x : v) EXPECT_NEAR(std::abs(x), 1.0 / 16.0, 1e-12);
}

TEST(PadToPowerOfTwoTest, PadsAndPreserves) {
  const std::vector<double> x = {1.0, 2.0, 3.0};
  const std::vector<double> p = PadToPowerOfTwo(x);
  ASSERT_EQ(p.size(), 4u);
  EXPECT_EQ(p[0], 1.0);
  EXPECT_EQ(p[2], 3.0);
  EXPECT_EQ(p[3], 0.0);
  EXPECT_EQ(PadToPowerOfTwo(p).size(), 4u);  // Already a power of two.
}

TEST(RandomRotationTest, RejectsBadDimensions) {
  EXPECT_FALSE(RandomRotation::Create(0, 1).ok());
  EXPECT_FALSE(RandomRotation::Create(3, 1).ok());
}

TEST(RandomRotationTest, InverseUndoesApply) {
  auto rotation = RandomRotation::Create(128, 99);
  ASSERT_TRUE(rotation.ok());
  RandomGenerator rng(5);
  std::vector<double> x(128);
  for (double& v : x) v = rng.Gaussian(0.0, 1.0);
  auto y = rotation->Apply(x);
  ASSERT_TRUE(y.ok());
  auto back = rotation->Inverse(*y);
  ASSERT_TRUE(back.ok());
  for (size_t i = 0; i < x.size(); ++i) EXPECT_NEAR((*back)[i], x[i], 1e-10);
}

TEST(RandomRotationTest, SameSeedSameRotation) {
  auto r1 = RandomRotation::Create(64, 7);
  auto r2 = RandomRotation::Create(64, 7);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r1->signs(), r2->signs());
}

TEST(RandomRotationTest, DifferentSeedsDiffer) {
  auto r1 = RandomRotation::Create(64, 7);
  auto r2 = RandomRotation::Create(64, 8);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_NE(r1->signs(), r2->signs());
}

TEST(RandomRotationTest, FlattensConcentratedVectors) {
  // Section 4: each rotated coordinate is sub-Gaussian with variance
  // O(||x||^2 / d); check the max coordinate of a rotated one-hot input.
  const size_t d = 4096;
  auto rotation = RandomRotation::Create(d, 3);
  ASSERT_TRUE(rotation.ok());
  std::vector<double> x(d, 0.0);
  x[7] = 1.0;
  auto y = rotation->Apply(x);
  ASSERT_TRUE(y.ok());
  double max_abs = 0.0;
  for (double v : *y) max_abs = std::max(max_abs, std::abs(v));
  EXPECT_LE(max_abs, 1.0 / std::sqrt(static_cast<double>(d)) + 1e-12);
}

TEST(RandomRotationTest, DimensionMismatchRejected) {
  auto rotation = RandomRotation::Create(64, 7);
  ASSERT_TRUE(rotation.ok());
  std::vector<double> wrong(32, 1.0);
  EXPECT_FALSE(rotation->Apply(wrong).ok());
  EXPECT_FALSE(rotation->Inverse(wrong).ok());
}

// ApplyRawBatchInto leaves the 1/sqrt(d) normalization to the caller:
// multiplying each raw row by 1.0 / std::sqrt(d) must reproduce Apply bit
// for bit (the identity FastWalshHadamardKernelUnnormalized documents).
TEST(RandomRotationTest, BatchApplyMatchesScalarBitForBit) {
  const size_t d = 256;
  auto rotation = RandomRotation::Create(d, 17);
  ASSERT_TRUE(rotation.ok());
  RandomGenerator rng(23);
  std::vector<std::vector<double>> xs(6, std::vector<double>(d));
  for (auto& x : xs) {
    for (double& v : x) v = rng.Gaussian(0.0, 1.0);
  }
  // Scalar reference over the middle sub-range [1, 5).
  std::vector<std::vector<double>> expected;
  for (size_t i = 1; i < 5; ++i) {
    auto y = rotation->Apply(xs[i]);
    ASSERT_TRUE(y.ok());
    expected.push_back(std::move(*y));
  }
  std::vector<double> flat;
  ASSERT_TRUE(rotation->ApplyRawBatchInto(xs, 1, 5, flat).ok());
  ASSERT_EQ(flat.size(), 4 * d);
  const double norm = 1.0 / std::sqrt(static_cast<double>(d));
  for (size_t r = 0; r < 4; ++r) {
    for (size_t j = 0; j < d; ++j) {
      ASSERT_EQ(flat[r * d + j] * norm, expected[r][j])
          << "row " << r << " coordinate " << j;
    }
  }
  for (int threads : {2, 8}) {
    ThreadPool pool(threads);
    std::vector<double> parallel;
    ASSERT_TRUE(rotation->ApplyRawBatchInto(xs, 1, 5, parallel, &pool).ok());
    EXPECT_EQ(flat, parallel) << threads << " threads";
  }
}

TEST(RandomRotationTest, BatchApplyValidates) {
  auto rotation = RandomRotation::Create(64, 7);
  ASSERT_TRUE(rotation.ok());
  std::vector<double> flat;
  std::vector<std::vector<double>> xs(2, std::vector<double>(64, 1.0));
  EXPECT_FALSE(rotation->ApplyRawBatchInto(xs, 1, 3, flat).ok());  // Range.
  xs[1].resize(32);  // Ragged row.
  EXPECT_FALSE(rotation->ApplyRawBatchInto(xs, 0, 2, flat).ok());
}

}  // namespace
}  // namespace smm::transform
