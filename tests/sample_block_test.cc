// Tests for the SampleBlock APIs: block-sampled moments must match the
// scalar samplers', and — the contract the batched encode path relies on —
// a block of n draws must consume the underlying RandomGenerator exactly
// like n scalar draws (in exact mode, the identical RandInt sequence).
#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "sampling/approx_samplers.h"
#include "sampling/noise_sampler.h"

namespace smm::sampling {
namespace {

struct Moments {
  double mean = 0.0;
  double variance = 0.0;
};

Moments ComputeMoments(const std::vector<int64_t>& draws) {
  Moments m;
  for (int64_t v : draws) m.mean += static_cast<double>(v);
  m.mean /= static_cast<double>(draws.size());
  for (int64_t v : draws) {
    const double d = static_cast<double>(v) - m.mean;
    m.variance += d * d;
  }
  m.variance /= static_cast<double>(draws.size());
  return m;
}

template <typename Sampler>
std::vector<int64_t> ScalarDraws(Sampler& sampler, size_t n, uint64_t seed) {
  RandomGenerator rng(seed);
  std::vector<int64_t> draws(n);
  for (auto& v : draws) v = sampler.Sample(rng);
  return draws;
}

template <typename Sampler>
std::vector<int64_t> BlockDraws(Sampler& sampler, size_t n, uint64_t seed) {
  RandomGenerator rng(seed);
  std::vector<int64_t> draws(n);
  sampler.SampleBlock(n, draws.data(), rng);
  return draws;
}

// ---------------------------------------------------------------------------
// Moment agreement (block vs scalar vs analytic).
// ---------------------------------------------------------------------------

TEST(SampleBlockTest, SkellamBlockMomentsMatchScalar) {
  constexpr size_t kN = 200000;
  constexpr double kLambda = 2.0;
  auto sampler = SkellamSampler::Create(kLambda).value();
  const Moments block = ComputeMoments(BlockDraws(sampler, kN, 11));
  const Moments scalar = ComputeMoments(ScalarDraws(sampler, kN, 12));
  const double var = sampler.variance();  // 2 * lambda.
  EXPECT_NEAR(block.mean, 0.0, 0.05);
  EXPECT_NEAR(scalar.mean, 0.0, 0.05);
  EXPECT_NEAR(block.variance / var, 1.0, 0.05);
  EXPECT_NEAR(block.variance / scalar.variance, 1.0, 0.1);
}

// Every benchmark workload calibrates lambda >= 10, where the approximate
// Poisson draw takes the PTRS path rather than Knuth's; pin its moments
// there. A Skellam mean is zero whatever the Poisson draws' bias, so the
// Poisson sampler's own mean is checked too.
class SkellamPtrsMomentsTest : public ::testing::TestWithParam<double> {};

TEST_P(SkellamPtrsMomentsTest, BlockMomentsMatchAnalytic) {
  constexpr size_t kN = 200000;
  const double lambda = GetParam();
  auto sampler = SkellamSampler::Create(lambda).value();
  const Moments block = ComputeMoments(
      BlockDraws(sampler, kN, 40 + static_cast<uint64_t>(lambda)));
  const double var = sampler.variance();
  // 5 standard errors of each estimate.
  EXPECT_NEAR(block.mean, 0.0, 5.0 * std::sqrt(var / kN));
  EXPECT_NEAR(block.variance / var, 1.0, 5.0 * std::sqrt(2.0 / kN) + 0.005);

  const PoissonApproxSampler poisson(lambda);
  RandomGenerator rng(50 + static_cast<uint64_t>(lambda));
  std::vector<int64_t> draws(kN);
  for (auto& v : draws) v = poisson.Sample(rng);
  const Moments p = ComputeMoments(draws);
  EXPECT_NEAR(p.mean, lambda, 5.0 * std::sqrt(lambda / kN));
  EXPECT_NEAR(p.variance / lambda, 1.0, 5.0 * std::sqrt(2.0 / kN) + 0.005);
}

INSTANTIATE_TEST_SUITE_P(WorkloadLambdas, SkellamPtrsMomentsTest,
                         ::testing::Values(10.0, 22.4, 121.6, 380.0));

TEST(SampleBlockTest, DiscreteGaussianBlockMomentsMatchScalar) {
  constexpr size_t kN = 200000;
  constexpr double kSigma = 3.0;
  auto sampler = DiscreteGaussianSampler::Create(kSigma).value();
  const Moments block = ComputeMoments(BlockDraws(sampler, kN, 21));
  const Moments scalar = ComputeMoments(ScalarDraws(sampler, kN, 22));
  EXPECT_NEAR(block.mean, 0.0, 0.05);
  EXPECT_NEAR(block.variance / sampler.variance(), 1.0, 0.05);
  EXPECT_NEAR(block.variance / scalar.variance, 1.0, 0.1);
}

TEST(SampleBlockTest, CenteredBinomialBlockMomentsMatchScalar) {
  constexpr size_t kN = 200000;
  constexpr int64_t kTrials = 64;
  auto sampler = CenteredBinomialSampler::Create(kTrials).value();
  const Moments block = ComputeMoments(BlockDraws(sampler, kN, 31));
  const Moments scalar = ComputeMoments(ScalarDraws(sampler, kN, 32));
  EXPECT_NEAR(block.mean, 0.0, 0.05);
  EXPECT_NEAR(block.variance / sampler.variance(), 1.0, 0.05);
  EXPECT_NEAR(block.variance / scalar.variance, 1.0, 0.1);
}

// ---------------------------------------------------------------------------
// RNG-consumption identity: a block of n draws equals n scalar draws from an
// identically seeded generator, and leaves the generator in the same state.
// ---------------------------------------------------------------------------

template <typename Sampler>
void ExpectBlockConsumesLikeScalar(Sampler& sampler, uint64_t seed,
                                   size_t n) {
  RandomGenerator scalar_rng(seed);
  RandomGenerator block_rng(seed);
  std::vector<int64_t> scalar_draws(n);
  for (auto& v : scalar_draws) v = sampler.Sample(scalar_rng);
  std::vector<int64_t> block_draws(n);
  sampler.SampleBlock(n, block_draws.data(), block_rng);
  EXPECT_EQ(scalar_draws, block_draws);
  // Same post-state == same number of bits consumed.
  EXPECT_EQ(scalar_rng.NextBits(), block_rng.NextBits());
}

TEST(SampleBlockTest, ExactSkellamBlockConsumesRandIntIdentically) {
  // The exact samplers draw randomness only through RandInt (Appendix A);
  // identical output + identical post-state means the RandInt sequence of
  // the block path matches the scalar path draw for draw.
  auto sampler = SkellamSampler::Create(1.5, SamplerMode::kExact).value();
  ExpectBlockConsumesLikeScalar(sampler, 101, 512);
}

TEST(SampleBlockTest, ExactDiscreteGaussianBlockConsumesRandIntIdentically) {
  auto sampler =
      DiscreteGaussianSampler::Create(2.0, SamplerMode::kExact).value();
  ExpectBlockConsumesLikeScalar(sampler, 102, 512);
}

TEST(SampleBlockTest, ApproximateBlocksAreBitCompatibleWithScalar) {
  auto skellam = SkellamSampler::Create(3.0).value();
  ExpectBlockConsumesLikeScalar(skellam, 103, 2048);
  auto skellam_ptrs = SkellamSampler::Create(121.6).value();
  ExpectBlockConsumesLikeScalar(skellam_ptrs, 107, 2048);
  auto dgauss = DiscreteGaussianSampler::Create(1.5).value();
  ExpectBlockConsumesLikeScalar(dgauss, 104, 2048);
}

TEST(SampleBlockTest, BinomialBlocksAreBitCompatibleWithScalar) {
  auto exact_path = CenteredBinomialSampler::Create(100).value();
  ExpectBlockConsumesLikeScalar(exact_path, 105, 2048);
  // Large trial counts switch to the normal approximation; the block must
  // follow the same path (including the Gaussian pair-caching).
  auto approx_path = CenteredBinomialSampler::Create(200001).value();
  ExpectBlockConsumesLikeScalar(approx_path, 106, 2048);
}

}  // namespace
}  // namespace smm::sampling
