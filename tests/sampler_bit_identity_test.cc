// The approximate samplers hold their per-parameter constants and a
// log-factorial window computed once at construction. These tests pin that
// the precomputation changes nothing: against verbatim copies of the
// per-draw functions the classes replaced, every draw and the generator's
// stream position afterwards are identical, and every window entry equals
// the log-gamma value it stands for, bit for bit. A last test draws from
// one shared sampler on several threads, as the encode shards do.
#include <cassert>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "sampling/approx_samplers.h"
#include "sampling/noise_sampler.h"

namespace smm::sampling {
namespace {

// ---------------------------------------------------------------------------
// Reference: the per-draw samplers as they were before the precomputation,
// copied verbatim.
// ---------------------------------------------------------------------------
namespace reference {

double LogGammaPositive(double x) {
  static constexpr double kCoeffs[9] = {
      0.99999999999980993,     676.5203681218851,     -1259.1392167224028,
      771.32342877765313,      -176.61502916214059,   12.507343278686905,
      -0.13857109526572012,    9.9843695780195716e-6, 1.5056327351493116e-7};
  constexpr double kHalfLog2Pi = 0.91893853320467274178;
  double series = kCoeffs[0];
  for (int i = 1; i < 9; ++i) {
    series += kCoeffs[i] / (x + static_cast<double>(i) - 1.0);
  }
  const double t = x + 6.5;
  return kHalfLog2Pi + (x - 0.5) * std::log(t) - t + std::log(series);
}

int64_t SamplePoissonApprox(double lambda, RandomGenerator& rng) {
  assert(lambda >= 0.0);
  if (lambda == 0.0) return 0;
  if (lambda < 10.0) {
    const double threshold = std::exp(-lambda);
    int64_t k = 0;
    double product = rng.UniformDouble();
    while (product > threshold) {
      ++k;
      product *= rng.UniformDouble();
    }
    return k;
  }
  const double log_lambda = std::log(lambda);
  const double b = 0.931 + 2.53 * std::sqrt(lambda);
  const double a = -0.059 + 0.02483 * b;
  const double inv_alpha = 1.1239 + 1.1328 / (b - 3.4);
  const double v_r = 0.9277 - 3.6224 / (b - 2.0);
  while (true) {
    const double u = rng.UniformDouble() - 0.5;
    const double v = rng.UniformDouble();
    const double us = 0.5 - std::abs(u);
    const double k = std::floor((2.0 * a / us + b) * u + lambda + 0.43);
    if (us >= 0.07 && v <= v_r) return static_cast<int64_t>(k);
    if (k < 0.0 || (us < 0.013 && v > us)) continue;
    if (std::log(v) + std::log(inv_alpha) - std::log(a / (us * us) + b) <=
        k * log_lambda - lambda - LogGammaPositive(k + 1.0)) {
      return static_cast<int64_t>(k);
    }
  }
}

int64_t SampleSkellamApprox(double lambda, RandomGenerator& rng) {
  const int64_t first = SamplePoissonApprox(lambda, rng);
  const int64_t second = SamplePoissonApprox(lambda, rng);
  return first - second;
}

int64_t SampleDiscreteGaussianApprox(double sigma, RandomGenerator& rng) {
  assert(sigma > 0.0);
  const int64_t t = static_cast<int64_t>(std::floor(sigma)) + 1;
  const double sigma2 = sigma * sigma;
  const double geo_success = 1.0 - std::exp(-1.0);
  while (true) {
    const int64_t u =
        static_cast<int64_t>(rng.UniformDouble() * static_cast<double>(t));
    if (!rng.Bernoulli(std::exp(-static_cast<double>(u) / t))) continue;
    int64_t v = 0;
    while (!rng.Bernoulli(geo_success)) ++v;
    const int64_t x = u + t * v;
    const bool negative = rng.Bernoulli(0.5);
    if (negative && x == 0) continue;
    const int64_t y = negative ? -x : x;
    const double dev = std::abs(static_cast<double>(y)) - sigma2 / t;
    if (rng.Bernoulli(std::exp(-dev * dev / (2.0 * sigma2)))) return y;
  }
}

}  // namespace reference

uint64_t Bits(double x) {
  uint64_t bits;
  std::memcpy(&bits, &x, sizeof(bits));
  return bits;
}

// Knuth path (< 10), its boundary, and the PTRS path at the calibrated
// lambdas of the benchmark workloads and beyond, up to the capped window.
const double kLambdas[] = {1e-3,   0.5,    9.999,  10.0, 10.5, 22.437,
                           104.79, 121.56, 379.87, 1e4,  1e6};

class PoissonBitIdentityTest : public ::testing::TestWithParam<double> {};

TEST_P(PoissonBitIdentityTest, DrawsAndStreamPositionMatchReference) {
  constexpr size_t kDraws = size_t{1} << 18;
  const double lambda = GetParam();
  const PoissonApproxSampler sampler(lambda);
  const uint64_t seed = 1000 + static_cast<uint64_t>(lambda);
  RandomGenerator ref_rng(seed);
  RandomGenerator rng(seed);
  size_t mismatches = 0;
  for (size_t i = 0; i < kDraws; ++i) {
    const int64_t want = reference::SamplePoissonApprox(lambda, ref_rng);
    const int64_t got = sampler.Sample(rng);
    if (want != got && mismatches++ == 0) {
      ADD_FAILURE() << "first mismatch at draw " << i << ": " << got
                    << " != " << want;
    }
  }
  EXPECT_EQ(mismatches, 0u);
  EXPECT_EQ(rng.NextBits(), ref_rng.NextBits());
}

TEST_P(PoissonBitIdentityTest, SkellamBlockMatchesReferenceDrawOrder) {
  constexpr size_t kDraws = size_t{1} << 14;
  const double lambda = GetParam();
  const auto sampler = SkellamSampler::Create(lambda).value();
  const uint64_t seed = 2000 + static_cast<uint64_t>(lambda);
  RandomGenerator ref_rng(seed);
  std::vector<int64_t> want(kDraws);
  for (auto& v : want) v = reference::SampleSkellamApprox(lambda, ref_rng);
  RandomGenerator rng(seed);
  std::vector<int64_t> got(kDraws);
  sampler.SampleBlock(kDraws, got.data(), rng);
  EXPECT_EQ(got, want);
  EXPECT_EQ(rng.NextBits(), ref_rng.NextBits());
}

TEST_P(PoissonBitIdentityTest, LogFactorialWindowMatchesLogGamma) {
  const double lambda = GetParam();
  const PoissonApproxSampler sampler(lambda);
  const int64_t window_end =
      sampler.log_factorial_window_begin() +
      static_cast<int64_t>(sampler.log_factorial_window_size());
  size_t mismatches = 0;
  for (int64_t k = 0; k <= window_end + 64; ++k) {
    const double kd = static_cast<double>(k);
    if (Bits(sampler.LogFactorial(kd)) !=
            Bits(reference::LogGammaPositive(kd + 1.0)) &&
        mismatches++ == 0) {
      ADD_FAILURE() << "first mismatch at k = " << k;
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

INSTANTIATE_TEST_SUITE_P(Lambdas, PoissonBitIdentityTest,
                         ::testing::ValuesIn(kLambdas));

TEST(PoissonWindowTest, ShapeFollowsLambda) {
  // Knuth path: no log-gamma, no window.
  EXPECT_EQ(PoissonApproxSampler(9.999).log_factorial_window_size(), 0u);
  // Small lambda: the window is clamped at k = 0.
  const PoissonApproxSampler clamped(10.0);
  EXPECT_EQ(clamped.log_factorial_window_begin(), 0);
  EXPECT_GT(static_cast<double>(clamped.log_factorial_window_size()),
            10.0 + 12.0 * std::sqrt(10.0));
  // Mid lambda: lambda +- (12 sqrt(lambda) + 16).
  const PoissonApproxSampler mid(379.87);
  EXPECT_EQ(mid.log_factorial_window_begin(),
            static_cast<int64_t>(std::floor(379.87 - 12.0 * std::sqrt(379.87) -
                                            16.0)));
  // Large lambda: capped at 4096 entries around lambda.
  const PoissonApproxSampler capped(1e6);
  EXPECT_EQ(capped.log_factorial_window_size(), 4096u);
  EXPECT_LT(capped.log_factorial_window_begin(), 1000000);
  EXPECT_GT(capped.log_factorial_window_begin() + 4096, 1000000);
}

class DiscreteGaussianBitIdentityTest
    : public ::testing::TestWithParam<double> {};

TEST_P(DiscreteGaussianBitIdentityTest, DrawsAndStreamPositionMatchReference) {
  constexpr size_t kDraws = size_t{1} << 16;
  const double sigma = GetParam();
  const auto sampler = DiscreteGaussianSampler::Create(sigma).value();
  const uint64_t seed = 3000 + static_cast<uint64_t>(sigma * 10);
  RandomGenerator ref_rng(seed);
  std::vector<int64_t> want(kDraws);
  for (auto& v : want) {
    v = reference::SampleDiscreteGaussianApprox(sigma, ref_rng);
  }
  RandomGenerator rng(seed);
  std::vector<int64_t> got(kDraws);
  sampler.SampleBlock(kDraws, got.data(), rng);
  EXPECT_EQ(got, want);
  EXPECT_EQ(rng.NextBits(), ref_rng.NextBits());
}

INSTANTIATE_TEST_SUITE_P(Sigmas, DiscreteGaussianBitIdentityTest,
                         ::testing::Values(0.3, 0.7, 1.0, 1.5, 2.83, 5.66,
                                           20.0, 100.5, 1234.5));

// One const sampler, several threads, one generator each: every thread's
// draws equal a sequential run on the same seed.
TEST(SharedSamplerTest, ConcurrentDrawsMatchSequential) {
  constexpr int kThreads = 4;
  constexpr size_t kDraws = 4096;
  const auto skellam = SkellamSampler::Create(121.56).value();
  const auto dgauss = DiscreteGaussianSampler::Create(5.66).value();
  std::vector<std::vector<int64_t>> want(kThreads), got(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    RandomGenerator rng(4000 + t);
    want[t].resize(2 * kDraws);
    skellam.SampleBlock(kDraws, want[t].data(), rng);
    dgauss.SampleBlock(kDraws, want[t].data() + kDraws, rng);
    got[t].resize(2 * kDraws);
  }
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      RandomGenerator rng(4000 + t);
      skellam.SampleBlock(kDraws, got[t].data(), rng);
      dgauss.SampleBlock(kDraws, got[t].data() + kDraws, rng);
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(got, want);
}

}  // namespace
}  // namespace smm::sampling
