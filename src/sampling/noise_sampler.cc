#include "sampling/noise_sampler.h"

#include <cmath>

#include "sampling/discrete_gaussian_sampler.h"
#include "sampling/exact_samplers.h"

namespace smm::sampling {

StatusOr<SkellamSampler> SkellamSampler::Create(double lambda,
                                                SamplerMode mode,
                                                int64_t max_denominator) {
  if (!(lambda > 0.0)) {
    return InvalidArgumentError("Skellam lambda must be > 0");
  }
  if (!(lambda <= kMaxNoiseParameter)) {
    return InvalidArgumentError(
        "Skellam lambda must be finite and at most 2^50");
  }
  const Rational r = Rational::FromDouble(lambda, max_denominator);
  if (mode == SamplerMode::kExact && r.num == 0) {
    return InvalidArgumentError(
        "Skellam lambda too small to rationalize for the exact sampler");
  }
  return SkellamSampler(lambda, mode, r);
}

SkellamSampler::SkellamSampler(double lambda, SamplerMode mode,
                               Rational rational_lambda)
    : lambda_(lambda), mode_(mode), rational_lambda_(rational_lambda) {
  if (mode == SamplerMode::kApproximate) poisson_.emplace(lambda);
}

int64_t SkellamSampler::Sample(RandomGenerator& rng) const {
  if (poisson_) {
    // Named draws pin the order; operand order of `-` is unspecified.
    const int64_t first = poisson_->Sample(rng);
    const int64_t second = poisson_->Sample(rng);
    return first - second;
  }
  // Exact path: parameters were validated at Create time.
  return SampleSkellamExact(rational_lambda_, rng).value();
}

void SkellamSampler::SampleBlock(size_t n, int64_t* out,
                                 RandomGenerator& rng) const {
  if (poisson_) {
    for (size_t i = 0; i < n; ++i) out[i] = Sample(rng);
    return;
  }
  for (size_t i = 0; i < n; ++i) {
    out[i] = SampleSkellamExact(rational_lambda_, rng).value();
  }
}

StatusOr<DiscreteGaussianSampler> DiscreteGaussianSampler::Create(
    double sigma, SamplerMode mode, int64_t max_denominator) {
  if (!(sigma > 0.0)) {
    return InvalidArgumentError("Discrete Gaussian sigma must be > 0");
  }
  if (!(sigma * sigma <= kMaxNoiseParameter)) {
    return InvalidArgumentError(
        "Discrete Gaussian sigma must be finite with sigma^2 at most 2^50");
  }
  const Rational r = Rational::FromDouble(sigma * sigma, max_denominator);
  if (mode == SamplerMode::kExact && r.num == 0) {
    return InvalidArgumentError(
        "sigma^2 too small to rationalize for the exact sampler");
  }
  return DiscreteGaussianSampler(sigma, mode, r);
}

DiscreteGaussianSampler::DiscreteGaussianSampler(double sigma,
                                                 SamplerMode mode,
                                                 Rational rational_sigma2)
    : sigma_(sigma), mode_(mode), rational_sigma2_(rational_sigma2) {
  if (mode == SamplerMode::kApproximate) approx_.emplace(sigma);
}

int64_t DiscreteGaussianSampler::Sample(RandomGenerator& rng) const {
  if (approx_) return approx_->Sample(rng);
  return SampleDiscreteGaussianExact(rational_sigma2_, rng).value();
}

void DiscreteGaussianSampler::SampleBlock(size_t n, int64_t* out,
                                          RandomGenerator& rng) const {
  if (approx_) {
    for (size_t i = 0; i < n; ++i) out[i] = approx_->Sample(rng);
    return;
  }
  for (size_t i = 0; i < n; ++i) {
    out[i] = SampleDiscreteGaussianExact(rational_sigma2_, rng).value();
  }
}

StatusOr<CenteredBinomialSampler> CenteredBinomialSampler::Create(
    int64_t trials) {
  if (trials < 1) {
    return InvalidArgumentError("binomial trials must be >= 1");
  }
  return CenteredBinomialSampler(trials);
}

namespace {

/// Trial count above which the centered binomial uses the normal
/// approximation instead of exact coin counting — the same boundary the
/// accountant-facing behavior always had, so Binomial noise stays exactly
/// binomial wherever it used to be.
constexpr int64_t kBinomialExactTrials = 100000;

/// Exact Binomial(trials, 1/2): counts set bits in `trials` raw generator
/// bits. Branch-free and free of global state.
int64_t CountFairCoins(int64_t trials, RandomGenerator& rng) {
  int64_t successes = 0;
  int64_t remaining = trials;
  for (; remaining >= 64; remaining -= 64) {
    successes += __builtin_popcountll(rng.NextBits());
  }
  if (remaining > 0) {
    const uint64_t mask = (~uint64_t{0}) >> (64 - remaining);
    successes += __builtin_popcountll(rng.NextBits() & mask);
  }
  return successes;
}

}  // namespace

int64_t CenteredBinomialSampler::Sample(RandomGenerator& rng) const {
  if (trials_ > kBinomialExactTrials) {
    // Normal approximation; fine for a floating-point baseline and the
    // paper's regime where cpSGD noise is enormous anyway.
    const double sigma = std::sqrt(static_cast<double>(trials_) / 4.0);
    return static_cast<int64_t>(std::llround(rng.Gaussian(0.0, sigma)));
  }
  return CountFairCoins(trials_, rng) - trials_ / 2;
}

void CenteredBinomialSampler::SampleBlock(size_t n, int64_t* out,
                                          RandomGenerator& rng) const {
  if (trials_ > kBinomialExactTrials) {
    const double sigma = std::sqrt(static_cast<double>(trials_) / 4.0);
    for (size_t i = 0; i < n; ++i) {
      out[i] = static_cast<int64_t>(std::llround(rng.Gaussian(0.0, sigma)));
    }
    return;
  }
  for (size_t i = 0; i < n; ++i) {
    out[i] = CountFairCoins(trials_, rng) - trials_ / 2;
  }
}

}  // namespace smm::sampling
