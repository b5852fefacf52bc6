#include "sampling/approx_samplers.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace smm::sampling {

namespace {

/// log(Gamma(x)) for x > 0.5 via the Lanczos approximation (g = 7, 9
/// terms; ~1e-13 relative accuracy). Self-contained on purpose: glibc's
/// lgamma() writes the process-global `signgam`, a data race when the
/// parallel encode shards sample concurrently.
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

/// Smallest lambda drawn by PTRS; below it Knuth's method is cheaper.
constexpr double kPtrsMinLambda = 10.0;

/// The log-factorial window spans lambda +- (12 sqrt(lambda) + 16), which
/// holds every accepted k outside a 12-sigma tail, capped at 4096 entries
/// (32 KiB) centred on lambda.
constexpr double kWindowSigmas = 12.0;
constexpr double kWindowPad = 16.0;
constexpr double kMaxWindowEntries = 4096.0;

}  // namespace

PoissonApproxSampler::PoissonApproxSampler(double lambda) : lambda_(lambda) {
  assert(lambda > 0.0 && std::isfinite(lambda));
  if (lambda < kPtrsMinLambda) {
    knuth_threshold_ = std::exp(-lambda);
    return;
  }
  // Each constant must stay the exact expression PTRS evaluates, on the same
  // input: tests/sampler_bit_identity_test.cc holds the draws to a per-draw
  // reference bit for bit.
  const double sqrt_lambda = std::sqrt(lambda);
  log_lambda_ = std::log(lambda);
  b_ = 0.931 + 2.53 * sqrt_lambda;
  a_ = -0.059 + 0.02483 * b_;
  const double inv_alpha = 1.1239 + 1.1328 / (b_ - 3.4);
  log_inv_alpha_ = std::log(inv_alpha);
  v_r_ = 0.9277 - 3.6224 / (b_ - 2.0);

  // Filled by the function the fallback calls, on the same double k + 1.0
  // that Sample passes, so a lookup returns the value it replaces.
  const double half_width = std::min(kWindowSigmas * sqrt_lambda + kWindowPad,
                                     kMaxWindowEntries / 2.0);
  const double begin = std::max(0.0, std::floor(lambda - half_width));
  const double end = std::floor(lambda + half_width) + 1.0;
  window_begin_ = static_cast<int64_t>(begin);
  log_factorial_.resize(
      static_cast<size_t>(std::min(end - begin, kMaxWindowEntries)));
  for (size_t i = 0; i < log_factorial_.size(); ++i) {
    log_factorial_[i] = LogGammaPositive(
        static_cast<double>(window_begin_ + static_cast<int64_t>(i)) + 1.0);
  }
}

double PoissonApproxSampler::LogFactorial(double k) const {
  const double offset = k - static_cast<double>(window_begin_);
  if (offset >= 0.0 && offset < static_cast<double>(log_factorial_.size())) {
    return log_factorial_[static_cast<size_t>(offset)];
  }
  return LogGammaPositive(k + 1.0);
}

int64_t PoissonApproxSampler::Sample(RandomGenerator& rng) const {
  if (lambda_ < kPtrsMinLambda) {
    // Knuth's multiplication method: expected lambda + 1 uniforms.
    int64_t k = 0;
    double product = rng.UniformDouble();
    while (product > knuth_threshold_) {
      ++k;
      product *= rng.UniformDouble();
    }
    return k;
  }
  // Hormann's transformed rejection with squeeze (PTRS), the standard
  // O(1) method for lambda >= 10 (used by NumPy).
  while (true) {
    const double u = rng.UniformDouble() - 0.5;
    const double v = rng.UniformDouble();
    const double us = 0.5 - std::abs(u);
    const double k = std::floor((2.0 * a_ / us + b_) * u + lambda_ + 0.43);
    if (us >= 0.07 && v <= v_r_) return static_cast<int64_t>(k);
    if (k < 0.0 || (us < 0.013 && v > us)) continue;
    if (std::log(v) + log_inv_alpha_ - std::log(a_ / (us * us) + b_) <=
        k * log_lambda_ - lambda_ - LogFactorial(k)) {
      return static_cast<int64_t>(k);
    }
  }
}

DiscreteGaussianApproxSampler::DiscreteGaussianApproxSampler(double sigma)
    : t_(static_cast<int64_t>(std::floor(sigma)) + 1),
      t_double_(static_cast<double>(t_)),
      geo_success_(1.0 - std::exp(-1.0)) {
  assert(sigma > 0.0 && std::isfinite(sigma));
  const double sigma2 = sigma * sigma;
  two_sigma2_ = 2.0 * sigma2;
  sigma2_over_t_ = sigma2 / t_double_;
}

int64_t DiscreteGaussianApproxSampler::Sample(RandomGenerator& rng) const {
  while (true) {
    // Discrete Laplace proposal with scale t, floating-point variant of
    // SampleDiscreteLaplaceExact.
    const int64_t u = static_cast<int64_t>(rng.UniformDouble() * t_double_);
    if (!rng.Bernoulli(std::exp(-static_cast<double>(u) / t_double_))) {
      continue;
    }
    int64_t v = 0;
    while (!rng.Bernoulli(geo_success_)) ++v;
    const int64_t x = u + t_ * v;
    const bool negative = rng.Bernoulli(0.5);
    if (negative && x == 0) continue;
    const int64_t y = negative ? -x : x;
    const double dev = std::abs(static_cast<double>(y)) - sigma2_over_t_;
    if (rng.Bernoulli(std::exp(-dev * dev / two_sigma2_))) return y;
  }
}

}  // namespace smm::sampling
