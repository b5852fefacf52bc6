#ifndef SMM_SAMPLING_NOISE_SAMPLER_H_
#define SMM_SAMPLING_NOISE_SAMPLER_H_

#include <cstddef>
#include <cstdint>
#include <optional>

#include "common/random.h"
#include "common/status.h"
#include "sampling/approx_samplers.h"
#include "sampling/rational.h"

namespace smm::sampling {

/// Whether a noise sampler uses the exact integer-arithmetic algorithms
/// (strict DP; Appendix A) or the fast floating-point approximations
/// (what the paper's experiments use; Section 6).
enum class SamplerMode { kApproximate, kExact };

/// Largest Skellam lambda and discrete Gaussian sigma^2 the samplers accept.
/// Calibrated noise parameters sit many orders of magnitude below it; the
/// bound keeps every draw, and the integer casts inside the samplers,
/// within int64 range.
inline constexpr double kMaxNoiseParameter = 0x1p50;

/// Samples symmetric Skellam noise Sk(lambda, lambda) in either mode.
///
/// In exact mode, lambda is rationalized with denominator <= max_denominator
/// (the sampled distribution is exactly Sk(p/q, p/q) for that rational).
class SkellamSampler {
 public:
  /// Creates a sampler. lambda must be finite, > 0 and at most
  /// kMaxNoiseParameter.
  static StatusOr<SkellamSampler> Create(
      double lambda, SamplerMode mode = SamplerMode::kApproximate,
      int64_t max_denominator = 1000000);

  /// Draws one variate. Const: the sampler is read-only after Create, so
  /// encode shards share it, each drawing from its own generator.
  int64_t Sample(RandomGenerator& rng) const;

  /// Fills out[0..n) with n i.i.d. draws, amortizing the mode dispatch over
  /// the whole block. Consumes the RNG exactly as n scalar Sample calls
  /// would (in particular, exact mode draws the identical RandInt
  /// sequence), so block and scalar encodes are bit-compatible.
  void SampleBlock(size_t n, int64_t* out, RandomGenerator& rng) const;

  double lambda() const { return lambda_; }
  SamplerMode mode() const { return mode_; }
  /// Variance of the sampled distribution (2 * lambda).
  double variance() const { return 2.0 * lambda_; }

 private:
  SkellamSampler(double lambda, SamplerMode mode, Rational rational_lambda);

  double lambda_;
  SamplerMode mode_;
  Rational rational_lambda_;
  // Approximate mode only: the Poisson(lambda) sampler with its per-lambda
  // constants and log-factorial window computed once at Create. It draws
  // exactly what a per-draw evaluation of the same PTRS/Knuth expressions
  // would, consuming the generator identically, so precomputing changes no
  // encode output.
  std::optional<PoissonApproxSampler> poisson_;
};

/// Samples discrete Gaussian noise N_Z(0, sigma^2) in either mode.
class DiscreteGaussianSampler {
 public:
  /// Creates a sampler. sigma must be finite and > 0, with sigma^2 at most
  /// kMaxNoiseParameter.
  static StatusOr<DiscreteGaussianSampler> Create(
      double sigma, SamplerMode mode = SamplerMode::kApproximate,
      int64_t max_denominator = 1000000);

  int64_t Sample(RandomGenerator& rng) const;

  /// Block variant of Sample; same RNG-consumption guarantee as
  /// SkellamSampler::SampleBlock.
  void SampleBlock(size_t n, int64_t* out, RandomGenerator& rng) const;

  double sigma() const { return sigma_; }
  SamplerMode mode() const { return mode_; }
  double variance() const { return sigma_ * sigma_; }

 private:
  DiscreteGaussianSampler(double sigma, SamplerMode mode,
                          Rational rational_sigma2);

  double sigma_;
  SamplerMode mode_;
  Rational rational_sigma2_;
  // Approximate mode only; holds the per-sigma constants.
  std::optional<DiscreteGaussianApproxSampler> approx_;
};

/// Samples centered binomial noise Binomial(trials, 1/2) - trials/2, the
/// cpSGD baseline's distribution. Up to 100k trials the draw is an exact
/// fair-coin count (popcount over raw generator words — free of
/// libstdc++/libc global state, at cost linear in trials); above that the
/// normal approximation is used, as in the paper's regime where cpSGD's
/// calibrated trial counts are enormous.
class CenteredBinomialSampler {
 public:
  /// Creates a sampler. trials must be >= 1.
  static StatusOr<CenteredBinomialSampler> Create(int64_t trials);

  int64_t Sample(RandomGenerator& rng) const;

  /// Block variant; consumes the RNG exactly as n scalar Sample calls.
  void SampleBlock(size_t n, int64_t* out, RandomGenerator& rng) const;

  int64_t trials() const { return trials_; }
  /// Variance of the sampled distribution (trials / 4).
  double variance() const { return static_cast<double>(trials_) / 4.0; }

 private:
  explicit CenteredBinomialSampler(int64_t trials) : trials_(trials) {}

  int64_t trials_;
};

}  // namespace smm::sampling

#endif  // SMM_SAMPLING_NOISE_SAMPLER_H_
