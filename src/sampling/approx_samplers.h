#ifndef SMM_SAMPLING_APPROX_SAMPLERS_H_
#define SMM_SAMPLING_APPROX_SAMPLERS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/random.h"

namespace smm::sampling {

/// Fast floating-point ("approximate") samplers standing in for the
/// TensorFlow samplers used in the paper's experiments (Section 6: "all
/// experiments are done using the approximate samplers ... which are based
/// on floating point approximations"). Their output distributions match the
/// analytical forms only up to double rounding; the exact samplers in
/// exact_samplers.h / discrete_gaussian_sampler.h are the strict-DP path.
///
/// Each sampler is built once per parameter and holds every value that
/// depends on the parameter alone, so a draw computes only what depends on
/// its uniforms. Sample is const: one sampler is shared read-only by all
/// encode shards, each drawing from its own RandomGenerator.

/// NOTE: do not route sampling through std::poisson_distribution /
/// std::binomial_distribution here. Their large-parameter algorithms cache
/// Gaussian state across draws (leaking bits between participants' RNG
/// streams) and call glibc lgamma(), whose global-signgam write races under
/// concurrent EncodeBatch shards. The samplers below are self-contained.

/// Approximate Poisson(lambda): Knuth multiplication below lambda = 10,
/// Hormann's PTRS transformed rejection (with a local Lanczos log-gamma)
/// above.
class PoissonApproxSampler {
 public:
  /// lambda must be finite and > 0; SkellamSampler::Create validates it.
  explicit PoissonApproxSampler(double lambda);

  int64_t Sample(RandomGenerator& rng) const;

  /// log(k!) for integer k >= 0, as the PTRS acceptance test uses it: read
  /// from the precomputed window when k lies in it, else computed.
  double LogFactorial(double k) const;

  /// The precomputed window of LogFactorial: k in [begin, begin + size).
  /// Empty below lambda = 10, where the Knuth path needs no log-gamma.
  int64_t log_factorial_window_begin() const { return window_begin_; }
  size_t log_factorial_window_size() const { return log_factorial_.size(); }

 private:
  double lambda_;
  // Knuth path (lambda < 10).
  double knuth_threshold_ = 0.0;
  // PTRS path (lambda >= 10).
  double log_lambda_ = 0.0;
  double b_ = 0.0;
  double a_ = 0.0;
  double v_r_ = 0.0;
  double log_inv_alpha_ = 0.0;
  int64_t window_begin_ = 0;
  std::vector<double> log_factorial_;
};

/// Approximate discrete Gaussian N_Z(0, sigma^2): the CKS rejection scheme
/// (discrete Laplace proposal, Gaussian-weight acceptance) evaluated in
/// double precision.
class DiscreteGaussianApproxSampler {
 public:
  /// sigma must be finite and > 0; DiscreteGaussianSampler::Create
  /// validates it.
  explicit DiscreteGaussianApproxSampler(double sigma);

  int64_t Sample(RandomGenerator& rng) const;

 private:
  int64_t t_;  // Discrete Laplace scale floor(sigma) + 1.
  double t_double_;
  double geo_success_;  // 1 - e^-1.
  double two_sigma2_ = 0.0;
  double sigma2_over_t_ = 0.0;
};

}  // namespace smm::sampling

#endif  // SMM_SAMPLING_APPROX_SAMPLERS_H_
