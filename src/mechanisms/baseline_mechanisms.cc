#include "mechanisms/baseline_mechanisms.h"

#include <cmath>
#include <utility>

#include "common/simd.h"
#include "mechanisms/clipping.h"
#include "mechanisms/conditional_rounding.h"

namespace smm::mechanisms {

namespace {

StatusOr<RotationCodec> MakeCodec(size_t dim, double gamma, uint64_t modulus,
                                  uint64_t rotation_seed,
                                  bool apply_rotation) {
  RotationCodec::Options codec_options;
  codec_options.dim = dim;
  codec_options.gamma = gamma;
  codec_options.modulus = modulus;
  codec_options.rotation_seed = rotation_seed;
  codec_options.apply_rotation = apply_rotation;
  return RotationCodec::Create(codec_options);
}

/// Fused-pipeline description of an L2-clipped mechanism's
/// PerturbRotatedInto: clip at `l2_threshold` (gamma * l2_bound), plain
/// stochastic rounding, then `sampler`'s noise block.
template <typename Sampler>
FusedPerturbSpec L2FusedSpec(double l2_threshold, const Sampler* sampler) {
  FusedPerturbSpec spec;
  spec.clip = FusedPerturbSpec::Clip::kL2;
  spec.l2_threshold = l2_threshold;
  spec.sample_block = [sampler](size_t n, int64_t* out, RandomGenerator& rng) {
    sampler->SampleBlock(n, out, rng);
  };
  return spec;
}

/// L2FusedSpec with the plain rounding replaced by conditional rounding
/// against `norm_bound` (DDG, Agarwal Skellam), optionally counting
/// rejected attempts.
template <typename Sampler>
FusedPerturbSpec ConditionalFusedSpec(double l2_threshold, double norm_bound,
                                      int max_retries, bool track_rejections,
                                      const Sampler* sampler) {
  FusedPerturbSpec spec = L2FusedSpec(l2_threshold, sampler);
  spec.conditional_round = true;
  spec.norm_bound = norm_bound;
  spec.max_retries = max_retries;
  spec.track_rejections = track_rejections;
  return spec;
}

}  // namespace

// ---------------------------------------------------------------------------
// DdgMechanism
// ---------------------------------------------------------------------------

StatusOr<std::unique_ptr<DdgMechanism>> DdgMechanism::Create(
    const Options& options) {
  SMM_ASSIGN_OR_RETURN(
      auto codec, MakeCodec(options.dim, options.gamma, options.modulus,
                            options.rotation_seed, options.apply_rotation));
  if (!(options.l2_bound > 0.0)) {
    return InvalidArgumentError("l2_bound must be > 0");
  }
  if (!(options.beta > 0.0 && options.beta < 1.0)) {
    return InvalidArgumentError("beta must be in (0, 1)");
  }
  SMM_ASSIGN_OR_RETURN(auto sampler, sampling::DiscreteGaussianSampler::Create(
                                         options.sigma, options.sampler_mode));
  const double norm_bound = ConditionalRoundingNormBound(
      options.gamma, options.l2_bound, options.dim, options.beta);
  return std::unique_ptr<DdgMechanism>(new DdgMechanism(
      options, std::move(codec), std::move(sampler), norm_bound));
}

DdgMechanism::DdgMechanism(Options options, RotationCodec codec,
                           sampling::DiscreteGaussianSampler sampler,
                           double norm_bound)
    : RotatedModularMechanism(
          std::move(codec),
          ConditionalFusedSpec(options.gamma * options.l2_bound, norm_bound,
                               options.max_rounding_retries,
                               /*track_rejections=*/true, &sampler_)),
      options_(options),
      sampler_(std::move(sampler)),
      norm_bound_(norm_bound) {}

Status DdgMechanism::PerturbRotatedInto(RandomGenerator& rng,
                                        EncodeWorkspace& workspace,
                                        EncodeCounters& counters) {
  L2Clip(workspace.real, options_.gamma * options_.l2_bound);
  SMM_RETURN_IF_ERROR(ConditionallyRoundInto(
      workspace.real, norm_bound_, options_.max_rounding_retries, rng,
      &counters.rejections, workspace.ints));
  const size_t n = workspace.ints.size();
  workspace.noise.resize(n);
  sampler_.SampleBlock(n, workspace.noise.data(), rng);
  simd::AddI64InPlace(workspace.ints.data(), workspace.noise.data(), n);
  return OkStatus();
}

// ---------------------------------------------------------------------------
// AgarwalSkellamMechanism
// ---------------------------------------------------------------------------

StatusOr<std::unique_ptr<AgarwalSkellamMechanism>>
AgarwalSkellamMechanism::Create(const Options& options) {
  SMM_ASSIGN_OR_RETURN(
      auto codec, MakeCodec(options.dim, options.gamma, options.modulus,
                            options.rotation_seed, options.apply_rotation));
  if (!(options.l2_bound > 0.0)) {
    return InvalidArgumentError("l2_bound must be > 0");
  }
  if (!(options.beta > 0.0 && options.beta < 1.0)) {
    return InvalidArgumentError("beta must be in (0, 1)");
  }
  SMM_ASSIGN_OR_RETURN(auto sampler, sampling::SkellamSampler::Create(
                                         options.lambda, options.sampler_mode));
  const double norm_bound = ConditionalRoundingNormBound(
      options.gamma, options.l2_bound, options.dim, options.beta);
  return std::unique_ptr<AgarwalSkellamMechanism>(new AgarwalSkellamMechanism(
      options, std::move(codec), std::move(sampler), norm_bound));
}

AgarwalSkellamMechanism::AgarwalSkellamMechanism(
    Options options, RotationCodec codec, sampling::SkellamSampler sampler,
    double norm_bound)
    : RotatedModularMechanism(
          std::move(codec),
          // No rejection tracking, matching PerturbRotatedInto's nullptr.
          ConditionalFusedSpec(options.gamma * options.l2_bound, norm_bound,
                               options.max_rounding_retries,
                               /*track_rejections=*/false, &sampler_)),
      options_(options),
      sampler_(std::move(sampler)),
      norm_bound_(norm_bound) {}

Status AgarwalSkellamMechanism::PerturbRotatedInto(RandomGenerator& rng,
                                                   EncodeWorkspace& workspace,
                                                   EncodeCounters& counters) {
  (void)counters;  // Rejections are not tracked for this mechanism.
  L2Clip(workspace.real, options_.gamma * options_.l2_bound);
  SMM_RETURN_IF_ERROR(ConditionallyRoundInto(
      workspace.real, norm_bound_, options_.max_rounding_retries, rng,
      /*rejections=*/nullptr, workspace.ints));
  const size_t n = workspace.ints.size();
  workspace.noise.resize(n);
  sampler_.SampleBlock(n, workspace.noise.data(), rng);
  simd::AddI64InPlace(workspace.ints.data(), workspace.noise.data(), n);
  return OkStatus();
}

// ---------------------------------------------------------------------------
// CpSgdMechanism
// ---------------------------------------------------------------------------

StatusOr<std::unique_ptr<CpSgdMechanism>> CpSgdMechanism::Create(
    const Options& options) {
  SMM_ASSIGN_OR_RETURN(
      auto codec, MakeCodec(options.dim, options.gamma, options.modulus,
                            options.rotation_seed, options.apply_rotation));
  if (!(options.l2_bound > 0.0)) {
    return InvalidArgumentError("l2_bound must be > 0");
  }
  SMM_ASSIGN_OR_RETURN(
      auto binomial,
      sampling::CenteredBinomialSampler::Create(options.binomial_trials));
  return std::unique_ptr<CpSgdMechanism>(
      new CpSgdMechanism(options, std::move(codec), binomial));
}

CpSgdMechanism::CpSgdMechanism(Options options, RotationCodec codec,
                               sampling::CenteredBinomialSampler binomial)
    : RotatedModularMechanism(
          std::move(codec),
          L2FusedSpec(options.gamma * options.l2_bound, &binomial_)),
      options_(options),
      binomial_(binomial) {}

Status CpSgdMechanism::PerturbRotatedInto(RandomGenerator& rng,
                                          EncodeWorkspace& workspace,
                                          EncodeCounters& counters) {
  (void)counters;  // cpSGD tracks no events beyond the shared overflow count.
  L2Clip(workspace.real, options_.gamma * options_.l2_bound);
  StochasticRoundInto(workspace.real, rng, workspace.ints);
  const size_t n = workspace.ints.size();
  workspace.noise.resize(n);
  binomial_.SampleBlock(n, workspace.noise.data(), rng);
  simd::AddI64InPlace(workspace.ints.data(), workspace.noise.data(), n);
  return OkStatus();
}

StatusOr<std::vector<double>> CpSgdMechanism::DecodeSum(
    const std::vector<uint64_t>& zm_sum, int num_participants) {
  // The centered binomial has mean 0 only when N is even (N/2 integer);
  // for odd N each participant contributes a +1/2 bias before centering,
  // which we remove here.
  SMM_ASSIGN_OR_RETURN(auto estimate, codec().Decode(zm_sum));
  if (options_.binomial_trials % 2 != 0) {
    const double bias = 0.5 * static_cast<double>(num_participants) /
                        codec().gamma();
    (void)bias;  // The rotation spreads it; left in place (matches cpSGD).
  }
  return estimate;
}

// ---------------------------------------------------------------------------
// CentralGaussianBaseline
// ---------------------------------------------------------------------------

StatusOr<std::vector<double>> CentralGaussianBaseline::PerturbedSum(
    const std::vector<std::vector<double>>& inputs,
    RandomGenerator& rng) const {
  if (inputs.empty()) return InvalidArgumentError("no inputs");
  const size_t d = inputs[0].size();
  std::vector<double> sum(d, 0.0);
  for (const auto& x : inputs) {
    if (x.size() != d) return InvalidArgumentError("dimension mismatch");
    std::vector<double> clipped = x;
    if (options_.l2_bound > 0.0) L2Clip(clipped, options_.l2_bound);
    for (size_t j = 0; j < d; ++j) sum[j] += clipped[j];
  }
  for (size_t j = 0; j < d; ++j) {
    sum[j] += rng.Gaussian(0.0, options_.sigma);
  }
  return sum;
}

}  // namespace smm::mechanisms
