#include "mechanisms/dgm_mechanism.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/simd.h"
#include "mechanisms/clipping.h"
#include "mechanisms/conditional_rounding.h"

namespace smm::mechanisms {

StatusOr<DiscreteGaussianMixtureNoiser> DiscreteGaussianMixtureNoiser::Create(
    double sigma, sampling::SamplerMode mode) {
  SMM_ASSIGN_OR_RETURN(
      auto sampler, sampling::DiscreteGaussianSampler::Create(sigma, mode));
  return DiscreteGaussianMixtureNoiser(std::move(sampler));
}

int64_t DiscreteGaussianMixtureNoiser::Perturb(double x,
                                               RandomGenerator& rng) {
  const double floor_x = std::floor(x);
  const double p = x - floor_x;
  int64_t base = static_cast<int64_t>(floor_x);
  if (rng.Bernoulli(p)) base += 1;
  return base + sampler_.Sample(rng);
}

std::vector<int64_t> DiscreteGaussianMixtureNoiser::PerturbVector(
    const std::vector<double>& x, RandomGenerator& rng) {
  std::vector<int64_t> out;
  std::vector<int64_t> noise;
  PerturbVectorInto(x, rng, out, noise);
  return out;
}

void DiscreteGaussianMixtureNoiser::PerturbVectorInto(
    const std::vector<double>& x, RandomGenerator& rng,
    std::vector<int64_t>& out, std::vector<int64_t>& noise) {
  // The floor/ceil Bernoulli mixture is exactly stochastic rounding.
  StochasticRoundInto(x, rng, out);
  const size_t n = x.size();
  noise.resize(n);
  sampler_.SampleBlock(n, noise.data(), rng);
  simd::AddI64InPlace(out.data(), noise.data(), n);
}

StatusOr<std::unique_ptr<DgmMechanism>> DgmMechanism::Create(
    const Options& options) {
  RotationCodec::Options codec_options;
  codec_options.dim = options.dim;
  codec_options.gamma = options.gamma;
  codec_options.modulus = options.modulus;
  codec_options.rotation_seed = options.rotation_seed;
  codec_options.apply_rotation = options.apply_rotation;
  SMM_ASSIGN_OR_RETURN(auto codec, RotationCodec::Create(codec_options));
  if (!(options.c > 0.0)) {
    return InvalidArgumentError("clip threshold c must be > 0");
  }
  if (!(options.delta_inf > 0.0)) {
    return InvalidArgumentError("delta_inf must be > 0");
  }
  SMM_ASSIGN_OR_RETURN(auto noiser, DiscreteGaussianMixtureNoiser::Create(
                                        options.sigma, options.sampler_mode));
  return std::unique_ptr<DgmMechanism>(
      new DgmMechanism(options, std::move(codec), std::move(noiser)));
}

namespace {

/// The SmmMechanism fused spec with the noise block swapped for the
/// discrete Gaussian mixture of `noiser`.
FusedPerturbSpec DgmFusedSpec(const DgmMechanism::Options& options,
                              DiscreteGaussianMixtureNoiser* noiser) {
  FusedPerturbSpec spec;
  spec.clip = FusedPerturbSpec::Clip::kSmm;
  spec.smm_c = options.c;
  spec.smm_delta_inf = std::max(1.0, std::floor(options.delta_inf));
  spec.sample_block = [noiser](size_t n, int64_t* out, RandomGenerator& rng) {
    noiser->SampleNoiseBlock(n, out, rng);
  };
  return spec;
}

}  // namespace

DgmMechanism::DgmMechanism(Options options, RotationCodec codec,
                           DiscreteGaussianMixtureNoiser noiser)
    : RotatedModularMechanism(std::move(codec),
                              DgmFusedSpec(options, &noiser_)),
      options_(options),
      noiser_(std::move(noiser)) {}

Status DgmMechanism::PerturbRotatedInto(RandomGenerator& rng,
                                        EncodeWorkspace& workspace,
                                        EncodeCounters& counters) {
  (void)counters;  // DGM tracks no events beyond the shared overflow count.
  SMM_RETURN_IF_ERROR(SmmClip(workspace.real, options_.c, options_.delta_inf));
  noiser_.PerturbVectorInto(workspace.real, rng, workspace.ints,
                            workspace.noise);
  return OkStatus();
}

}  // namespace smm::mechanisms
