#include "mechanisms/smm_mechanism.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/simd.h"
#include "mechanisms/clipping.h"
#include "mechanisms/conditional_rounding.h"

namespace smm::mechanisms {

StatusOr<SkellamMixtureNoiser> SkellamMixtureNoiser::Create(
    double lambda, sampling::SamplerMode mode) {
  SMM_ASSIGN_OR_RETURN(auto sampler,
                       sampling::SkellamSampler::Create(lambda, mode));
  return SkellamMixtureNoiser(std::move(sampler));
}

int64_t SkellamMixtureNoiser::Perturb(double x, RandomGenerator& rng) {
  const double floor_x = std::floor(x);
  const double p = x - floor_x;  // In [0, 1).
  int64_t base = static_cast<int64_t>(floor_x);
  if (rng.Bernoulli(p)) base += 1;  // ceil(x) branch (Lines 6-7 of Alg. 1).
  return base + sampler_.Sample(rng);
}

std::vector<int64_t> SkellamMixtureNoiser::PerturbVector(
    const std::vector<double>& x, RandomGenerator& rng) {
  std::vector<int64_t> out;
  std::vector<int64_t> noise;
  PerturbVectorInto(x, rng, out, noise);
  return out;
}

void SkellamMixtureNoiser::PerturbVectorInto(const std::vector<double>& x,
                                             RandomGenerator& rng,
                                             std::vector<int64_t>& out,
                                             std::vector<int64_t>& noise) {
  // Phase 1 (Lines 5-8 of Algorithm 2): the floor/ceil Bernoulli mixture is
  // exactly stochastic rounding.
  StochasticRoundInto(x, rng, out);
  // Phase 2 (Line 9): one Skellam block for the whole vector.
  const size_t n = x.size();
  noise.resize(n);
  sampler_.SampleBlock(n, noise.data(), rng);
  simd::AddI64InPlace(out.data(), noise.data(), n);
}

StatusOr<std::unique_ptr<SmmMechanism>> SmmMechanism::Create(
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
  SMM_ASSIGN_OR_RETURN(
      auto noiser,
      SkellamMixtureNoiser::Create(options.lambda, options.sampler_mode));
  return std::unique_ptr<SmmMechanism>(
      new SmmMechanism(options, std::move(codec), std::move(noiser)));
}

namespace {

/// Fused-pipeline description of SmmMechanism::PerturbRotatedInto: the
/// Algorithm 5 clip with the same floored Linf bound SmmClip derives, then
/// plain stochastic rounding, then Skellam mixture noise from `noiser`.
FusedPerturbSpec SmmFusedSpec(const SmmMechanism::Options& options,
                              SkellamMixtureNoiser* noiser) {
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

SmmMechanism::SmmMechanism(Options options, RotationCodec codec,
                           SkellamMixtureNoiser noiser)
    : RotatedModularMechanism(std::move(codec),
                              SmmFusedSpec(options, &noiser_)),
      options_(options),
      noiser_(std::move(noiser)) {}

Status SmmMechanism::PerturbRotatedInto(RandomGenerator& rng,
                                        EncodeWorkspace& workspace,
                                        EncodeCounters& counters) {
  (void)counters;  // SMM tracks no events beyond the shared overflow count.
  // Line 3 of Algorithm 4: the mixed-sensitivity clip of Algorithm 5.
  SMM_RETURN_IF_ERROR(SmmClip(workspace.real, options_.c, options_.delta_inf));
  // Lines 4-10: the Skellam mixture perturbation.
  noiser_.PerturbVectorInto(workspace.real, rng, workspace.ints,
                            workspace.noise);
  return OkStatus();
}

}  // namespace smm::mechanisms
