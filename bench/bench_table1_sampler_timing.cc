// Reproduces Table 1: running time of exact vs approximate samplers for the
// Skellam and Discrete Gaussian distributions across noise variances
// {32, 16, 8, 4, 2, 1}.
//
// Expected shape (paper): the exact Skellam sampler is faster than the exact
// Discrete Gaussian (increasingly so at small variance, where exact Skellam
// gets cheaper while exact DG gets slightly more expensive); the approximate
// samplers are orders of magnitude faster than the exact ones, and
// approximate Skellam is faster than approximate DG. Absolute times differ
// from the paper's Python/TensorFlow measurements; the orderings are the
// reproducible claim.
#include <cmath>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "common/random.h"
#include "sampling/discrete_gaussian_sampler.h"
#include "sampling/exact_samplers.h"
#include "sampling/noise_sampler.h"
#include "sampling/rational.h"

namespace smm::sampling {
namespace {

// Arg(0): variance v. Skellam: lambda = v/2; Discrete Gaussian: sigma^2 = v.

void BM_ExactSkellam(benchmark::State& state) {
  const int64_t variance = state.range(0);
  // lambda = variance / 2 as an exact rational.
  const Rational lambda{variance, 2};
  RandomGenerator rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SampleSkellamExact(lambda, rng).value());
  }
  state.SetLabel("variance=" + std::to_string(variance));
}
BENCHMARK(BM_ExactSkellam)->Arg(32)->Arg(16)->Arg(8)->Arg(4)->Arg(2)->Arg(1);

void BM_ExactDiscreteGaussian(benchmark::State& state) {
  const int64_t variance = state.range(0);
  const Rational sigma2{variance, 1};
  RandomGenerator rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        SampleDiscreteGaussianExact(sigma2, rng).value());
  }
  state.SetLabel("variance=" + std::to_string(variance));
}
BENCHMARK(BM_ExactDiscreteGaussian)
    ->Arg(32)
    ->Arg(16)
    ->Arg(8)
    ->Arg(4)
    ->Arg(2)
    ->Arg(1);

void BM_ApproxSkellam(benchmark::State& state) {
  const double lambda = static_cast<double>(state.range(0)) / 2.0;
  const auto sampler = SkellamSampler::Create(lambda).value();
  RandomGenerator rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.Sample(rng));
  }
  state.SetLabel("variance=" + std::to_string(state.range(0)));
}
BENCHMARK(BM_ApproxSkellam)->Arg(32)->Arg(16)->Arg(8)->Arg(4)->Arg(2)->Arg(1);

void BM_ApproxDiscreteGaussian(benchmark::State& state) {
  const double sigma = std::sqrt(static_cast<double>(state.range(0)));
  const auto sampler = DiscreteGaussianSampler::Create(sigma).value();
  RandomGenerator rng(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.Sample(rng));
  }
  state.SetLabel("variance=" + std::to_string(state.range(0)));
}
BENCHMARK(BM_ApproxDiscreteGaussian)
    ->Arg(32)
    ->Arg(16)
    ->Arg(8)
    ->Arg(4)
    ->Arg(2)
    ->Arg(1);

// Block-sampler variants: same distributions drawn through the
// SampleBlock(n, out) API the batched encode path uses, amortizing the
// mode dispatch per block of 1024 coordinates.

void BM_ApproxSkellamBlock(benchmark::State& state) {
  const double lambda = static_cast<double>(state.range(0)) / 2.0;
  auto sampler = SkellamSampler::Create(lambda).value();
  RandomGenerator rng(7);
  constexpr size_t kBlock = 1024;
  std::vector<int64_t> out(kBlock);
  for (auto _ : state) {
    sampler.SampleBlock(kBlock, out.data(), rng);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * kBlock);
  state.SetLabel("variance=" + std::to_string(state.range(0)));
}
BENCHMARK(BM_ApproxSkellamBlock)->Arg(32)->Arg(8)->Arg(1);

void BM_ApproxDiscreteGaussianBlock(benchmark::State& state) {
  const double sigma = std::sqrt(static_cast<double>(state.range(0)));
  auto sampler = DiscreteGaussianSampler::Create(sigma).value();
  RandomGenerator rng(8);
  constexpr size_t kBlock = 1024;
  std::vector<int64_t> out(kBlock);
  for (auto _ : state) {
    sampler.SampleBlock(kBlock, out.data(), rng);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * kBlock);
  state.SetLabel("variance=" + std::to_string(state.range(0)));
}
BENCHMARK(BM_ApproxDiscreteGaussianBlock)->Arg(32)->Arg(8)->Arg(1);

void BM_ExactSkellamBlock(benchmark::State& state) {
  const double lambda = static_cast<double>(state.range(0)) / 2.0;
  auto sampler = SkellamSampler::Create(lambda, SamplerMode::kExact).value();
  RandomGenerator rng(9);
  constexpr size_t kBlock = 1024;
  std::vector<int64_t> out(kBlock);
  for (auto _ : state) {
    sampler.SampleBlock(kBlock, out.data(), rng);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * kBlock);
  state.SetLabel("variance=" + std::to_string(state.range(0)));
}
BENCHMARK(BM_ExactSkellamBlock)->Arg(8)->Arg(1);

// The building blocks of the exact samplers, for profiling context.
void BM_ExactPoissonOne(benchmark::State& state) {
  RandomGenerator rng(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SamplePoissonOneExact(rng));
  }
}
BENCHMARK(BM_ExactPoissonOne);

void BM_ExactBernoulliExpMinusOne(benchmark::State& state) {
  RandomGenerator rng(6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SampleBernoulliExpMinusExact(1, 1, rng));
  }
}
BENCHMARK(BM_ExactBernoulliExpMinusOne);

}  // namespace
}  // namespace smm::sampling

BENCHMARK_MAIN();
