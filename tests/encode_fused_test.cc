// Property tests for the fused single-pass blocked encode pipeline: for
// every mechanism, EncodeBatch (the fused three-sweep path) must be
// bit-identical to one EncodeParticipant call per participant (the
// per-pass test reference) — encodings, overflow accounting, and
// rounding-rejection accounting — across
// the full modulus range, raw input lengths padded to non-trivial
// power-of-two dims, rows spanning multiple 2048-element fused blocks,
// thread counts {1, 2, 8}, and every SIMD dispatch mode. Two independently
// constructed mechanism instances run the two paths, so the counters can be
// compared as totals without any reset plumbing.
#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel.h"
#include "common/random.h"
#include "common/simd.h"
#include "mechanisms/baseline_mechanisms.h"
#include "mechanisms/dgm_mechanism.h"
#include "mechanisms/distributed_mechanism.h"
#include "mechanisms/smm_mechanism.h"

namespace smm::mechanisms {
namespace {

constexpr size_t kNumParticipants = 9;
constexpr uint64_t kStreamSeed = 20220831;

constexpr uint64_t kModuli[] = {
    1ull << 16,
    1ull << 32,
    (1ull << 63) + 1,         // Odd, just past the int64 boundary.
    18446744073709551557ull,  // 2^64 - 59.
};

/// Raw (pre-padding) input lengths, padded below to the next power of two:
/// empty input, sub-lane lengths, one exact power of two, and 257 (a
/// non-power-of-two that pads to 512, leaving a 255-zero tail).
constexpr size_t kRawLengths[] = {0, 1, 5, 64, 257};

size_t PaddedDim(size_t raw) {
  size_t d = 1;
  while (d < raw) d <<= 1;
  return d;
}

/// Inputs of length `dim` whose first `raw` coordinates are Gaussian and
/// whose tail is the zero padding a caller with a raw-length vector would
/// append.
std::vector<std::vector<double>> MakeInputs(size_t raw, size_t dim) {
  RandomGenerator rng(31 * raw + dim);
  std::vector<std::vector<double>> inputs(kNumParticipants,
                                          std::vector<double>(dim, 0.0));
  for (auto& x : inputs) {
    for (size_t j = 0; j < raw; ++j) x[j] = rng.Gaussian(0.0, 0.05);
  }
  return inputs;
}

struct MechanismFactory {
  std::string name;
  std::function<std::unique_ptr<RotatedModularMechanism>(uint64_t m,
                                                         size_t dim)>
      make;
};

std::vector<MechanismFactory> AllFactories() {
  std::vector<MechanismFactory> out;
  out.push_back({"SMM", [](uint64_t m, size_t dim) {
                   SmmMechanism::Options o;
                   o.dim = dim;
                   o.gamma = 16.0;
                   o.c = 256.0;
                   o.delta_inf = 8.0;
                   o.lambda = 1.5;
                   o.modulus = m;
                   o.rotation_seed = 7;
                   return std::unique_ptr<RotatedModularMechanism>(
                       SmmMechanism::Create(o).value());
                 }});
  out.push_back({"DGM", [](uint64_t m, size_t dim) {
                   DgmMechanism::Options o;
                   o.dim = dim;
                   o.gamma = 16.0;
                   o.c = 256.0;
                   o.delta_inf = 8.0;
                   o.sigma = 1.5;
                   o.modulus = m;
                   o.rotation_seed = 7;
                   return std::unique_ptr<RotatedModularMechanism>(
                       DgmMechanism::Create(o).value());
                 }});
  out.push_back({"DDG", [](uint64_t m, size_t dim) {
                   DdgMechanism::Options o;
                   o.dim = dim;
                   o.gamma = 16.0;
                   o.l2_bound = 1.0;
                   o.sigma = 1.5;
                   o.modulus = m;
                   o.rotation_seed = 7;
                   return std::unique_ptr<RotatedModularMechanism>(
                       DdgMechanism::Create(o).value());
                 }});
  out.push_back({"Skellam", [](uint64_t m, size_t dim) {
                   AgarwalSkellamMechanism::Options o;
                   o.dim = dim;
                   o.gamma = 16.0;
                   o.l2_bound = 1.0;
                   o.lambda = 1.5;
                   o.modulus = m;
                   o.rotation_seed = 7;
                   return std::unique_ptr<RotatedModularMechanism>(
                       AgarwalSkellamMechanism::Create(o).value());
                 }});
  out.push_back({"cpSGD", [](uint64_t m, size_t dim) {
                   CpSgdMechanism::Options o;
                   o.dim = dim;
                   o.gamma = 16.0;
                   o.l2_bound = 1.0;
                   o.binomial_trials = 128;
                   o.modulus = m;
                   o.rotation_seed = 7;
                   return std::unique_ptr<RotatedModularMechanism>(
                       CpSgdMechanism::Create(o).value());
                 }});
  return out;
}

struct EncodeRun {
  std::vector<std::vector<uint64_t>> encoded;
  int64_t overflows = 0;
  int64_t rejections = 0;
};

int64_t Rejections(const RotatedModularMechanism& mechanism) {
  if (const auto* ddg = dynamic_cast<const DdgMechanism*>(&mechanism)) {
    return ddg->rounding_rejections();
  }
  return 0;
}

/// Runs the fused EncodeBatch through EncodeBatchParallel (virtual
/// dispatch), with fresh jump-ahead streams.
EncodeRun RunFused(RotatedModularMechanism& mechanism,
                   const std::vector<std::vector<double>>& inputs,
                   ThreadPool* pool) {
  RandomGenerator rng(kStreamSeed);
  std::vector<RandomGenerator> streams =
      MakeParticipantStreams(rng, inputs.size());
  EncodeRun run;
  run.encoded = EncodeBatchParallel(mechanism, inputs, streams, pool).value();
  run.overflows = mechanism.overflow_count();
  run.rejections = Rejections(mechanism);
  return run;
}

/// Runs the per-pass reference, one EncodeParticipant per participant in
/// order, with the identical streams.
EncodeRun RunReference(RotatedModularMechanism& mechanism,
                       const std::vector<std::vector<double>>& inputs) {
  RandomGenerator rng(kStreamSeed);
  std::vector<RandomGenerator> streams =
      MakeParticipantStreams(rng, inputs.size());
  EncodeRun run;
  for (size_t i = 0; i < inputs.size(); ++i) {
    run.encoded.push_back(
        mechanism.EncodeParticipant(inputs[i], streams[i]).value());
  }
  run.overflows = mechanism.overflow_count();
  run.rejections = Rejections(mechanism);
  return run;
}

TEST(EncodeFusedTest, FusedMatchesReferenceAcrossModuliAndPaddedDims) {
  for (const auto& factory : AllFactories()) {
    for (uint64_t m : kModuli) {
      for (size_t raw : kRawLengths) {
        const size_t dim = PaddedDim(raw);
        const auto inputs = MakeInputs(raw, dim);
        // Independent instances so the counters compare as totals.
        auto fused = factory.make(m, dim);
        auto reference = factory.make(m, dim);
        const EncodeRun f = RunFused(*fused, inputs, /*pool=*/nullptr);
        const EncodeRun u = RunReference(*reference, inputs);
        EXPECT_EQ(u.encoded, f.encoded)
            << factory.name << " m=" << m << " raw=" << raw;
        EXPECT_EQ(u.overflows, f.overflows)
            << factory.name << " m=" << m << " raw=" << raw;
        EXPECT_EQ(u.rejections, f.rejections)
            << factory.name << " m=" << m << " raw=" << raw;
      }
    }
  }
}

TEST(EncodeFusedTest, FusedMatchesReferenceAtEveryThreadAndDispatchMode) {
  constexpr uint64_t kModulus = 1ull << 32;
  for (const auto& factory : AllFactories()) {
    for (size_t dim : {size_t{64}, size_t{512}}) {
      const auto inputs = MakeInputs(dim, dim);
      // Scalar-dispatch reference run: what everything else must hit.
      simd::SetDispatchModeForTest(simd::DispatchMode::kForceScalar);
      auto reference_mechanism = factory.make(kModulus, dim);
      const EncodeRun reference = RunReference(*reference_mechanism, inputs);
      for (auto dispatch : {simd::DispatchMode::kForceScalar,
                            simd::DispatchMode::kForceAvx2,
                            simd::DispatchMode::kAuto}) {
        simd::SetDispatchModeForTest(dispatch);
        for (int threads : {1, 2, 8}) {
          ThreadPool pool(threads);
          auto fused = factory.make(kModulus, dim);
          const EncodeRun f = RunFused(*fused, inputs, &pool);
          EXPECT_EQ(reference.encoded, f.encoded)
              << factory.name << " dim=" << dim << " threads=" << threads
              << " dispatch=" << static_cast<int>(dispatch);
          EXPECT_EQ(reference.overflows, f.overflows)
              << factory.name << " dim=" << dim << " threads=" << threads;
          EXPECT_EQ(reference.rejections, f.rejections)
              << factory.name << " dim=" << dim << " threads=" << threads;
        }
      }
      simd::SetDispatchModeForTest(simd::DispatchMode::kAuto);
    }
  }
}

TEST(EncodeFusedTest, MultiBlockRowsChainBitIdentically) {
  // dim 4096 spans two 2048-element fused blocks, so the chained clip
  // reductions, the blockwise rounding, and the blockwise noise sampling
  // all cross a block boundary; 2^16 keeps wrap-around (overflow-count)
  // events in play at this gamma.
  constexpr size_t kDim = 4096;
  for (uint64_t m : {1ull << 16, 18446744073709551557ull}) {
    for (const auto& factory : AllFactories()) {
      const auto inputs = MakeInputs(kDim, kDim);
      auto fused = factory.make(m, kDim);
      auto reference = factory.make(m, kDim);
      const EncodeRun f = RunFused(*fused, inputs, /*pool=*/nullptr);
      const EncodeRun u = RunReference(*reference, inputs);
      EXPECT_EQ(u.encoded, f.encoded) << factory.name << " m=" << m;
      EXPECT_EQ(u.overflows, f.overflows) << factory.name << " m=" << m;
      EXPECT_EQ(u.rejections, f.rejections) << factory.name << " m=" << m;
    }
  }
}

}  // namespace
}  // namespace smm::mechanisms
