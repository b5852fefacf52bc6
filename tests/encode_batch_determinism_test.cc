// Property tests for the batched parallel encode pipeline: for every
// mechanism, the fused EncodeBatch must be bit-identical to calling
// EncodeParticipant once per participant, and the parallel path must be
// bit-identical to the sequential path for 1, 2, and 8 threads — down to
// the decoded sum and the overflow accounting.
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel.h"
#include "common/random.h"
#include "common/simd.h"
#include "mechanisms/baseline_mechanisms.h"
#include "mechanisms/dgm_mechanism.h"
#include "mechanisms/distributed_mechanism.h"
#include "mechanisms/smm_mechanism.h"
#include "secagg/secure_aggregator.h"

namespace smm::mechanisms {
namespace {

constexpr size_t kDim = 64;
constexpr size_t kNumParticipants = 12;
constexpr uint64_t kStreamSeed = 4242;

std::vector<std::vector<double>> MakeInputs() {
  RandomGenerator rng(99);
  std::vector<std::vector<double>> inputs(kNumParticipants,
                                          std::vector<double>(kDim));
  for (auto& x : inputs) {
    for (auto& v : x) v = rng.Gaussian(0.0, 0.05);
  }
  return inputs;
}

struct NamedMechanism {
  std::string name;
  std::unique_ptr<DistributedSumMechanism> mechanism;
};

std::vector<NamedMechanism> MakeAllMechanisms(sampling::SamplerMode mode) {
  std::vector<NamedMechanism> out;
  {
    SmmMechanism::Options o;
    o.dim = kDim;
    o.gamma = 16.0;
    o.c = 256.0;
    o.delta_inf = 8.0;
    o.lambda = 1.5;
    o.modulus = 1 << 12;
    o.rotation_seed = 7;
    o.sampler_mode = mode;
    out.push_back({"SMM", SmmMechanism::Create(o).value()});
  }
  {
    DgmMechanism::Options o;
    o.dim = kDim;
    o.gamma = 16.0;
    o.c = 256.0;
    o.delta_inf = 8.0;
    o.sigma = 1.5;
    o.modulus = 1 << 12;
    o.rotation_seed = 7;
    o.sampler_mode = mode;
    out.push_back({"DGM", DgmMechanism::Create(o).value()});
  }
  {
    DdgMechanism::Options o;
    o.dim = kDim;
    o.gamma = 16.0;
    o.l2_bound = 1.0;
    o.sigma = 1.5;
    o.modulus = 1 << 12;
    o.rotation_seed = 7;
    o.sampler_mode = mode;
    out.push_back({"DDG", DdgMechanism::Create(o).value()});
  }
  {
    AgarwalSkellamMechanism::Options o;
    o.dim = kDim;
    o.gamma = 16.0;
    o.l2_bound = 1.0;
    o.lambda = 1.5;
    o.modulus = 1 << 12;
    o.rotation_seed = 7;
    o.sampler_mode = mode;
    out.push_back({"Skellam", AgarwalSkellamMechanism::Create(o).value()});
  }
  if (mode == sampling::SamplerMode::kApproximate) {
    // cpSGD has no exact-sampler variant.
    CpSgdMechanism::Options o;
    o.dim = kDim;
    o.gamma = 16.0;
    o.l2_bound = 1.0;
    o.binomial_trials = 128;
    o.modulus = 1 << 12;
    o.rotation_seed = 7;
    out.push_back({"cpSGD", CpSgdMechanism::Create(o).value()});
  }
  return out;
}

/// Encodes all inputs with fresh jump-ahead streams (always derived the same
/// way) through EncodeBatchParallel, returning the encodings and the
/// overflow count the run added.
struct EncodeRun {
  std::vector<std::vector<uint64_t>> encoded;
  int64_t overflows = 0;
};

EncodeRun RunEncode(DistributedSumMechanism& mechanism,
                    const std::vector<std::vector<double>>& inputs,
                    ThreadPool* pool) {
  RandomGenerator rng(kStreamSeed);
  std::vector<RandomGenerator> streams =
      MakeParticipantStreams(rng, inputs.size());
  mechanism.ResetOverflowCount();
  EncodeRun run;
  run.encoded =
      EncodeBatchParallel(mechanism, inputs, streams, pool).value();
  run.overflows = mechanism.overflow_count();
  return run;
}

TEST(EncodeBatchDeterminismTest, BatchMatchesEncodeParticipantBitForBit) {
  const auto inputs = MakeInputs();
  for (auto mode : {sampling::SamplerMode::kApproximate,
                    sampling::SamplerMode::kExact}) {
    for (auto& named : MakeAllMechanisms(mode)) {
      // Reference: one EncodeParticipant call per participant, each on its
      // own stream.
      RandomGenerator rng(kStreamSeed);
      std::vector<RandomGenerator> streams =
          MakeParticipantStreams(rng, inputs.size());
      std::vector<std::vector<uint64_t>> reference(inputs.size());
      for (size_t i = 0; i < inputs.size(); ++i) {
        auto encoded = named.mechanism->EncodeParticipant(inputs[i],
                                                          streams[i]);
        ASSERT_TRUE(encoded.ok()) << named.name;
        reference[i] = std::move(*encoded);
      }
      const int64_t reference_overflows = named.mechanism->overflow_count();

      named.mechanism->ResetOverflowCount();
      const EncodeRun batched =
          RunEncode(*named.mechanism, inputs, /*pool=*/nullptr);
      EXPECT_EQ(reference, batched.encoded) << named.name;
      EXPECT_EQ(reference_overflows, batched.overflows) << named.name;
    }
  }
}

TEST(EncodeBatchDeterminismTest, ParallelMatchesSequentialAtEveryThreadCount) {
  const auto inputs = MakeInputs();
  for (auto mode : {sampling::SamplerMode::kApproximate,
                    sampling::SamplerMode::kExact}) {
    for (auto& named : MakeAllMechanisms(mode)) {
      const EncodeRun sequential =
          RunEncode(*named.mechanism, inputs, /*pool=*/nullptr);
      for (int threads : {1, 2, 8}) {
        ThreadPool pool(threads);
        const EncodeRun parallel =
            RunEncode(*named.mechanism, inputs, &pool);
        EXPECT_EQ(sequential.encoded, parallel.encoded)
            << named.name << " at " << threads << " threads";
        EXPECT_EQ(sequential.overflows, parallel.overflows)
            << named.name << " at " << threads << " threads";
      }
    }
  }
}

TEST(EncodeBatchDeterminismTest, DecodedSumIsThreadCountInvariant) {
  const auto inputs = MakeInputs();
  secagg::IdealAggregator aggregator;
  for (auto& named :
       MakeAllMechanisms(sampling::SamplerMode::kApproximate)) {
    RandomGenerator seq_rng(kStreamSeed);
    const std::vector<double> sequential =
        RunDistributedSum(*named.mechanism, aggregator, inputs, seq_rng)
            .value();
    for (int threads : {1, 2, 8}) {
      ThreadPool pool(threads);
      RandomGenerator par_rng(kStreamSeed);
      const std::vector<double> parallel =
          RunDistributedSum(*named.mechanism, aggregator, inputs, par_rng,
                            &pool)
              .value();
      ASSERT_EQ(sequential.size(), parallel.size()) << named.name;
      for (size_t j = 0; j < sequential.size(); ++j) {
        EXPECT_EQ(sequential[j], parallel[j])
            << named.name << " coord " << j << " at " << threads
            << " threads";
      }
    }
  }
}

TEST(EncodeBatchDeterminismTest, ScalarDispatchMatchesSimdAtEveryThreadCount) {
  // The SIMD dispatch sweep: the forced-scalar reference kernels and the
  // cpuid-dispatched kernels must produce bit-identical encodings (and
  // overflow accounting) for every mechanism at threads {1, 2, 8}. This is
  // the in-process equivalent of rerunning the suite under
  // SMM_FORCE_SCALAR=1, and it pins AVX2 == scalar end-to-end through
  // rotate/scale, clip, round, perturb, and wrap.
  const auto inputs = MakeInputs();
  for (auto mode : {sampling::SamplerMode::kApproximate,
                    sampling::SamplerMode::kExact}) {
    for (auto& named : MakeAllMechanisms(mode)) {
      simd::SetDispatchModeForTest(simd::DispatchMode::kForceScalar);
      const EncodeRun scalar_run =
          RunEncode(*named.mechanism, inputs, /*pool=*/nullptr);
      simd::SetDispatchModeForTest(simd::DispatchMode::kAuto);
      for (int threads : {1, 2, 8}) {
        ThreadPool pool(threads);
        const EncodeRun dispatched =
            RunEncode(*named.mechanism, inputs, &pool);
        EXPECT_EQ(scalar_run.encoded, dispatched.encoded)
            << named.name << " at " << threads << " threads";
        EXPECT_EQ(scalar_run.overflows, dispatched.overflows)
            << named.name << " at " << threads << " threads";
      }
    }
  }
  simd::SetDispatchModeForTest(simd::DispatchMode::kAuto);
}

}  // namespace
}  // namespace smm::mechanisms
