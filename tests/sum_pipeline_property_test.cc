// Property sweeps over the full distributed-sum pipeline: for every integer
// mechanism and a grid of (gamma, m), the decoded estimate must be close to
// the exact sum when noise is small and the modulus ample, and the error
// must track the predicted noise variance.
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "data/synthetic.h"
#include "mechanisms/baseline_mechanisms.h"
#include "mechanisms/dgm_mechanism.h"
#include "mechanisms/distributed_mechanism.h"
#include "mechanisms/smm_mechanism.h"
#include "secagg/secure_aggregator.h"

namespace smm::mechanisms {
namespace {

struct PipelineCase {
  double gamma;
  int log2_m;
};

class SumPipelineTest : public ::testing::TestWithParam<PipelineCase> {
 protected:
  void SetUp() override {
    RandomGenerator data_rng(55);
    inputs_ = data::SampleSphereDataset(20, 256, 1.0, data_rng);
  }
  std::vector<std::vector<double>> inputs_;
};

TEST_P(SumPipelineTest, SmmTracksExactSumWithTinyNoise) {
  const auto [gamma, log2_m] = GetParam();
  SmmMechanism::Options o;
  o.dim = 256;
  o.gamma = gamma;
  o.c = gamma * gamma;
  o.delta_inf = std::max(8.0, gamma);
  o.lambda = 0.05;
  o.modulus = 1ULL << log2_m;
  o.rotation_seed = 9;
  auto mech = SmmMechanism::Create(o);
  ASSERT_TRUE(mech.ok());
  RandomGenerator rng(7);
  secagg::IdealAggregator agg;
  auto estimate = RunDistributedSum(**mech, agg, inputs_, rng);
  ASSERT_TRUE(estimate.ok());
  // Per-dim error: (n * (2 lambda + 1/4 Bernoulli)) / gamma^2 plus clip
  // bias; allow 5x headroom. No wraps expected at these moduli.
  const double predicted =
      20.0 * (2.0 * 0.05 + 0.25) / (gamma * gamma);
  EXPECT_LT(MeanSquaredErrorPerDimension(*estimate, inputs_).value(),
            5.0 * predicted + 0.02);
  EXPECT_EQ((*mech)->overflow_count(), 0);
}

TEST_P(SumPipelineTest, DgmMatchesSmmErrorAtEqualVariance) {
  const auto [gamma, log2_m] = GetParam();
  RandomGenerator rng(13);
  secagg::IdealAggregator agg;

  SmmMechanism::Options so;
  so.dim = 256;
  so.gamma = gamma;
  so.c = gamma * gamma;
  so.delta_inf = std::max(8.0, gamma);
  so.lambda = 0.5;  // Variance 1.
  so.modulus = 1ULL << log2_m;
  so.rotation_seed = 9;
  auto smm = SmmMechanism::Create(so);
  ASSERT_TRUE(smm.ok());

  DgmMechanism::Options go;
  go.dim = 256;
  go.gamma = gamma;
  go.c = gamma * gamma;
  go.delta_inf = std::max(8.0, gamma);
  go.sigma = 1.0;  // Variance 1 = 2 * 0.5.
  go.modulus = 1ULL << log2_m;
  go.rotation_seed = 9;
  auto dgm = DgmMechanism::Create(go);
  ASSERT_TRUE(dgm.ok());

  double smm_mse = 0.0, dgm_mse = 0.0;
  constexpr int kReps = 8;
  for (int r = 0; r < kReps; ++r) {
    auto se = RunDistributedSum(**smm, agg, inputs_, rng);
    auto ge = RunDistributedSum(**dgm, agg, inputs_, rng);
    ASSERT_TRUE(se.ok());
    ASSERT_TRUE(ge.ok());
    smm_mse += MeanSquaredErrorPerDimension(*se, inputs_).value() / kReps;
    dgm_mse += MeanSquaredErrorPerDimension(*ge, inputs_).value() / kReps;
  }
  // Same pipeline, same noise variance: errors within 2x of each other.
  EXPECT_LT(smm_mse, 2.0 * dgm_mse + 1e-6);
  EXPECT_LT(dgm_mse, 2.0 * smm_mse + 1e-6);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SumPipelineTest,
    ::testing::Values(PipelineCase{8.0, 16}, PipelineCase{16.0, 16},
                      PipelineCase{16.0, 20}, PipelineCase{64.0, 20},
                      PipelineCase{128.0, 24}));

TEST(SumPipelineFailureInjection, WrongLengthAggregateRejected) {
  SmmMechanism::Options o;
  o.dim = 64;
  o.gamma = 8.0;
  o.c = 64.0;
  o.delta_inf = 8.0;
  o.lambda = 0.5;
  o.modulus = 1 << 16;
  auto mech = SmmMechanism::Create(o);
  ASSERT_TRUE(mech.ok());
  std::vector<uint64_t> wrong(32, 0);
  EXPECT_FALSE((*mech)->DecodeSum(wrong, 1).ok());
}

TEST(SumPipelineFailureInjection, MixedDimensionInputsRejected) {
  SmmMechanism::Options o;
  o.dim = 64;
  o.gamma = 8.0;
  o.c = 64.0;
  o.delta_inf = 8.0;
  o.lambda = 0.5;
  o.modulus = 1 << 16;
  auto mech = SmmMechanism::Create(o);
  ASSERT_TRUE(mech.ok());
  secagg::IdealAggregator agg;
  RandomGenerator rng(3);
  std::vector<std::vector<double>> inputs = {std::vector<double>(64, 0.1),
                                             std::vector<double>(32, 0.1)};
  EXPECT_FALSE(RunDistributedSum(**mech, agg, inputs, rng).ok());
}

TEST(SumPipelineFailureInjection, EmptyInputsRejected) {
  SmmMechanism::Options o;
  o.dim = 64;
  o.gamma = 8.0;
  o.c = 64.0;
  o.delta_inf = 8.0;
  o.lambda = 0.5;
  o.modulus = 1 << 16;
  auto mech = SmmMechanism::Create(o);
  ASSERT_TRUE(mech.ok());
  secagg::IdealAggregator agg;
  RandomGenerator rng(3);
  EXPECT_FALSE(RunDistributedSum(**mech, agg, {}, rng).ok());
}

TEST(SumPipelineFailureInjection, ZeroShardCountRejected) {
  SmmMechanism::Options o;
  o.dim = 64;
  o.gamma = 8.0;
  o.c = 64.0;
  o.delta_inf = 8.0;
  o.lambda = 0.5;
  o.modulus = 1 << 16;
  auto mech = SmmMechanism::Create(o);
  ASSERT_TRUE(mech.ok());
  secagg::IdealAggregator agg;
  RandomGenerator rng(3);
  const std::vector<std::vector<double>> inputs(2,
                                                std::vector<double>(64, 0.1));
  EXPECT_EQ(RunDistributedSum(**mech, agg, inputs, rng, /*pool=*/nullptr,
                              /*shard_count=*/0)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(SumPipelineDeterminism, SessionPathMatchesBatchPathAtEveryThreadCount) {
  // The wire path RunDistributedSum now runs (tile-encode -> mask -> frame
  // -> session -> stream) must be bit-identical to the former
  // batch-materializing pipeline (encode everything, AggregateParallel,
  // decode) at thread counts {1, 2, 8}, for both aggregators.
  SmmMechanism::Options o;
  o.dim = 128;
  o.gamma = 16.0;
  o.c = 256.0;
  o.delta_inf = 16.0;
  o.lambda = 1.0;
  o.modulus = 1 << 16;
  o.rotation_seed = 8;
  RandomGenerator data_rng(21);
  // More inputs than one session tile per thread count, so tiling kicks in.
  const auto inputs = data::SampleSphereDataset(100, 128, 1.0, data_rng);

  // The batch path, composed by hand exactly as RunDistributedSum used to.
  auto run_batch = [&](secagg::SecureAggregator& agg) {
    auto mech = SmmMechanism::Create(o).value();
    RandomGenerator rng(42);
    std::vector<RandomGenerator> streams =
        MakeParticipantStreams(rng, inputs.size());
    auto encoded = EncodeBatchParallel(*mech, inputs, streams).value();
    auto zm_sum = agg.Aggregate(encoded, mech->modulus()).value();
    return mech->DecodeSum(zm_sum, static_cast<int>(inputs.size())).value();
  };
  auto run_session = [&](secagg::SecureAggregator& agg, int threads) {
    auto mech = SmmMechanism::Create(o).value();
    RandomGenerator rng(42);
    ThreadPool pool(threads);
    return RunDistributedSum(*mech, agg, inputs, rng, &pool).value();
  };

  secagg::IdealAggregator ideal;
  const std::vector<double> batch = run_batch(ideal);
  for (int threads : {1, 2, 8}) {
    EXPECT_EQ(run_session(ideal, threads), batch) << threads << " threads";
  }

  // Masked protocol: masking + frame transport + deferred recovery must
  // cancel to the identical estimate.
  secagg::MaskedAggregator::Options mo;
  mo.num_participants = static_cast<int>(inputs.size());
  mo.threshold = 50;
  mo.session_seed = 2;
  auto masked = secagg::MaskedAggregator::Create(mo).value();
  for (int threads : {1, 2, 8}) {
    EXPECT_EQ(run_session(*masked, threads), batch) << threads << " threads";
  }
}

TEST(SumPipelineFailureInjection, MseValidatesDimensions) {
  // Ragged rows and estimate/input mismatches must surface as errors, not
  // out-of-bounds reads or silent zero-padding.
  const std::vector<std::vector<double>> inputs = {{1.0, 2.0}, {3.0, 4.0}};
  EXPECT_FALSE(MeanSquaredErrorPerDimension({}, inputs).ok());
  EXPECT_FALSE(MeanSquaredErrorPerDimension({1.0}, inputs).ok());
  EXPECT_FALSE(MeanSquaredErrorPerDimension({1.0, 2.0, 3.0}, inputs).ok());
  EXPECT_FALSE(MeanSquaredErrorPerDimension({1.0, 2.0}, {}).ok());
  EXPECT_FALSE(
      MeanSquaredErrorPerDimension({1.0, 2.0}, {{1.0, 2.0}, {3.0}}).ok());
  EXPECT_FALSE(MeanSquaredErrorPerDimension({}, {{}, {}}).ok());
  auto mse = MeanSquaredErrorPerDimension({4.0, 7.0}, inputs);
  ASSERT_TRUE(mse.ok());
  EXPECT_DOUBLE_EQ(*mse, 0.5);  // ((4-4)^2 + (7-6)^2) / 2.
}

TEST(SumPipelineDeterminism, SameSeedSameEstimate) {
  SmmMechanism::Options o;
  o.dim = 128;
  o.gamma = 16.0;
  o.c = 256.0;
  o.delta_inf = 16.0;
  o.lambda = 1.0;
  o.modulus = 1 << 16;
  o.rotation_seed = 4;
  RandomGenerator data_rng(5);
  const auto inputs = data::SampleSphereDataset(10, 128, 1.0, data_rng);
  secagg::IdealAggregator agg;

  auto run = [&]() {
    auto mech = SmmMechanism::Create(o).value();
    RandomGenerator rng(77);
    return RunDistributedSum(*mech, agg, inputs, rng).value();
  };
  const std::vector<double> a = run();
  const std::vector<double> b = run();
  EXPECT_EQ(a, b);
}

TEST(SumPipelineAggregatorEquivalence, MaskedAndIdealAgree) {
  // The DP mechanisms must be oblivious to which SecAgg implementation runs
  // underneath: same inputs + same mechanism RNG -> identical estimates.
  SmmMechanism::Options o;
  o.dim = 32;
  o.gamma = 16.0;
  o.c = 256.0;
  o.delta_inf = 16.0;
  o.lambda = 1.0;
  o.modulus = 1 << 12;
  o.rotation_seed = 4;
  RandomGenerator data_rng(6);
  const auto inputs = data::SampleSphereDataset(4, 32, 1.0, data_rng);

  auto run = [&](secagg::SecureAggregator& agg) {
    auto mech = SmmMechanism::Create(o).value();
    RandomGenerator rng(99);
    return RunDistributedSum(*mech, agg, inputs, rng).value();
  };
  secagg::IdealAggregator ideal;
  secagg::MaskedAggregator::Options mo;
  mo.num_participants = 4;
  mo.threshold = 2;
  mo.session_seed = 1;
  auto masked = secagg::MaskedAggregator::Create(mo).value();
  EXPECT_EQ(run(ideal), run(*masked));
}

}  // namespace
}  // namespace smm::mechanisms
