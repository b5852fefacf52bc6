#include "fl/trainer.h"

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "fl/fl_config.h"
#include "nn/mlp.h"

namespace smm::fl {
namespace {

data::SyntheticSplit SmallTask() {
  data::SyntheticImageOptions o;
  o.num_train = 400;
  o.num_test = 200;
  o.feature_dim = 16;
  o.num_classes = 4;
  o.noise_scale = 0.3;
  o.seed = 77;
  return MakeSyntheticImages(o).value();
}

nn::Mlp SmallModel() {
  nn::Mlp::Options o;
  o.input_dim = 16;
  o.hidden_dims = {16};
  o.num_classes = 4;
  o.init_seed = 5;
  return nn::Mlp::Create(o).value();
}

FlConfig FastConfig(MechanismKind mechanism) {
  FlConfig c;
  c.mechanism = mechanism;
  c.epsilon = 3.0;
  c.delta = 1e-5;
  c.expected_batch_size = 40;
  c.rounds = 60;
  c.gamma = 64.0;
  c.modulus = 1 << 16;
  c.learning_rate = 0.02;
  c.eval_every = 30;
  c.seed = 9;
  return c;
}

TEST(FederatedTrainerTest, CreateValidates) {
  auto task = SmallTask();
  FlConfig c = FastConfig(MechanismKind::kNonPrivate);
  c.rounds = 0;
  EXPECT_FALSE(
      FederatedTrainer::Create(SmallModel(), task.train, task.test, c).ok());
  c = FastConfig(MechanismKind::kNonPrivate);
  c.expected_batch_size = 100000;
  EXPECT_FALSE(
      FederatedTrainer::Create(SmallModel(), task.train, task.test, c).ok());
}

TEST(FederatedTrainerTest, CreateRejectsDegenerateConfigs) {
  // Every rejection below used to proceed into division-by-zero, `% 0`, or
  // empty-round undefined behavior; Create must refuse up front.
  auto task = SmallTask();
  const auto rejected = [&](void (*mutate)(FlConfig&)) {
    FlConfig c = FastConfig(MechanismKind::kSmm);
    mutate(c);
    auto trainer =
        FederatedTrainer::Create(SmallModel(), task.train, task.test, c);
    if (trainer.ok()) return false;
    return trainer.status().code() == StatusCode::kInvalidArgument;
  };
  EXPECT_TRUE(rejected([](FlConfig& c) { c.rounds = 0; }));
  EXPECT_TRUE(rejected([](FlConfig& c) { c.rounds = -3; }));
  EXPECT_TRUE(rejected([](FlConfig& c) { c.modulus = 0; }));
  EXPECT_TRUE(rejected([](FlConfig& c) { c.modulus = 1; }));
  EXPECT_TRUE(rejected([](FlConfig& c) { c.expected_batch_size = 0; }));
  EXPECT_TRUE(rejected([](FlConfig& c) { c.expected_batch_size = -1; }));
  EXPECT_TRUE(rejected([](FlConfig& c) { c.eval_every = -1; }));
  EXPECT_TRUE(rejected([](FlConfig& c) { c.num_threads = -1; }));

  // The unmutated config must pass, so the rejections above are meaningful.
  FlConfig good = FastConfig(MechanismKind::kSmm);
  EXPECT_TRUE(
      FederatedTrainer::Create(SmallModel(), task.train, task.test, good)
          .ok());
}

TEST(FederatedTrainerTest, NonPrivateLearnsTheTask) {
  auto task = SmallTask();
  auto trainer = FederatedTrainer::Create(
      SmallModel(), task.train, task.test,
      FastConfig(MechanismKind::kNonPrivate));
  ASSERT_TRUE(trainer.ok());
  auto result = (*trainer)->Train();
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->final_accuracy, 0.8);  // Chance level is 0.25.
  EXPECT_FALSE(result->history.empty());
}

TEST(FederatedTrainerTest, SmmTrainsCloseToNonPrivateAtModerateEpsilon) {
  auto task = SmallTask();
  auto trainer = FederatedTrainer::Create(SmallModel(), task.train, task.test,
                                          FastConfig(MechanismKind::kSmm));
  ASSERT_TRUE(trainer.ok());
  auto result = (*trainer)->Train();
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->final_accuracy, 0.5);
  EXPECT_LE(result->guarantee.epsilon, 3.0);
  EXPECT_GT(result->noise_parameter, 0.0);
  EXPECT_GT(result->delta_inf, 0.0);
}

TEST(FederatedTrainerTest, CentralDpSgdTrains) {
  auto task = SmallTask();
  auto trainer =
      FederatedTrainer::Create(SmallModel(), task.train, task.test,
                               FastConfig(MechanismKind::kCentralDpSgd));
  ASSERT_TRUE(trainer.ok());
  auto result = (*trainer)->Train();
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->final_accuracy, 0.5);
  EXPECT_LE(result->guarantee.epsilon, 3.0);
}

TEST(FederatedTrainerTest, GuaranteeRespectsEpsilonBudget) {
  auto task = SmallTask();
  for (double eps : {1.0, 5.0}) {
    FlConfig c = FastConfig(MechanismKind::kSmm);
    c.epsilon = eps;
    c.rounds = 20;
    auto trainer =
        FederatedTrainer::Create(SmallModel(), task.train, task.test, c);
    ASSERT_TRUE(trainer.ok());
    auto result = (*trainer)->Train();
    ASSERT_TRUE(result.ok());
    EXPECT_LE(result->guarantee.epsilon, eps);
  }
}

TEST(FederatedTrainerTest, MoreEpsilonMeansLessNoise) {
  auto task = SmallTask();
  double prev = 1e300;
  for (double eps : {1.0, 3.0, 5.0}) {
    FlConfig c = FastConfig(MechanismKind::kSmm);
    c.epsilon = eps;
    c.rounds = 10;
    auto trainer =
        FederatedTrainer::Create(SmallModel(), task.train, task.test, c);
    ASSERT_TRUE(trainer.ok());
    auto result = (*trainer)->Train();
    ASSERT_TRUE(result.ok());
    EXPECT_LT(result->noise_parameter, prev);
    prev = result->noise_parameter;
  }
}

TEST(FederatedTrainerTest, TinyModulusCausesOverflows) {
  auto task = SmallTask();
  FlConfig c = FastConfig(MechanismKind::kSmm);
  c.modulus = 4;  // 2 bits per coordinate: guaranteed wraps.
  c.epsilon = 1.0;
  c.rounds = 10;
  auto trainer =
      FederatedTrainer::Create(SmallModel(), task.train, task.test, c);
  ASSERT_TRUE(trainer.ok());
  auto result = (*trainer)->Train();
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->total_overflows, 0);
}

TEST(FederatedTrainerTest, DgmTrains) {
  auto task = SmallTask();
  FlConfig c = FastConfig(MechanismKind::kDgm);
  c.rounds = 30;
  auto trainer =
      FederatedTrainer::Create(SmallModel(), task.train, task.test, c);
  ASSERT_TRUE(trainer.ok());
  auto result = (*trainer)->Train();
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->final_accuracy, 0.3);
}

TEST(FederatedTrainerTest, DdgAndSkellamCalibrateAndRun) {
  auto task = SmallTask();
  for (MechanismKind kind :
       {MechanismKind::kDdg, MechanismKind::kAgarwalSkellam}) {
    FlConfig c = FastConfig(kind);
    c.rounds = 10;
    auto trainer =
        FederatedTrainer::Create(SmallModel(), task.train, task.test, c);
    ASSERT_TRUE(trainer.ok()) << MechanismKindName(kind);
    auto result = (*trainer)->Train();
    ASSERT_TRUE(result.ok()) << MechanismKindName(kind);
    EXPECT_GT(result->noise_parameter, 0.0);
  }
}

TEST(FederatedTrainerTest, CpSgdCalibratesToHugeNoise) {
  auto task = SmallTask();
  FlConfig c = FastConfig(MechanismKind::kCpSgd);
  c.rounds = 5;
  auto trainer =
      FederatedTrainer::Create(SmallModel(), task.train, task.test, c);
  ASSERT_TRUE(trainer.ok());
  auto result = (*trainer)->Train();
  ASSERT_TRUE(result.ok());
  // The binomial trial count must dwarf what any other mechanism needs —
  // the cpSGD pathology the paper reports.
  EXPECT_GT(result->noise_parameter, 1e4);
}

TEST(FederatedTrainerTest, TrainingIsThreadCountInvariant) {
  // The parallel round pipeline (gradients, batched encode, sharded
  // aggregation) must reproduce the single-threaded run bit for bit: same
  // history, same final model parameters.
  auto task = SmallTask();
  FlConfig base = FastConfig(MechanismKind::kSmm);
  base.rounds = 15;
  base.eval_every = 5;

  base.num_threads = 1;
  auto reference =
      FederatedTrainer::Create(SmallModel(), task.train, task.test, base);
  ASSERT_TRUE(reference.ok());
  auto reference_result = (*reference)->Train();
  ASSERT_TRUE(reference_result.ok());

  for (int threads : {2, 8}) {
    FlConfig c = base;
    c.num_threads = threads;
    auto trainer =
        FederatedTrainer::Create(SmallModel(), task.train, task.test, c);
    ASSERT_TRUE(trainer.ok()) << threads << " threads";
    auto result = (*trainer)->Train();
    ASSERT_TRUE(result.ok()) << threads << " threads";
    EXPECT_EQ(result->total_overflows, reference_result->total_overflows);
    ASSERT_EQ(result->history.size(), reference_result->history.size());
    for (size_t i = 0; i < result->history.size(); ++i) {
      EXPECT_EQ(result->history[i].train_loss,
                reference_result->history[i].train_loss)
          << threads << " threads, record " << i;
      EXPECT_EQ(result->history[i].test_accuracy,
                reference_result->history[i].test_accuracy);
    }
    const auto& ref_params = (*reference)->model().parameters();
    const auto& params = (*trainer)->model().parameters();
    ASSERT_EQ(params.size(), ref_params.size());
    for (size_t j = 0; j < params.size(); ++j) {
      EXPECT_EQ(params[j], ref_params[j])
          << threads << " threads, parameter " << j;
    }
  }
}

TEST(FederatedTrainerTest, TrainingIsShardCountInvariant) {
  // The dimension-sharded aggregation path (config.shard_count > 1: K
  // shard workers merged by MergeShardSums) must reproduce the
  // unsharded run bit for bit, at one and several threads.
  auto task = SmallTask();
  FlConfig base = FastConfig(MechanismKind::kSmm);
  base.rounds = 10;
  base.eval_every = 5;
  base.shard_count = 1;
  base.num_threads = 1;
  auto reference =
      FederatedTrainer::Create(SmallModel(), task.train, task.test, base);
  ASSERT_TRUE(reference.ok());
  auto reference_result = (*reference)->Train();
  ASSERT_TRUE(reference_result.ok());

  for (int shards : {2, 3}) {
    for (int threads : {1, 2}) {
      FlConfig c = base;
      c.shard_count = shards;
      c.num_threads = threads;
      auto trainer =
          FederatedTrainer::Create(SmallModel(), task.train, task.test, c);
      ASSERT_TRUE(trainer.ok()) << shards << " shards";
      auto result = (*trainer)->Train();
      ASSERT_TRUE(result.ok()) << shards << " shards";
      ASSERT_EQ(result->history.size(), reference_result->history.size());
      for (size_t i = 0; i < result->history.size(); ++i) {
        EXPECT_EQ(result->history[i].train_loss,
                  reference_result->history[i].train_loss)
            << shards << " shards, " << threads << " threads, record " << i;
      }
      const auto& ref_params = (*reference)->model().parameters();
      const auto& params = (*trainer)->model().parameters();
      ASSERT_EQ(params.size(), ref_params.size());
      for (size_t j = 0; j < params.size(); ++j) {
        EXPECT_EQ(params[j], ref_params[j])
            << shards << " shards, parameter " << j;
      }
    }
  }
  // shard_count must lie in [1, padded model dimension].
  FlConfig bad = base;
  bad.shard_count = -1;
  EXPECT_FALSE(
      FederatedTrainer::Create(SmallModel(), task.train, task.test, bad).ok());
  bad.shard_count = 0;
  EXPECT_FALSE(
      FederatedTrainer::Create(SmallModel(), task.train, task.test, bad).ok());
  bad.shard_count = 1 << 20;
  EXPECT_FALSE(
      FederatedTrainer::Create(SmallModel(), task.train, task.test, bad).ok());
}

TEST(FederatedTrainerTest, FailedRoundsAreSkippedWithinTheFailureBudget) {
  auto task = SmallTask();
  FlConfig c = FastConfig(MechanismKind::kNonPrivate);
  c.max_round_failures = 5;
  auto trainer =
      FederatedTrainer::Create(SmallModel(), task.train, task.test, c);
  ASSERT_TRUE(trainer.ok());
  // Three rounds lose their aggregation (deadline / transport loss shape).
  (*trainer)->SetRoundFaultInjectorForTest([](int round) {
    if (round == 4 || round == 17 || round == 40) {
      return UnavailableError("injected round loss");
    }
    return OkStatus();
  });
  auto result = (*trainer)->Train();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->failed_rounds, 3);
  int failed_records = 0;
  for (const auto& record : result->history) {
    if (!record.failed) continue;
    ++failed_records;
    EXPECT_TRUE(record.round == 4 || record.round == 17 || record.round == 40)
        << record.round;
    EXPECT_EQ(record.test_accuracy, 0.0);  // No metrics for a skipped round.
  }
  EXPECT_EQ(failed_records, 3);
  // 57 of 60 rounds still ran: the model still learns the task.
  EXPECT_GT(result->final_accuracy, 0.8);
}

TEST(FederatedTrainerTest, RoundFailurePastTheBudgetFailsTheRun) {
  auto task = SmallTask();
  FlConfig c = FastConfig(MechanismKind::kNonPrivate);
  c.rounds = 10;
  c.max_round_failures = 2;
  auto trainer =
      FederatedTrainer::Create(SmallModel(), task.train, task.test, c);
  ASSERT_TRUE(trainer.ok());
  (*trainer)->SetRoundFaultInjectorForTest([](int round) {
    return round >= 3 ? UnavailableError("injected round loss") : OkStatus();
  });
  auto result = (*trainer)->Train();
  ASSERT_FALSE(result.ok());  // Rounds 3 and 4 skipped; round 5 exceeds.
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
}

TEST(FederatedTrainerTest, DefaultBudgetKeepsFailFastBehavior) {
  auto task = SmallTask();
  FlConfig c = FastConfig(MechanismKind::kNonPrivate);
  c.rounds = 10;
  ASSERT_EQ(c.max_round_failures, 0);
  auto trainer =
      FederatedTrainer::Create(SmallModel(), task.train, task.test, c);
  ASSERT_TRUE(trainer.ok());
  (*trainer)->SetRoundFaultInjectorForTest([](int round) {
    return round == 2 ? DataLossError("injected round loss") : OkStatus();
  });
  auto result = (*trainer)->Train();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDataLoss);
}

TEST(FederatedTrainerTest, MechanismNamesAreStable) {
  EXPECT_STREQ(MechanismKindName(MechanismKind::kSmm), "SMM");
  EXPECT_STREQ(MechanismKindName(MechanismKind::kDdg), "DDG");
  EXPECT_STREQ(MechanismKindName(MechanismKind::kAgarwalSkellam), "Skellam");
  EXPECT_STREQ(MechanismKindName(MechanismKind::kCpSgd), "cpSGD");
  EXPECT_STREQ(MechanismKindName(MechanismKind::kCentralDpSgd), "DPSGD");
}

}  // namespace
}  // namespace smm::fl
