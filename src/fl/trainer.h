#ifndef SMM_FL_TRAINER_H_
#define SMM_FL_TRAINER_H_

#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "accounting/rdp_accountant.h"
#include "common/parallel.h"
#include "common/random.h"
#include "common/status.h"
#include "data/dataset.h"
#include "fl/fl_config.h"
#include "mechanisms/distributed_mechanism.h"
#include "nn/mlp.h"
#include "nn/optimizer.h"
#include "secagg/secure_aggregator.h"

namespace smm::fl {

/// Test-set metrics recorded during training.
struct RoundRecord {
  int round = 0;
  double train_loss = 0.0;
  double test_accuracy = 0.0;
  double test_loss = 0.0;
  /// True when this round's aggregation failed (deadline, transport loss)
  /// and was skipped under FlConfig::max_round_failures: no model update
  /// happened, the metrics above are zero, and training continued.
  bool failed = false;
};

/// One evaluation pass over the test set.
struct EvalMetrics {
  double accuracy = 0.0;
  double mean_loss = 0.0;
};

/// Outcome of one federated training run.
struct TrainingResult {
  double final_accuracy = 0.0;
  std::vector<RoundRecord> history;
  /// The calibrated noise scale (lambda, sigma, or binomial trials,
  /// depending on the mechanism; 0 for non-private).
  double noise_parameter = 0.0;
  /// The DP guarantee the calibration achieved (epsilon <= config.epsilon).
  accounting::DpGuarantee guarantee;
  /// The Linf clip used by the mixture mechanisms (from Eq. (3)).
  double delta_inf = 0.0;
  /// Modular wrap-around events across the run (utility-destroying at small
  /// bitwidths; Section 6.2).
  int64_t total_overflows = 0;
  /// Aggregation rounds that failed and were skipped (each also appears in
  /// `history` with RoundRecord::failed set). Always 0 when
  /// FlConfig::max_round_failures is 0 — a failure then fails the run.
  int failed_rounds = 0;
};

/// Federated learning with distributed SGD (Algorithm 3): every training
/// record is one participant; each round Poisson-samples a participant
/// subset, collects their mechanism-encoded clipped gradients through secure
/// aggregation, and updates the model with the decoded gradient average.
class FederatedTrainer {
 public:
  /// Calibrates the mechanism's noise to the config's (epsilon, delta)
  /// budget (Theorem 6 accounting) and wires up the pipeline.
  static StatusOr<std::unique_ptr<FederatedTrainer>> Create(
      nn::Mlp model, data::Dataset train, data::Dataset test,
      const FlConfig& config);

  /// Runs the T training rounds.
  StatusOr<TrainingResult> Train();

  /// Test accuracy of the current model. Sharded over the trainer's pool
  /// (result is thread-count invariant); shorthand for
  /// EvaluateMetrics().accuracy.
  double EvaluateAccuracy() const;

  /// Test accuracy and mean test loss in one pass over the (capped) test
  /// set. The forward passes shard across the trainer's pool; per-example
  /// results land in per-example slots and are reduced in example order, so
  /// both metrics are bit-identical for every thread count.
  EvalMetrics EvaluateMetrics() const;

  const nn::Mlp& model() const { return model_; }

  /// Test-only chaos hook: when set, runs before each round's aggregation;
  /// a non-OK return is treated exactly like that round's AggregateRound
  /// failing (the degradation path under FlConfig::max_round_failures).
  void SetRoundFaultInjectorForTest(
      std::function<Status(int round)> injector) {
    round_fault_injector_ = std::move(injector);
  }

 private:
  FederatedTrainer(nn::Mlp model, data::Dataset train, data::Dataset test,
                   FlConfig config);

  /// Per-mechanism noise calibration; fills mechanism_/central_sigma_ and
  /// the result metadata.
  Status Calibrate();

  /// One round: returns the decoded gradient average (model dimension).
  /// The round is pipelined per tile of O(threads) participants — compute
  /// gradients, encode, hand each encoding to the round's
  /// secagg::ShardedCoordinator (AddContribution, no framing) — so peak
  /// memory is O(threads·d) regardless of how many participants the
  /// Poisson sample drew, and the result is bit-identical to materializing
  /// every encoded vector and batch-aggregating. The coordinator runs
  /// shard_count_ workers over the ShardPlan's contiguous dimension ranges
  /// — still bit-identical at every K (exact modular arithmetic per
  /// coordinate).
  StatusOr<std::vector<double>> AggregateRound(
      const std::vector<size_t>& participant_indices, double* mean_loss);

  nn::Mlp model_;
  data::Dataset train_;
  data::Dataset test_;
  FlConfig config_;

  size_t padded_dim_ = 0;
  double sampling_rate_ = 0.0;
  /// Resolved shard workers per round (config.shard_count, or the tuned
  /// default when the config asked for 0). 1 = the unsharded session.
  size_t shard_count_ = 1;

  std::unique_ptr<mechanisms::DistributedSumMechanism> mechanism_;
  std::unique_ptr<secagg::SecureAggregator> aggregator_;
  std::unique_ptr<nn::Optimizer> optimizer_;
  /// Shared by gradient computation, batched encode, and aggregation;
  /// null when config.num_threads resolves to 1.
  std::unique_ptr<ThreadPool> pool_;
  RandomGenerator rng_;

  /// Central baseline state (kCentralDpSgd): per-coordinate Gaussian sigma.
  double central_sigma_ = 0.0;

  double noise_parameter_ = 0.0;
  accounting::DpGuarantee guarantee_;
  double delta_inf_ = 0.0;

  std::function<Status(int)> round_fault_injector_;
};

}  // namespace smm::fl

#endif  // SMM_FL_TRAINER_H_
