#include "fl/trainer.h"

#include <algorithm>
#include <cmath>

#include "accounting/binomial_accountant.h"
#include "accounting/calibration.h"
#include "accounting/mechanism_rdp.h"
#include "common/bit_util.h"
#include "mechanisms/baseline_mechanisms.h"
#include "mechanisms/clipping.h"
#include "mechanisms/conditional_rounding.h"
#include "mechanisms/dgm_mechanism.h"
#include "mechanisms/smm_mechanism.h"
#include "secagg/sharded_coordinator.h"

namespace smm::fl {

const char* MechanismKindName(MechanismKind kind) {
  switch (kind) {
    case MechanismKind::kSmm:
      return "SMM";
    case MechanismKind::kDgm:
      return "DGM";
    case MechanismKind::kDdg:
      return "DDG";
    case MechanismKind::kAgarwalSkellam:
      return "Skellam";
    case MechanismKind::kCpSgd:
      return "cpSGD";
    case MechanismKind::kCentralDpSgd:
      return "DPSGD";
    case MechanismKind::kNonPrivate:
      return "NonPrivate";
  }
  return "Unknown";
}

FederatedTrainer::FederatedTrainer(nn::Mlp model, data::Dataset train,
                                   data::Dataset test, FlConfig config)
    : model_(std::move(model)),
      train_(std::move(train)),
      test_(std::move(test)),
      config_(config),
      rng_(config.seed) {}

StatusOr<std::unique_ptr<FederatedTrainer>> FederatedTrainer::Create(
    nn::Mlp model, data::Dataset train, data::Dataset test,
    const FlConfig& config) {
  if (train.examples.empty()) {
    return InvalidArgumentError("empty training set");
  }
  if (config.rounds < 1) return InvalidArgumentError("rounds must be >= 1");
  if (config.expected_batch_size < 1 ||
      config.expected_batch_size > static_cast<int>(train.size())) {
    return InvalidArgumentError(
        "expected_batch_size must be in [1, |train set|]");
  }
  if (config.modulus < 2) {
    return InvalidArgumentError("modulus must be >= 2");
  }
  if (config.eval_every < 0) {
    return InvalidArgumentError("eval_every must be >= 0");
  }
  if (config.num_threads < 0) {
    return InvalidArgumentError("num_threads must be >= 0");
  }
  if (config.shard_count < 1) {
    return InvalidArgumentError("shard_count must be >= 1");
  }
  auto trainer = std::unique_ptr<FederatedTrainer>(new FederatedTrainer(
      std::move(model), std::move(train), std::move(test), config));
  const int threads = config.num_threads == 0 ? ThreadPool::HardwareThreads()
                                              : config.num_threads;
  if (threads > 1) trainer->pool_ = std::make_unique<ThreadPool>(threads);
  trainer->padded_dim_ = NextPowerOfTwo(trainer->model_.num_parameters());
  // Checked here so Create rejects plans no round could build (more shards
  // than padded coordinates).
  trainer->shard_count_ = static_cast<size_t>(config.shard_count);
  if (trainer->shard_count_ > trainer->padded_dim_) {
    return InvalidArgumentError(
        "shard_count exceeds the padded model dimension");
  }
  trainer->sampling_rate_ =
      static_cast<double>(config.expected_batch_size) /
      static_cast<double>(trainer->train_.size());
  trainer->aggregator_ = std::make_unique<secagg::IdealAggregator>();
  if (config.use_adam) {
    trainer->optimizer_ =
        std::make_unique<nn::AdamOptimizer>(config.learning_rate);
  } else {
    trainer->optimizer_ =
        std::make_unique<nn::SgdOptimizer>(config.learning_rate);
  }
  SMM_RETURN_IF_ERROR(trainer->Calibrate());
  return trainer;
}

Status FederatedTrainer::Calibrate() {
  const double q = sampling_rate_;
  const int steps = config_.rounds;
  const int batch = config_.expected_batch_size;
  const double d2 = config_.l2_clip;
  const double d = static_cast<double>(padded_dim_);
  const uint64_t rotation_seed = config_.seed ^ 0x5eedULL;

  switch (config_.mechanism) {
    case MechanismKind::kNonPrivate:
      return OkStatus();

    case MechanismKind::kCentralDpSgd: {
      SMM_ASSIGN_OR_RETURN(auto result,
                           accounting::CalibrateGaussian(
                               d2, q, steps, config_.epsilon, config_.delta));
      central_sigma_ = result.noise_parameter;
      noise_parameter_ = result.noise_parameter;
      guarantee_ = result.guarantee;
      return OkStatus();
    }

    case MechanismKind::kSmm: {
      const double c = config_.gamma * config_.gamma * d2 * d2;
      SMM_ASSIGN_OR_RETURN(auto result,
                           accounting::CalibrateSmm(
                               c, q, steps, config_.epsilon, config_.delta));
      const double n_lambda = result.noise_parameter;
      delta_inf_ = accounting::SmmMaxDeltaInf(n_lambda,
                                              result.guarantee.best_alpha);
      mechanisms::SmmMechanism::Options options;
      options.dim = padded_dim_;
      options.gamma = config_.gamma;
      options.c = c;
      options.delta_inf = delta_inf_;
      options.lambda = n_lambda / static_cast<double>(batch);
      options.modulus = config_.modulus;
      options.rotation_seed = rotation_seed;
      options.sampler_mode = config_.sampler_mode;
      SMM_ASSIGN_OR_RETURN(mechanism_,
                           mechanisms::SmmMechanism::Create(options));
      noise_parameter_ = options.lambda;
      guarantee_ = result.guarantee;
      return OkStatus();
    }

    case MechanismKind::kDgm: {
      const double c = config_.gamma * config_.gamma * d2 * d2;
      // Delta_1 <= sqrt(d) * gamma * Delta_2 (Appendix B.3).
      const double l1 = std::sqrt(d) * config_.gamma * d2;
      SMM_ASSIGN_OR_RETURN(
          auto result,
          accounting::CalibrateDgm(batch, c, l1,
                                   static_cast<int>(padded_dim_),
                                   /*delta_inf=*/0.0, q, steps,
                                   config_.epsilon, config_.delta));
      const double sigma = result.noise_parameter;
      // The paper computes the DGM Linf bound from Eq. (3) as well; map the
      // aggregate discrete Gaussian variance onto the equivalent Skellam
      // parameter (2 lambda = sigma^2 per participant).
      delta_inf_ = accounting::SmmMaxDeltaInf(
          static_cast<double>(batch) * sigma * sigma / 2.0,
          result.guarantee.best_alpha);
      mechanisms::DgmMechanism::Options options;
      options.dim = padded_dim_;
      options.gamma = config_.gamma;
      options.c = c;
      options.delta_inf = delta_inf_;
      options.sigma = sigma;
      options.modulus = config_.modulus;
      options.rotation_seed = rotation_seed;
      options.sampler_mode = config_.sampler_mode;
      SMM_ASSIGN_OR_RETURN(mechanism_,
                           mechanisms::DgmMechanism::Create(options));
      noise_parameter_ = sigma;
      guarantee_ = result.guarantee;
      return OkStatus();
    }

    case MechanismKind::kDdg: {
      const double rounded_bound = mechanisms::ConditionalRoundingNormBound(
          config_.gamma, d2, padded_dim_, config_.beta);
      const double l2_squared = rounded_bound * rounded_bound;
      const double l1 =
          std::min(std::sqrt(d) * rounded_bound, l2_squared);
      SMM_ASSIGN_OR_RETURN(
          auto result,
          accounting::CalibrateDdg(batch, l2_squared, l1,
                                   static_cast<int>(padded_dim_), q, steps,
                                   config_.epsilon, config_.delta));
      mechanisms::DdgMechanism::Options options;
      options.dim = padded_dim_;
      options.gamma = config_.gamma;
      options.l2_bound = d2;
      options.beta = config_.beta;
      options.sigma = result.noise_parameter;
      options.modulus = config_.modulus;
      options.rotation_seed = rotation_seed;
      options.sampler_mode = config_.sampler_mode;
      SMM_ASSIGN_OR_RETURN(mechanism_,
                           mechanisms::DdgMechanism::Create(options));
      noise_parameter_ = result.noise_parameter;
      guarantee_ = result.guarantee;
      return OkStatus();
    }

    case MechanismKind::kAgarwalSkellam: {
      const double rounded_bound = mechanisms::ConditionalRoundingNormBound(
          config_.gamma, d2, padded_dim_, config_.beta);
      const double l2_squared = rounded_bound * rounded_bound;
      const double l1 =
          std::min(std::sqrt(d) * rounded_bound, l2_squared);
      SMM_ASSIGN_OR_RETURN(auto result,
                           accounting::CalibrateSkellamAgarwal(
                               l2_squared, l1, q, steps, config_.epsilon,
                               config_.delta));
      mechanisms::AgarwalSkellamMechanism::Options options;
      options.dim = padded_dim_;
      options.gamma = config_.gamma;
      options.l2_bound = d2;
      options.beta = config_.beta;
      options.lambda = result.noise_parameter / static_cast<double>(batch);
      options.modulus = config_.modulus;
      options.rotation_seed = rotation_seed;
      options.sampler_mode = config_.sampler_mode;
      SMM_ASSIGN_OR_RETURN(
          mechanism_, mechanisms::AgarwalSkellamMechanism::Create(options));
      noise_parameter_ = options.lambda;
      guarantee_ = result.guarantee;
      return OkStatus();
    }

    case MechanismKind::kCpSgd: {
      // Stochastic rounding inflates the scaled L2 norm by up to sqrt(d).
      const double l2 = config_.gamma * d2 + std::sqrt(d);
      accounting::BinomialMechanismParams per_step;
      per_step.l2 = l2;
      per_step.l1 = std::sqrt(d) * l2;  // "L1 <= sqrt(d) * L2" (Section 6.1).
      per_step.linf = config_.gamma * d2 + 1.0;
      per_step.dimension = static_cast<int>(padded_dim_);
      SMM_ASSIGN_OR_RETURN(
          const double total_trials,
          accounting::CalibrateBinomialTrials(per_step, steps,
                                              config_.epsilon,
                                              config_.delta));
      mechanisms::CpSgdMechanism::Options options;
      options.dim = padded_dim_;
      options.gamma = config_.gamma;
      options.l2_bound = d2;
      options.binomial_trials = static_cast<int64_t>(
          std::ceil(total_trials / static_cast<double>(batch)));
      options.modulus = config_.modulus;
      options.rotation_seed = rotation_seed;
      SMM_ASSIGN_OR_RETURN(mechanism_,
                           mechanisms::CpSgdMechanism::Create(options));
      noise_parameter_ = static_cast<double>(options.binomial_trials);
      // cpSGD's analysis is pure (epsilon, delta); record epsilon only.
      guarantee_.epsilon = config_.epsilon;
      guarantee_.best_alpha = 0;
      return OkStatus();
    }
  }
  return InternalError("unhandled mechanism kind");
}

StatusOr<std::vector<double>> FederatedTrainer::AggregateRound(
    const std::vector<size_t>& participant_indices, double* mean_loss) {
  const size_t model_dim = model_.num_parameters();
  const size_t count = participant_indices.size();
  const int threads = pool_ != nullptr ? pool_->num_threads() : 1;
  // One tile of gradients/encodings per thread stays resident per round, so
  // peak round memory is O(threads·d) independent of how many participants
  // the Poisson sample drew. The tile size never affects results:
  // gradients and encodings depend only on the participant, and the
  // streamed modular sum is exact.
  const size_t tile_size = DefaultTileRows(threads);

  // Integer mechanism path: one ShardedCoordinator round per round, the
  // same coordinator RunDistributedSum uses. Tiles are encoded and handed to it
  // as they are produced, so the round never holds more than one tile of
  // gradients/encodings plus the workers' O(threads·d) running-sum state.
  // Each worker buffers one tile (tile_rows = tile_size) and absorbs it
  // with one sharded fork/join. At shard_count_ > 1 each worker sums one
  // ShardPlan range under the aggregator instance CreateShardAggregator
  // derives for its shard, and Finalize concatenates the ranges —
  // bit-identical to the unsharded round because every coordinate's
  // modular sum is computed exactly once either way.
  std::unique_ptr<secagg::ShardedCoordinator> round;
  if (mechanism_ != nullptr) {
    secagg::ShardedCoordinator::Options round_options;
    round_options.dim = padded_dim_;
    round_options.modulus = mechanism_->modulus();
    round_options.shard_count = shard_count_;
    round_options.pool = pool_.get();
    round_options.tile_rows = tile_size;
    SMM_ASSIGN_OR_RETURN(round, secagg::ShardedCoordinator::Open(
                                    *aggregator_, round_options));
  }

  std::vector<double> sum(model_dim, 0.0);
  double loss_sum = 0.0;
  std::vector<std::vector<double>> gradients;
  std::vector<double> losses;
  for (size_t tile_begin = 0; tile_begin < count; tile_begin += tile_size) {
    const size_t tile_end = std::min(count, tile_begin + tile_size);
    const size_t tile_count = tile_end - tile_begin;

    // Per-participant clipped gradients (Lines 4-6 of Algorithm 3), computed
    // in parallel: the forward/backward pass only reads the shared model,
    // and each participant writes its own slot.
    gradients.assign(tile_count, {});
    losses.assign(tile_count, 0.0);
    const auto compute_gradient = [&](size_t t) {
      const data::Example& example =
          train_.examples[participant_indices[tile_begin + t]];
      nn::Mlp::LossAndGrad lg =
          model_.ComputeLossAndGradient(example.features, example.label);
      losses[t] = lg.loss;
      mechanisms::L2Clip(lg.grad, config_.l2_clip);
      gradients[t] = std::move(lg.grad);
    };
    if (pool_ != nullptr) {
      pool_->ParallelFor(tile_count, [&](int, size_t begin, size_t end) {
        for (size_t t = begin; t < end; ++t) compute_gradient(t);
      });
    } else {
      for (size_t t = 0; t < tile_count; ++t) compute_gradient(t);
    }
    // Summed in participant order (tiles are visited in order) so the
    // result is thread-count invariant.
    for (double loss : losses) loss_sum += loss;

    if (mechanism_ != nullptr) {
      // Pad, batch-encode under per-participant jump-ahead streams, hand
      // each encoding to the round.
      // Forking the streams tile by tile consumes rng_ exactly as one
      // up-front MakeParticipantStreams(rng_, count) would, so the encodings
      // do not depend on the tile size.
      for (auto& g : gradients) g.resize(padded_dim_, 0.0);
      std::vector<RandomGenerator> streams =
          MakeParticipantStreams(rng_, tile_count);
      SMM_ASSIGN_OR_RETURN(auto encoded,
                           mechanisms::EncodeBatchParallel(
                               *mechanism_, gradients, streams, pool_.get()));
      for (size_t t = 0; t < tile_count; ++t) {
        SMM_RETURN_IF_ERROR(round->AddContribution(
            static_cast<int>(tile_begin + t), encoded[t]));
        // The round holds its own prepared copy; release this one so the
        // resident encodings stay one tile.
        std::vector<uint64_t>().swap(encoded[t]);
      }
    } else {
      // Central baselines: exact sum, accumulated in participant order.
      for (const auto& g : gradients) {
        for (size_t j = 0; j < model_dim; ++j) sum[j] += g[j];
      }
    }
  }
  if (mean_loss != nullptr) {
    *mean_loss = loss_sum / static_cast<double>(count);
  }

  if (mechanism_ != nullptr) {
    SMM_ASSIGN_OR_RETURN(secagg::SumMsg zm_sum, round->Finalize());
    SMM_ASSIGN_OR_RETURN(auto decoded,
                         mechanism_->DecodeSum(zm_sum.sum,
                                               static_cast<int>(count)));
    std::copy(decoded.begin(), decoded.begin() + static_cast<long>(model_dim),
              sum.begin());
  } else if (config_.mechanism == MechanismKind::kCentralDpSgd) {
    // Central DPSGD: Gaussian noise on the exact sum.
    for (size_t j = 0; j < model_dim; ++j) {
      sum[j] += rng_.Gaussian(0.0, central_sigma_);
    }
  }
  // Average over the (public) expected batch size.
  const double scale = 1.0 / static_cast<double>(config_.expected_batch_size);
  for (double& v : sum) v *= scale;
  return sum;
}

StatusOr<TrainingResult> FederatedTrainer::Train() {
  TrainingResult result;
  result.noise_parameter = noise_parameter_;
  result.guarantee = guarantee_;
  result.delta_inf = delta_inf_;

  for (int round = 1; round <= config_.rounds; ++round) {
    // Line 3 of Algorithm 3: Poisson sampling of participants at rate q.
    std::vector<size_t> participants;
    for (size_t i = 0; i < train_.size(); ++i) {
      if (rng_.Bernoulli(sampling_rate_)) participants.push_back(i);
    }
    if (participants.empty()) continue;

    double mean_loss = 0.0;
    Status injected = round_fault_injector_ != nullptr
                          ? round_fault_injector_(round)
                          : OkStatus();
    StatusOr<std::vector<double>> grad_avg =
        injected.ok() ? AggregateRound(participants, &mean_loss)
                      : StatusOr<std::vector<double>>(std::move(injected));
    if (!grad_avg.ok()) {
      // A failed aggregation round (deadline expiry, transport loss) costs
      // one Poisson sample's gradient step. Within the configured budget,
      // skip it — no model update — and keep training; past the budget,
      // fail the run with the round's status.
      if (result.failed_rounds >= config_.max_round_failures) {
        return grad_avg.status();
      }
      ++result.failed_rounds;
      RoundRecord record;
      record.round = round;
      record.failed = true;
      result.history.push_back(record);
      continue;
    }
    SMM_RETURN_IF_ERROR(
        optimizer_->Step(model_.mutable_parameters(), *grad_avg));

    const bool should_eval =
        (config_.eval_every > 0 && round % config_.eval_every == 0) ||
        round == config_.rounds;
    if (should_eval) {
      RoundRecord record;
      record.round = round;
      record.train_loss = mean_loss;
      const EvalMetrics metrics = EvaluateMetrics();
      record.test_accuracy = metrics.accuracy;
      record.test_loss = metrics.mean_loss;
      result.history.push_back(record);
    }
  }
  // The last *evaluated* record carries the final accuracy; failed rounds
  // recorded no metrics. None evaluated -> measure now.
  const RoundRecord* last_eval = nullptr;
  for (auto it = result.history.rbegin(); it != result.history.rend(); ++it) {
    if (!it->failed) {
      last_eval = &*it;
      break;
    }
  }
  result.final_accuracy =
      last_eval != nullptr ? last_eval->test_accuracy : EvaluateAccuracy();
  if (mechanism_ != nullptr) {
    result.total_overflows = mechanism_->overflow_count();
  }
  return result;
}

double FederatedTrainer::EvaluateAccuracy() const {
  return EvaluateMetrics().accuracy;
}

EvalMetrics FederatedTrainer::EvaluateMetrics() const {
  EvalMetrics metrics;
  if (test_.examples.empty()) return metrics;
  size_t count = test_.size();
  if (config_.max_eval_examples > 0) {
    count = std::min(count, static_cast<size_t>(config_.max_eval_examples));
  }
  // Each example's forward pass only reads the shared model and writes its
  // own slot, so the example range shards cleanly across the pool. The
  // reductions below are thread-count invariant: the correct counts are
  // integers, and the losses are summed in example order.
  std::vector<double> losses(count, 0.0);
  std::vector<size_t> correct_per_chunk(
      pool_ != nullptr ? static_cast<size_t>(pool_->num_threads()) : 1, 0);
  const auto evaluate_range = [&](size_t begin, size_t end, size_t chunk) {
    size_t correct = 0;
    for (size_t i = begin; i < end; ++i) {
      const data::Example& e = test_.examples[i];
      const nn::Mlp::PredictionLoss pl =
          model_.PredictWithLoss(e.features, e.label);
      if (pl.predicted == e.label) ++correct;
      losses[i] = pl.loss;
    }
    correct_per_chunk[chunk] = correct;
  };
  if (pool_ != nullptr && count > 1) {
    pool_->ParallelFor(count, [&](int chunk, size_t begin, size_t end) {
      evaluate_range(begin, end, static_cast<size_t>(chunk));
    });
  } else {
    evaluate_range(0, count, 0);
  }
  size_t correct = 0;
  for (size_t c : correct_per_chunk) correct += c;
  double loss_sum = 0.0;
  for (double loss : losses) loss_sum += loss;
  metrics.accuracy =
      static_cast<double>(correct) / static_cast<double>(count);
  metrics.mean_loss = loss_sum / static_cast<double>(count);
  return metrics;
}

}  // namespace smm::fl
