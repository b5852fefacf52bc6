#ifndef SMM_FL_FL_CONFIG_H_
#define SMM_FL_FL_CONFIG_H_

#include <cstdint>

#include "sampling/noise_sampler.h"

namespace smm::fl {

/// Which gradient-perturbation mechanism Algorithm 3 plugs in.
enum class MechanismKind {
  kSmm,             ///< Skellam mixture (this paper, Algorithm 4).
  kDgm,             ///< Discrete Gaussian mixture (Appendix B).
  kDdg,             ///< Distributed discrete Gaussian (Kairouz et al.).
  kAgarwalSkellam,  ///< Skellam with conditional rounding (Agarwal et al.).
  kCpSgd,           ///< Binomial noise with stochastic rounding.
  kCentralDpSgd,    ///< Centralized continuous Gaussian (DPSGD baseline).
  kNonPrivate,      ///< Exact aggregation; utility ceiling.
};

/// Human-readable mechanism name for experiment tables.
const char* MechanismKindName(MechanismKind kind);

/// Configuration of one federated training run (Algorithm 3 parameters plus
/// the experiment knobs of Section 6.2).
struct FlConfig {
  MechanismKind mechanism = MechanismKind::kSmm;

  /// Target (epsilon, delta)-DP budget for the whole run.
  double epsilon = 3.0;
  double delta = 1e-5;

  /// Expected Poisson batch size |B| (sampling rate q = batch / n).
  int expected_batch_size = 240;
  /// Number of training rounds T.
  int rounds = 1000;

  /// Scale parameter gamma (Line 2 of Algorithm 4).
  double gamma = 64.0;
  /// SecAgg modulus m (communication of log2(m) bits per dimension).
  uint64_t modulus = 256;
  /// L2 clipping norm Delta_2 for the real-valued per-example gradients
  /// (the paper uses 1 for all methods).
  double l2_clip = 1.0;
  /// Conditional-rounding bias parameter for DDG / Agarwal-Skellam.
  double beta = 0.60653065971263342;  // exp(-0.5)

  double learning_rate = 0.005;
  bool use_adam = true;

  sampling::SamplerMode sampler_mode = sampling::SamplerMode::kApproximate;
  uint64_t seed = 7;

  /// Threads for the per-round gradient/encode/aggregate pipeline
  /// (0 = hardware concurrency). Per-participant jump-ahead RNG streams make
  /// the trained model bit-identical for every thread count.
  int num_threads = 1;

  /// Dimension-range shard workers per aggregation round. 1 = today's
  /// single-session path; K > 1 splits each round across K narrower
  /// shard workers whose sums the coordinator merges; 0 = the
  /// tuned default (TunedShardCount). A pure performance dial: the sharded
  /// round is bit-identical to the unsharded one at every K.
  int shard_count = 1;

  /// Aggregation-round failures (deadline expiry, transport loss) the run
  /// tolerates before giving up: a failed round is skipped — no model
  /// update, marked failed in the history — and training continues, because
  /// losing one Poisson sample costs one gradient step, not the run. 0
  /// (default) = fail-fast: the first failed round fails Train() with its
  /// status, exactly the pre-degradation behavior.
  int max_round_failures = 0;

  /// Evaluate test accuracy every this many rounds (and always at the end).
  int eval_every = 100;
  /// Cap on test examples per evaluation (0 = use all).
  int max_eval_examples = 0;
};

}  // namespace smm::fl

#endif  // SMM_FL_FL_CONFIG_H_
