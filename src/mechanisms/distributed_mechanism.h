#ifndef SMM_MECHANISMS_DISTRIBUTED_MECHANISM_H_
#define SMM_MECHANISMS_DISTRIBUTED_MECHANISM_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/parallel.h"
#include "common/random.h"
#include "common/status.h"
#include "mechanisms/rotation_codec.h"
#include "secagg/secure_aggregator.h"

namespace smm::mechanisms {

/// Reusable scratch buffers for EncodeBatch. One workspace serves one thread:
/// the batched encoders route every intermediate (rotated/clipped reals,
/// rounded/perturbed integers, block-sampled noise) through these buffers,
/// so steady-state encoding allocates nothing per participant.
struct EncodeWorkspace {
  std::vector<double> real;    ///< Rotated/scaled/clipped coordinates.
  std::vector<int64_t> ints;   ///< Rounded/perturbed integer coordinates.
  std::vector<int64_t> noise;  ///< Block-sampled noise draws.
  std::vector<double> batch;   ///< Row-major batched-rotation tile.
};

/// Event counters accumulated privately over one encode batch and published
/// to the mechanism's atomics once per batch, so concurrent shards never
/// contend on (or lose) events.
struct EncodeCounters {
  int64_t overflow = 0;    ///< Coordinates wrapped outside [-m/2, m/2).
  int64_t rejections = 0;  ///< Conditional-rounding rejected attempts.
};

/// Describes the mechanism-specific middle of the *fused* encode pipeline —
/// the data RotatedModularMechanism::EncodeBatch needs to run the
/// clip/round/noise stages block by block on the mechanism's behalf instead
/// of calling the whole-row PerturbRotatedInto hook. All five integer
/// mechanisms share the same stage skeleton (a clip with one whole-row
/// reduction, a rounding step, one noise block per coordinate), so the spec
/// is pure data plus one noise callback; the blocked sweeps themselves live
/// once, in the base class. Every mechanism hands its spec to the
/// RotatedModularMechanism constructor.
struct FusedPerturbSpec {
  /// Which clip family the mechanism applies to the rotated row.
  enum class Clip { kSmm, kL2 };
  Clip clip = Clip::kL2;
  double smm_c = 0.0;          ///< Clip::kSmm: Algorithm 5 threshold c.
  double smm_delta_inf = 1.0;  ///< Clip::kSmm: floored Linf bound (>= 1).
  double l2_threshold = 0.0;   ///< Clip::kL2: gamma * l2_bound.

  /// True for DDG/Agarwal-Skellam conditional rounding (whole-row
  /// accept/reject on the rounded norm — inherently unfusable, so the base
  /// runs the historical whole-row loop between its blocked sweeps); false
  /// for plain stochastic rounding, which fuses with the clip apply.
  bool conditional_round = false;
  double norm_bound = 0.0;  ///< conditional_round: the Eq. (6) bound.
  int max_retries = 1;      ///< conditional_round: retry budget.
  bool track_rejections = false;  ///< Count rejected attempts in counters.

  /// Fills out[0..n) with the mechanism's noise. Must consume `rng` exactly
  /// as n scalar sampler draws in order (the SampleBlock contract), so that
  /// calling it block by block across a row draws the identical stream as
  /// one whole-row SampleBlock — the property that keeps the fused
  /// pipeline bit-identical to EncodeParticipant.
  std::function<void(size_t n, int64_t* out, RandomGenerator& rng)>
      sample_block;
};

/// A distributed-DP mechanism for the sum estimation problem of Section 3.1,
/// split into the participant-side encoding (noise injection + reduction
/// into Z_m; e.g. Algorithm 4) and the server-side decoding of the
/// aggregated Z_m sum (e.g. Algorithm 6). All competitor mechanisms of the
/// paper implement this interface, so the experiment harnesses and the FL
/// trainer are mechanism-agnostic.
class DistributedSumMechanism {
 public:
  virtual ~DistributedSumMechanism() = default;

  /// Participant procedure: perturbs x (length dim()) and returns the
  /// integer vector in Z_m^d destined for secure aggregation.
  virtual StatusOr<std::vector<uint64_t>> EncodeParticipant(
      const std::vector<double>& x, RandomGenerator& rng) = 0;

  /// Batched participant procedure: encodes inputs[begin..end) into
  /// (*out)[begin..end), drawing participant i's randomness exclusively from
  /// rng_streams[i] and reusing `workspace` scratch across participants.
  /// out must already have inputs.size() entries.
  ///
  /// Contract: the encoding of participant i depends only on inputs[i] and
  /// rng_streams[i], so any partition of [0, n) into ranges — one per
  /// thread, each with its own workspace — yields bit-identical output.
  /// Each participant's output and stream consumption must equal
  /// EncodeParticipant's; RotatedModularMechanism implements this with an
  /// allocation-free fused pipeline.
  virtual Status EncodeBatch(const std::vector<std::vector<double>>& inputs,
                             size_t begin, size_t end,
                             RandomGenerator* rng_streams,
                             EncodeWorkspace& workspace,
                             std::vector<std::vector<uint64_t>>* out) = 0;

  /// Server procedure: converts the aggregated Z_m sum into an unbiased
  /// estimate of sum_i x_i. num_participants is the count that contributed.
  virtual StatusOr<std::vector<double>> DecodeSum(
      const std::vector<uint64_t>& zm_sum, int num_participants) = 0;

  /// The SecAgg modulus m (per-dimension communication of log2(m) bits).
  virtual uint64_t modulus() const = 0;

  /// The (power-of-two) dimension the mechanism operates in.
  virtual size_t dim() const = 0;

  /// Coordinates whose encoded value fell outside [-m/2, m/2) across all
  /// EncodeParticipant calls since Reset — the modular wrap-around events
  /// that destroy utility at small bitwidths (Section 6.2).
  virtual int64_t overflow_count() const { return 0; }
  virtual void ResetOverflowCount() {}
};

/// The shared scaffold of all five integer mechanisms: every one rotates and
/// scales through a RotationCodec, applies a mechanism-specific
/// clip/round/perturb step, and reduces into Z_m. This base folds the
/// formerly quintuplicated EncodeParticipant / EncodeBatch / DecodeSum /
/// overflow-accounting bodies into one place; concrete mechanisms implement
/// only PerturbRotatedInto (the middle of the pipeline).
///
/// EncodeBatch runs the *fused* blocked pipeline the mechanism's
/// FusedPerturbSpec describes: rows are
/// rotated through RotationCodec::RotateRawBatchInto in cache-bounded
/// tiles, then each row is finished in three blocked sweeps of <= 16 KiB
/// L1-resident blocks — (1) Hadamard normalization + gamma + clip
/// reduction, (2) clip apply + stochastic-round prep + Bernoulli draws,
/// (3) noise + add + modular wrap straight into the output row — instead of
/// the seven-odd full-vector passes of the per-stage path. RNG draws are
/// consumed in exactly the historical per-coordinate order (all rounding
/// draws, then all noise draws, each in coordinate order), so the fused
/// output is byte-identical to EncodeParticipant at every thread count and
/// dispatch mode; encode_fused_test and the encode determinism suite pin
/// this. EncodeParticipant — the test reference — performs the identical
/// arithmetic one row at a time through PerturbRotatedInto.
class RotatedModularMechanism : public DistributedSumMechanism {
 public:
  StatusOr<std::vector<uint64_t>> EncodeParticipant(
      const std::vector<double>& x, RandomGenerator& rng) override;

  Status EncodeBatch(const std::vector<std::vector<double>>& inputs,
                     size_t begin, size_t end, RandomGenerator* rng_streams,
                     EncodeWorkspace& workspace,
                     std::vector<std::vector<uint64_t>>* out) override;

  /// Centered unwrap, inverse rotation, rescale (Algorithm 6). Mechanisms
  /// whose estimate depends on the participant count override this.
  StatusOr<std::vector<double>> DecodeSum(const std::vector<uint64_t>& zm_sum,
                                          int num_participants) override;

  uint64_t modulus() const override { return codec_.modulus(); }
  size_t dim() const override { return codec_.dim(); }
  int64_t overflow_count() const override {
    return overflow_count_.load(std::memory_order_relaxed);
  }
  void ResetOverflowCount() override {
    overflow_count_.store(0, std::memory_order_relaxed);
  }

 protected:
  /// `fused_spec` describes PerturbRotatedInto for EncodeBatch; its
  /// sample_block may capture pointers into the concrete mechanism, which
  /// Create heap-allocates and never moves.
  RotatedModularMechanism(RotationCodec codec, FusedPerturbSpec fused_spec)
      : codec_(std::move(codec)), fused_spec_(std::move(fused_spec)) {}

  /// The mechanism-specific middle of the encode pipeline. On entry
  /// workspace.real holds the rotated + scaled coordinates; implementations
  /// clip/round/perturb them into workspace.ints, drawing randomness only
  /// from `rng` (so any partition of participants across threads is
  /// bit-identical) and adding events to `counters` instead of touching
  /// shared state.
  virtual Status PerturbRotatedInto(RandomGenerator& rng,
                                    EncodeWorkspace& workspace,
                                    EncodeCounters& counters) = 0;

  /// Publishes one batch's counters to the shared atomics. The default
  /// publishes counters.overflow; mechanisms tracking more (e.g. rounding
  /// rejections) extend it.
  virtual void PublishCounters(const EncodeCounters& counters) {
    overflow_count_.fetch_add(counters.overflow, std::memory_order_relaxed);
  }

  const RotationCodec& codec() const { return codec_; }

 private:
  /// One row of the fused pipeline: `row` (length dim()) holds the raw
  /// rotate output (unnormalized, un-gamma'd); runs the three blocked
  /// sweeps described on the class and writes the wrapped residues into
  /// `out`. Clobbers `row` and workspace.{ints,noise}.
  Status FusedEncodeRow(double* row, RandomGenerator& rng,
                        EncodeWorkspace& workspace, EncodeCounters& counters,
                        std::vector<uint64_t>& out);

  RotationCodec codec_;
  FusedPerturbSpec fused_spec_;
  /// Atomic so concurrent EncodeBatch shards never lose wrap-around events.
  std::atomic<int64_t> overflow_count_{0};
};

/// Encodes all inputs through the batch API, sharding participants across
/// `pool` (nullptr or a 1-thread pool runs inline). rng_streams[i] is
/// consumed by participant i only; the result is bit-identical for every
/// thread count.
StatusOr<std::vector<std::vector<uint64_t>>> EncodeBatchParallel(
    DistributedSumMechanism& mechanism,
    const std::vector<std::vector<double>>& inputs,
    std::vector<RandomGenerator>& rng_streams, ThreadPool* pool = nullptr);

/// Runs the full pipeline over the wire: derives one jump-ahead stream per
/// participant from `rng`, then — one tile of participants at a time —
/// encodes (in parallel when `pool` is given), prepares each contribution
/// for transport (masking, under the masked protocol), frames it into a
/// ContributionMsg, and drains the frames through the round's aggregation
/// tier into the aggregator's streaming sum; the framed SumMsg result is
/// decoded into the estimated sum (same length as the inputs). Resident
/// payload memory is one tile of encodings plus the stream's O(threads·d)
/// state; only d-free per-participant bookkeeping (the rng streams) scales
/// with n. At every thread count the output is bit-identical to encoding
/// every participant at once, summing exactly and decoding once.
///
/// `shard_count` picks the round's aggregation tier: 1 runs today's single
/// AggregationSession; K > 1 runs the round as K dimension-range shard
/// workers plus a coordinator (ShardedCoordinator) — each contribution is
/// sliced into K sub-frames and each worker sums its range, with per-shard
/// masking under the masked protocol; 0 is rejected (kInvalidArgument). A
/// pure performance/residency dial: the decoded sum is bit-identical at
/// every shard count.
StatusOr<std::vector<double>> RunDistributedSum(
    DistributedSumMechanism& mechanism, secagg::SecureAggregator& aggregator,
    const std::vector<std::vector<double>>& inputs, RandomGenerator& rng,
    ThreadPool* pool = nullptr, size_t shard_count = 1);

/// Mean squared error per dimension between an estimate and the exact sum of
/// `inputs` — the Err_M metric of Section 3.1. Fails (instead of reading out
/// of bounds or silently zero-padding) when `inputs` is empty or ragged, or
/// when the estimate's dimension does not match the inputs'.
StatusOr<double> MeanSquaredErrorPerDimension(
    const std::vector<double>& estimate,
    const std::vector<std::vector<double>>& inputs);

}  // namespace smm::mechanisms

#endif  // SMM_MECHANISMS_DISTRIBUTED_MECHANISM_H_
