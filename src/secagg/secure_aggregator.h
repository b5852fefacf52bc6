#ifndef SMM_SECAGG_SECURE_AGGREGATOR_H_
#define SMM_SECAGG_SECURE_AGGREGATOR_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/parallel.h"
#include "common/random.h"
#include "common/status.h"
#include "secagg/shamir.h"
#include "secagg/streaming_aggregator.h"

namespace smm::secagg {

/// Black-box secure aggregation interface (the protocol A of Algorithm 3):
/// given per-participant vectors in Z_m^d, reveals only their element-wise
/// sum mod m. The DP analysis of the paper treats this as an ideal
/// functionality; both implementations below compute the identical sum, so
/// the mechanisms are oblivious to which one runs underneath. All sums are
/// exact for any modulus in [2, 2^64), including m > 2^63 where naive
/// accumulation would wrap uint64_t (see smm::AddMod).
class SecureAggregator {
 public:
  virtual ~SecureAggregator() = default;

  /// Sums `inputs` (all of equal length) element-wise modulo m.
  virtual StatusOr<std::vector<uint64_t>> Aggregate(
      const std::vector<std::vector<uint64_t>>& inputs, uint64_t m) = 0;

  /// Like Aggregate, but may shard the accumulation across `pool` (nullptr
  /// means sequential). Addition in Z_m commutes, so implementations must —
  /// and the provided ones do — return bit-identical sums for any thread
  /// count. The default ignores the pool.
  virtual StatusOr<std::vector<uint64_t>> AggregateParallel(
      const std::vector<std::vector<uint64_t>>& inputs, uint64_t m,
      ThreadPool* pool) {
    (void)pool;
    return Aggregate(inputs, m);
  }

  /// Client-side preparation of participant `participant`'s contribution
  /// before it goes on the wire: returns the vector the server should
  /// receive in its ContributionMsg. The default reduces the input into Z_m
  /// unchanged (the ideal functionality sends plaintext residues); the
  /// masked protocol overrides this with pairwise masking, so the framed
  /// payload is uniform garbage individually and the full
  /// mask -> frame -> session -> stream path exercises the real protocol.
  /// Requires a non-empty input and m >= 2. When `pool` is given,
  /// implementations may shard the preparation, bit-identically to the
  /// sequential path.
  virtual StatusOr<std::vector<uint64_t>> PrepareContribution(
      int participant, const std::vector<uint64_t>& input, uint64_t m,
      ThreadPool* pool = nullptr) const;

  /// Opens a streaming aggregation session over Z_m^dim: contributions
  /// arrive one participant (or tile) at a time via Absorb/AbsorbTile and
  /// the sum is released by Finalize, bit-identical to the batch path above
  /// for any thread count and absorb order. Requires dim >= 1 and m >= 2.
  ///
  /// Both provided aggregators override this with bounded-memory streams
  /// (O(threads·dim) resident, independent of the participant count); the
  /// default adapter buffers every absorbed input and delegates to
  /// AggregateParallel at Finalize — correct for any implementation, but
  /// O(n·dim) memory. The aggregator must outlive the returned stream.
  virtual StatusOr<std::unique_ptr<StreamingAggregator>> Open(
      size_t dim, uint64_t m, ThreadPool* pool = nullptr);

  /// Derives the aggregator instance that serves shard `shard_index` of a
  /// `shard_count`-way dimension-sharded round (ShardPlan's contiguous
  /// ranges). Returns nullptr when this instance serves every shard
  /// directly — the stateless default, correct whenever the protocol's
  /// per-coordinate work is independent of which dimension range a stream
  /// covers (true for the ideal plain-sum aggregator).
  ///
  /// Protocols with cross-coordinate randomness must override this:
  /// MaskedAggregator expands each pair's mask as one PRG stream over the
  /// full d coordinates, so slicing a d-dim masked vector into K ranges and
  /// unmasking each range with the same instance would misalign every
  /// shard's mask offsets — and reusing one mask stream across shards would
  /// leak cross-shard plaintext differences. It therefore returns a fresh
  /// aggregator over a shard-derived session seed (seed + shard_index) per
  /// shard, and nullptr at shard_count == 1 so the degenerate path is the
  /// byte-identical unsharded protocol. Requires shard_index < shard_count.
  virtual StatusOr<std::unique_ptr<SecureAggregator>> CreateShardAggregator(
      size_t shard_index, size_t shard_count) const;
};

/// Derives the per-shard instances of a `shard_count`-way round: entry s is
/// base.CreateShardAggregator(s, shard_count), where nullptr means the base
/// serves shard s itself. At shard_count == 1 it returns one nullptr without
/// deriving anything, so the unsharded round runs on the base. The
/// derivations are independent (each reads only the base and its shard
/// index), so they run across `pool` (nullptr = in order on the caller) and
/// the instances do not depend on the thread count. A failing derivation's
/// status is returned, the lowest failing shard first. Callers derive
/// fresh instances for every round rather than caching them: one instance
/// per round models that round's key agreement, and reusing one across
/// rounds would reuse its masks.
StatusOr<std::vector<std::unique_ptr<SecureAggregator>>>
CreateShardAggregators(const SecureAggregator& base, size_t shard_count,
                       ThreadPool* pool);

/// The ideal functionality: a plain modular sum. Used by the experiment
/// harnesses for speed (the paper likewise runs SecAgg "as a black box").
class IdealAggregator final : public SecureAggregator {
 public:
  StatusOr<std::vector<uint64_t>> Aggregate(
      const std::vector<std::vector<uint64_t>>& inputs, uint64_t m) override;

  /// Shards the participant range across the pool; each thread accumulates
  /// its shard into a private partial sum, and the partials are reduced
  /// mod m at the end (in shard order, though modular addition makes the
  /// order immaterial).
  StatusOr<std::vector<uint64_t>> AggregateParallel(
      const std::vector<std::vector<uint64_t>>& inputs, uint64_t m,
      ThreadPool* pool) override;

  /// Bounded-memory stream: one O(dim) running sum (sharded tile absorbs
  /// keep one O(dim) partial per thread, reusing ShardedModularAccumulate).
  /// The stream is self-contained; it does not reference the aggregator.
  StatusOr<std::unique_ptr<StreamingAggregator>> Open(
      size_t dim, uint64_t m, ThreadPool* pool = nullptr) override;
};

/// A faithful simulation of pairwise-mask secure aggregation (Bonawitz et
/// al. 2017): every ordered pair (i < j) of participants derives a common
/// seed; i adds PRG(seed) to its input, j subtracts it, so all masks cancel
/// in the sum and individual masked inputs are uniform in Z_m^d. Each
/// participant Shamir-shares its per-pair seeds so the server can unmask the
/// pairs involving dropped participants from any `threshold` survivors.
///
/// This simulates the cryptography (seed agreement stands in for
/// Diffie-Hellman); the algebra — masking, cancellation, dropout recovery —
/// is executed for real.
class MaskedAggregator final : public SecureAggregator {
 public:
  struct Options {
    int num_participants = 0;
    /// Shamir reconstruction threshold for dropout recovery. Must satisfy
    /// 1 <= threshold <= num_participants.
    int threshold = 1;
    /// Session randomness for seed agreement and share generation.
    uint64_t session_seed = 0;
  };

  static StatusOr<std::unique_ptr<MaskedAggregator>> Create(
      const Options& options);

  /// Client-side: returns participant i's masked input (input + sum of its
  /// pairwise masks, mod m). Requires a non-empty input and m >= 2. When
  /// `pool` is given, mask expansion is sharded across the participant's
  /// n - 1 pairs: every pair mask is expanded from its own PRG stream
  /// (seeded by the pair seed alone) into a chunk-local partial
  /// accumulator, and the partials are reduced mod m in chunk order.
  /// Modular addition commutes, so the result is bit-identical for any
  /// thread count.
  StatusOr<std::vector<uint64_t>> MaskInput(int participant,
                                            const std::vector<uint64_t>& input,
                                            uint64_t m,
                                            ThreadPool* pool = nullptr) const;

  /// Server-side: sums masked inputs of the `survivors` (indices into the
  /// participant range) and removes the masks that involve dropped
  /// participants by Shamir-reconstructing their pair seeds from the
  /// survivors' shares. Requires dim >= 1, m >= 2, and |survivors| >=
  /// threshold. When `pool` is given, both the masked-input sum (sharded
  /// over survivors) and the dropout recovery (sharded over (survivor,
  /// dropped) pairs) run on the pool, bit-identically to the sequential
  /// path.
  StatusOr<std::vector<uint64_t>> UnmaskSum(
      const std::vector<std::vector<uint64_t>>& masked_inputs,
      const std::vector<int>& survivors, size_t dim, uint64_t m,
      ThreadPool* pool = nullptr) const;

  /// Client-side wire preparation: pairwise masking via MaskInput, so the
  /// transported payload is exactly the masked input Bonawitz-style SecAgg
  /// puts on the network.
  StatusOr<std::vector<uint64_t>> PrepareContribution(
      int participant, const std::vector<uint64_t>& input, uint64_t m,
      ThreadPool* pool = nullptr) const override;

  /// SecureAggregator interface: all participants survive.
  StatusOr<std::vector<uint64_t>> Aggregate(
      const std::vector<std::vector<uint64_t>>& inputs, uint64_t m) override;

  /// Parallel full round: masking is sharded across participants (each
  /// participant's MaskInput is independent) and the unmask sum across
  /// survivors, so the O(n^2 d) mask expansion — the dominant cost — scales
  /// with the thread count while staying bit-identical to Aggregate.
  StatusOr<std::vector<uint64_t>> AggregateParallel(
      const std::vector<std::vector<uint64_t>>& inputs, uint64_t m,
      ThreadPool* pool) override;

  /// Server-side stream: absorbs *masked* inputs incrementally into an
  /// O(dim) running sum (each participant at most once) and defers dropout
  /// recovery to Finalize — participants absent at Finalize are treated as
  /// dropped and their leftover masks removed via Shamir recovery, exactly
  /// as UnmaskSum would. Bit-identical to UnmaskSum over the same survivor
  /// set for any absorb order and thread count. The aggregator must outlive
  /// the stream.
  StatusOr<std::unique_ptr<StreamingAggregator>> Open(
      size_t dim, uint64_t m, ThreadPool* pool = nullptr) override;

  /// Per-shard protocol instance for dimension-sharded rounds: a fresh
  /// MaskedAggregator over session_seed + shard_index, so each shard runs
  /// its own seed agreement, masking, and (local) Shamir dropout recovery
  /// over its narrower range. nullptr at shard_count == 1 (shard 0 would
  /// derive seed + 0 = the unsharded instance anyway; returning nullptr
  /// keeps the K = 1 path byte-identical by construction).
  StatusOr<std::unique_ptr<SecureAggregator>> CreateShardAggregator(
      size_t shard_index, size_t shard_count) const override;

 private:
  class Stream;

  MaskedAggregator(Options options, std::vector<std::vector<uint64_t>> seeds,
                   std::vector<std::vector<std::vector<ShamirShare>>> shares);

  /// Accumulates sign * PRG(seed) into acc mod m (sign is +1 or -1),
  /// without materializing the mask: acc[k] = acc[k] +- mask[k] (mod m,
  /// overflow-safe). Each call owns a fresh PRG seeded by the pair seed —
  /// the per-pair stream that makes sharding over pairs deterministic.
  static void AccumulateMask(uint64_t seed, uint64_t m, int sign,
                             std::vector<uint64_t>& acc);

  /// The deferred half of unmasking: removes from `sum` the leftover mask
  /// terms of every (survivor, dropped) pair by Shamir-reconstructing the
  /// pair seed from the first `threshold` survivors' shares, with one
  /// Lagrange basis for all pairs. Pairs shard across the pool; requires
  /// |survivors| >= threshold (checked by the callers).
  Status RecoverDroppedMasks(const std::vector<int>& survivors, uint64_t m,
                             ThreadPool* pool,
                             std::vector<uint64_t>& sum) const;

  uint64_t PairSeed(int i, int j) const;  // i < j.

  Options options_;
  /// seeds_[i][j] is the seed shared by pair (i, j), i < j (upper triangle).
  std::vector<std::vector<uint64_t>> seeds_;
  /// shares_[i][j][k]: the k-th Shamir share of seeds_[min][max] for pair
  /// (i, j), held by participant k. Used for dropout recovery.
  std::vector<std::vector<std::vector<ShamirShare>>> shares_;
};

}  // namespace smm::secagg

#endif  // SMM_SECAGG_SECURE_AGGREGATOR_H_
