#ifndef SMM_SECAGG_SHARDED_COORDINATOR_H_
#define SMM_SECAGG_SHARDED_COORDINATOR_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/parallel.h"
#include "common/status.h"
#include "secagg/secure_aggregator.h"
#include "secagg/session.h"
#include "secagg/shard_plan.h"
#include "secagg/transport.h"

namespace smm::secagg {

/// Merges one round's per-shard sums into the round's SumMsg:
/// shard_sums[s] is shard s's sum over plan.Spec(s)'s dimension range, so
/// the merged sum is the shard sums concatenated in shard order. Requires
/// exactly one sum per shard, each exactly plan.Width(s) long, all under
/// one modulus (kInvalidArgument otherwise — the sums may have been read
/// off the network). With one shard that shard's sum is returned
/// unchanged; with more, num_contributors is the maximum over shards (when
/// every shard saw the same survivor set — the aligned case — that is
/// exactly the unsharded count).
StatusOr<SumMsg> MergeShardSums(const ShardPlan& plan,
                                std::vector<SumMsg> shard_sums);

/// One logical aggregation round run as K shard workers plus a coordinator:
/// each worker is an AggregationSession over one contiguous dimension range
/// of a ShardPlan, and Finalize merges the workers' sums (MergeShardSums)
/// into a SumMsg bit-identical to the unsharded AggregationSession path at
/// every shard count, thread count, and arrival order. Every in-process
/// round runs through it: RunDistributedSum feeds it frames over a
/// FrameTransport, and FederatedTrainer feeds it in-process contributions
/// (AddContribution).
///
/// Per-shard protocol state: each worker aggregates under the instance
/// SecureAggregator::CreateShardAggregator derives for its shard (the
/// masked protocol re-keys per shard and recovers dropouts locally — each
/// worker runs its own Shamir recovery over its own range; see
/// docs/ARCHITECTURE.md for the trust/bandwidth tradeoff). At
/// shard_count == 1 the coordinator degenerates to exactly today's
/// unsharded pipeline: one plain session, version-1 frames, byte-identical
/// wire bytes and sum.
///
/// The coordinator also plays the simulation's client side:
/// EncodeShardedContribution slices a participant's vector per the plan,
/// masks each slice under the owning shard's aggregator, and returns the
/// ready-to-send sub-frames — the same bytes a remote fan-out client would
/// put on K sockets. AddContribution prepares the same per-shard messages
/// and hands them straight to the workers, skipping the frame encode and
/// decode.
///
/// Not thread-safe, like AggregationSession: one server loop drives it
/// (absorption may still shard across the opened pool). The base
/// aggregator must outlive the coordinator.
class ShardedCoordinator {
 public:
  struct Options {
    /// Full round dimension; sliced per the ShardPlan across workers.
    size_t dim = 0;
    uint64_t modulus = 0;
    /// Shard workers. 1 = the unsharded degenerate path. kInvalidArgument
    /// if < 1 or > dim (no empty shards).
    size_t shard_count = 1;
    /// Optional pool, handed to every worker session (not owned).
    ThreadPool* pool = nullptr;
    /// Per-worker tile buffering, as AggregationSession::Options::tile_rows.
    size_t tile_rows = 1;
  };

  static StatusOr<std::unique_ptr<ShardedCoordinator>> Open(
      SecureAggregator& aggregator, const Options& options);

  /// Client side: slices `input` (size dim) per the plan, prepares each
  /// slice under its shard's aggregator (masking for the masked protocol),
  /// and encodes one sub-frame per shard. At shard_count == 1 returns one
  /// unsharded version-1 frame, byte-identical to the pre-shard pipeline.
  StatusOr<std::vector<std::vector<uint8_t>>> EncodeShardedContribution(
      int participant, const std::vector<uint64_t>& input) const;

  /// In-process contribution: prepares `input` exactly as
  /// EncodeShardedContribution does and routes each shard's message to its
  /// worker as HandleFrame would, without framing it. The worker sums are
  /// bit-identical to sending the encoded sub-frames.
  Status AddContribution(int participant, const std::vector<uint64_t>& input);

  /// Routes one frame: sharded contributions go to the worker their
  /// ShardSpec addresses and shares frames are acknowledged; sum and
  /// partial-sum frames are rejected. Rejected frames never disturb any
  /// worker's running sum.
  Status HandleFrame(ByteSpan frame);

  /// Drains `transport` in its order, stopping at the first frame error
  /// (remaining frames stay queued), as AggregationSession::DrainTransport:
  /// after a clean drain it returns the transport's receive_status(), so a
  /// channel that broke mid-stream surfaces as kDataLoss, not success.
  Status DrainTransport(FrameTransport& transport);

  /// Finalizes every worker session and merges their sums
  /// (MergeShardSums) into the round's SumMsg. The coordinator is
  /// consumed.
  StatusOr<SumMsg> Finalize();

  const ShardPlan& plan() const { return plan_; }
  size_t shard_count() const { return plan_.shard_count(); }
  size_t dim() const { return plan_.dim(); }
  uint64_t modulus() const { return modulus_; }

  /// Running-sum bytes resident on shard `shard`'s worker — the per-worker
  /// memory that scales as ~d/K (each worker holds only its range).
  size_t ShardResidentBytes(size_t shard) const {
    return plan_.Width(shard) * sizeof(uint64_t);
  }

  /// Contributions accepted across all workers (sub-frames, not logical
  /// participants: one participant lands K sub-frames at shard count K).
  size_t contributions() const;
  /// Frames rejected by routing or by any worker session.
  size_t rejected_frames() const;
  size_t shares_received() const { return shares_received_; }

 private:
  ShardedCoordinator(ShardPlan plan, uint64_t modulus, ThreadPool* pool,
                     SecureAggregator& base)
      : plan_(plan), modulus_(modulus), pool_(pool), base_(&base) {}

  /// Slices `input` per the plan and prepares each slice under its shard's
  /// aggregator: one ContributionMsg per shard, in shard order. At
  /// shard_count == 1 the one message is the whole, unsharded vector.
  StatusOr<std::vector<ContributionMsg>> PrepareShardedContribution(
      int participant, const std::vector<uint64_t>& input) const;

  /// Hands one contribution to the worker its ShardSpec addresses.
  Status RouteContribution(ContributionMsg msg);

  /// The aggregator serving `shard`: the derived per-shard instance, or the
  /// base when CreateShardAggregator returned nullptr.
  const SecureAggregator& ShardAggregator(size_t shard) const {
    return shard_aggregators_[shard] ? *shard_aggregators_[shard] : *base_;
  }

  ShardPlan plan_;
  uint64_t modulus_;
  ThreadPool* pool_;
  SecureAggregator* base_;
  /// One entry per shard; nullptr = the base aggregator serves that shard.
  std::vector<std::unique_ptr<SecureAggregator>> shard_aggregators_;
  std::vector<std::unique_ptr<AggregationSession>> sessions_;
  size_t shares_received_ = 0;
  size_t rejected_frames_ = 0;
};

}  // namespace smm::secagg

#endif  // SMM_SECAGG_SHARDED_COORDINATOR_H_
