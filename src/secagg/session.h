#ifndef SMM_SECAGG_SESSION_H_
#define SMM_SECAGG_SESSION_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_set>
#include <vector>

#include "common/parallel.h"
#include "common/status.h"
#include "secagg/secure_aggregator.h"
#include "secagg/streaming_aggregator.h"
#include "secagg/transport.h"

namespace smm::secagg {

/// One server-side aggregation round driven by wire-format frames: decoded
/// ContributionMsg frames are fed straight into a SecureAggregator::Open
/// stream, so the session inherits the stream's memory model (O(threads·d)
/// resident with the provided aggregators, independent of the participant
/// count), accepts contributions in any arrival order, and defers dropout
/// handling to Finalize exactly as the masked stream already does.
///
///   Open(aggregator, {dim, m, pool})
///     -> HandleFrame / DrainTransport per arriving frame
///     -> Finalize() -> SumMsg
///
/// Frame handling is status-only: a truncated, corrupt, oversized, or
/// protocol-violating frame (wrong modulus, wrong dimension) is rejected
/// with a Status, the running sum is left untouched, and the session keeps
/// serving subsequent frames — malformed input can never crash the server
/// loop. A duplicate contribution from an already-accepted participant is
/// NOT an error: the session acknowledges it with OK and keeps the first
/// absorption (first-wins idempotency), so a client that retries after a
/// lost ack is harmless; duplicates are tallied in duplicate_frames(). (With
/// Options::tile_rows > 1, stream-level rejections surface at the tile
/// flush instead of the offending frame; see Options.) SharesMsg
/// frames are tallied and acknowledged (the simulated aggregator already
/// holds every participant's shares; a real backend would store them here
/// for Finalize-time recovery). SumMsg frames are server-outbound only and
/// are rejected on receive.
///
/// Determinism: contributions are folded in with exact arithmetic mod m, so
/// Finalize returns the same bits for any thread count, tile size and
/// frame arrival order.
///
/// Not thread-safe: one server loop drives a session (absorption itself may
/// shard across the pool the session was opened with). The aggregator must
/// outlive the session.
class AggregationSession {
 public:
  struct Options {
    /// Dimension of the aggregated vectors; every contribution must match.
    size_t dim = 0;
    /// The session modulus; frames carrying any other modulus are rejected.
    uint64_t modulus = 0;
    /// Optional pool for sharded absorption (not owned; nullptr =
    /// sequential).
    ThreadPool* pool = nullptr;
    /// Contributions buffered before one sharded AbsorbTile flush. The
    /// default (1) absorbs every frame immediately, so protocol violations
    /// (e.g. a duplicate participant) surface from the very HandleFrame
    /// that carried them — right for untrusted clients. Larger values
    /// bound O(tile_rows·d) pending payloads and amortize one fork/join
    /// per tile instead of one per frame — right for trusted in-process
    /// pipelines like RunDistributedSum; absorption errors then surface at
    /// the flush (the HandleFrame that filled the tile, or Finalize), and
    /// a rejected tile drops all its pending contributions (AbsorbTile's
    /// all-or-nothing admission). The sum is bit-identical either way.
    size_t tile_rows = 1;
    /// When set, this session is one shard worker of a dimension-sharded
    /// round: every contribution must carry exactly this ShardSpec (whose
    /// shard_dim must equal `dim`), and sliced frames addressed to any
    /// other shard are rejected. When unset (the default), sharded frames
    /// are rejected — an unsharded session never silently absorbs a slice
    /// of a vector as if it were whole.
    std::optional<ShardSpec> expected_shard;
    /// Quorum: the fewest accepted contributions Finalize will publish a
    /// sum from. Below it, Finalize fails with kFailedPrecondition and the
    /// session stays open so more contributions can still land. 0 (the
    /// default) disables the check.
    size_t min_contributions = 0;
  };

  /// Opens a session over `aggregator` (requires dim >= 1, modulus >= 2).
  static StatusOr<std::unique_ptr<AggregationSession>> Open(
      SecureAggregator& aggregator, const Options& options);

  /// Handles one received frame: parses it, validates it against the
  /// session, and absorbs a contribution into the stream. On error the
  /// frame is dropped (counted in rejected_frames) and the session state is
  /// unchanged except that a masked-protocol tile admission already
  /// recorded by the stream stays recorded — the provided streams reject
  /// before touching the sum, so a failed HandleFrame never corrupts it.
  /// (ByteSpan is implicitly constructible from std::vector<uint8_t>.)
  Status HandleFrame(ByteSpan frame);

  /// Routes one already-decoded contribution into the stream, with the same
  /// validation and rejection counting as HandleFrame. For trusted
  /// in-process routers (ShardedCoordinator) that decode a frame once to
  /// pick a shard and must not pay a second decode per sub-frame.
  Status HandleContribution(ContributionMsg msg);

  /// Drains `transport` until Receive reports it drained, handling each
  /// frame in the transport's order. Stops at (and returns) the first
  /// frame error, leaving the remaining frames queued so the caller can
  /// decide whether to keep draining. After a clean drain, returns the
  /// transport's receive_status() so a channel that broke mid-stream
  /// (frames possibly lost) surfaces as kDataLoss rather than success.
  Status DrainTransport(FrameTransport& transport);

  /// Completes the round: runs the stream's deferred work (e.g. Shamir
  /// dropout recovery for participants that never contributed) and returns
  /// the aggregated sum as a ready-to-frame SumMsg. Fails with
  /// kFailedPrecondition — leaving the session open — when fewer than
  /// Options::min_contributions contributions were accepted. On success the
  /// session is consumed.
  StatusOr<SumMsg> Finalize();

  /// Contributions accepted so far (absorbed plus any buffered in the
  /// pending tile).
  size_t contributions() const {
    return stream_->absorbed() + pending_ids_.size();
  }
  /// SharesMsg frames acknowledged so far.
  size_t shares_received() const { return shares_received_; }
  /// Frames rejected so far (parse failures and protocol violations).
  size_t rejected_frames() const { return rejected_frames_; }
  /// Valid contributions acknowledged-but-not-absorbed because their
  /// participant already contributed (retry resends after a lost ack).
  size_t duplicate_frames() const { return duplicate_frames_; }

  size_t dim() const { return dim_; }
  uint64_t modulus() const { return modulus_; }

 private:
  AggregationSession(std::unique_ptr<StreamingAggregator> stream,
                     const Options& options)
      : stream_(std::move(stream)),
        dim_(options.dim),
        modulus_(options.modulus),
        tile_rows_(options.tile_rows < 1 ? 1 : options.tile_rows),
        expected_shard_(options.expected_shard),
        min_contributions_(options.min_contributions) {}

  Status Handle(ContributionMsg msg);
  /// Absorbs the pending tile through one sharded AbsorbTile. On error the
  /// tile is dropped (counted in rejected_frames) — AbsorbTile admission is
  /// all-or-nothing, so the stream is untouched.
  Status FlushPendingTile();

  std::unique_ptr<StreamingAggregator> stream_;
  size_t dim_;
  uint64_t modulus_;
  size_t tile_rows_;
  std::optional<ShardSpec> expected_shard_;
  size_t min_contributions_;
  std::vector<int> pending_ids_;
  std::vector<std::vector<uint64_t>> pending_payloads_;
  /// Participants whose contribution was accepted (absorbed or buffered in
  /// the pending tile) — the first-wins dedup set behind duplicate_frames().
  /// A tile the flush rejects removes its ids again, so a participant whose
  /// contribution was dropped with a bad tile can retry.
  std::unordered_set<int> seen_ids_;
  size_t shares_received_ = 0;
  size_t rejected_frames_ = 0;
  size_t duplicate_frames_ = 0;
};

}  // namespace smm::secagg

#endif  // SMM_SECAGG_SESSION_H_
