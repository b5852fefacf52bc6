#include "secagg/session.h"

#include <utility>

namespace smm::secagg {

StatusOr<std::unique_ptr<AggregationSession>> AggregationSession::Open(
    SecureAggregator& aggregator, const Options& options) {
  if (options.expected_shard.has_value()) {
    SMM_RETURN_IF_ERROR(ValidateShardSpec(*options.expected_shard));
    if (options.expected_shard->shard_dim != options.dim) {
      return InvalidArgumentError(
          "expected_shard.shard_dim must equal the session dimension");
    }
  }
  SMM_ASSIGN_OR_RETURN(
      auto stream, aggregator.Open(options.dim, options.modulus, options.pool));
  return std::unique_ptr<AggregationSession>(
      new AggregationSession(std::move(stream), options));
}

Status AggregationSession::FlushPendingTile() {
  if (pending_ids_.empty()) return OkStatus();
  const Status status = stream_->AbsorbTile(pending_ids_, pending_payloads_);
  if (!status.ok()) {
    rejected_frames_ += pending_ids_.size();
    // The tile's contributions are gone, so its participants are no longer
    // "seen": a client that retries one of them must not be silently acked
    // as a duplicate of a contribution that never landed.
    for (int id : pending_ids_) seen_ids_.erase(id);
  }
  pending_ids_.clear();
  pending_payloads_.clear();
  return status;
}

Status AggregationSession::Handle(ContributionMsg msg) {
  if (msg.modulus != modulus_) {
    return InvalidArgumentError("contribution modulus does not match session");
  }
  if (expected_shard_.has_value()) {
    if (!msg.shard.has_value()) {
      return InvalidArgumentError(
          "unsharded contribution sent to a shard-worker session");
    }
    if (*msg.shard != *expected_shard_) {
      return InvalidArgumentError(
          "contribution shard spec does not match this shard worker");
    }
  } else if (msg.shard.has_value()) {
    return InvalidArgumentError(
        "sharded contribution sent to an unsharded session");
  }
  if (msg.payload.size() != dim_) {
    return InvalidArgumentError(
        "contribution dimension does not match session");
  }
  // First-wins idempotency: a well-formed resend from a participant whose
  // contribution already landed is acknowledged with OK and not absorbed,
  // so a client retrying after a lost ack can never double-count itself.
  if (seen_ids_.count(msg.participant_id) != 0) {
    ++duplicate_frames_;
    return OkStatus();
  }
  if (tile_rows_ <= 1) {
    SMM_RETURN_IF_ERROR(stream_->Absorb(msg.participant_id, msg.payload));
    seen_ids_.insert(msg.participant_id);
    return OkStatus();
  }
  // Tile mode: buffer up to tile_rows contributions (O(tile_rows·d)
  // pending), then fold them in with one sharded AbsorbTile fork/join
  // instead of one per frame. Bit-identical to immediate absorption —
  // modular addition commutes exactly.
  pending_ids_.push_back(msg.participant_id);
  pending_payloads_.push_back(std::move(msg.payload));
  seen_ids_.insert(msg.participant_id);
  if (pending_ids_.size() >= tile_rows_) return FlushPendingTile();
  return OkStatus();
}

Status AggregationSession::HandleContribution(ContributionMsg msg) {
  const size_t rejected_before = rejected_frames_;
  const Status status = Handle(std::move(msg));
  if (!status.ok() && rejected_frames_ == rejected_before) {
    ++rejected_frames_;  // Not already counted by a failed tile flush.
  }
  return status;
}

Status AggregationSession::HandleFrame(ByteSpan frame) {
  auto message = DecodeFrame(frame);
  if (!message.ok()) {
    ++rejected_frames_;
    return message.status();
  }
  if (auto* contribution = std::get_if<ContributionMsg>(&*message)) {
    return HandleContribution(std::move(*contribution));
  }
  if (std::get_if<SharesMsg>(&*message) != nullptr) {
    // The simulated aggregator distributed every pair seed's shares at
    // Create time, so the session only acknowledges the deposit; a real
    // backend would persist the shares for Finalize-time recovery here.
    ++shares_received_;
    return OkStatus();
  }
  ++rejected_frames_;
  return InvalidArgumentError(
      "sum frames are server-outbound and cannot be received");
}

Status AggregationSession::DrainTransport(FrameTransport& transport) {
  while (auto frame = transport.Receive()) {
    SMM_RETURN_IF_ERROR(HandleFrame(*frame));
  }
  // "Drained" can mean "broken": a socket backend reports nullopt when a
  // hard error ends the stream, and then the drain must not look clean.
  return transport.receive_status();
}

StatusOr<SumMsg> AggregationSession::Finalize() {
  SMM_RETURN_IF_ERROR(FlushPendingTile());
  if (contributions() < min_contributions_) {
    return FailedPreconditionError(
        "round below quorum: fewer contributions than min_contributions");
  }
  SumMsg msg;
  msg.modulus = modulus_;
  msg.num_contributors = static_cast<uint32_t>(stream_->absorbed());
  SMM_ASSIGN_OR_RETURN(msg.sum, stream_->Finalize());
  return msg;
}

}  // namespace smm::secagg
