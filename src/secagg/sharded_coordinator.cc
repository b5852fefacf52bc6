#include "secagg/sharded_coordinator.h"

#include <algorithm>
#include <utility>
#include <variant>

namespace smm::secagg {

StatusOr<SumMsg> MergeShardSums(const ShardPlan& plan,
                                std::vector<SumMsg> shard_sums) {
  if (shard_sums.size() != plan.shard_count()) {
    return InvalidArgumentError("merge needs exactly one sum per shard");
  }
  for (size_t s = 0; s < shard_sums.size(); ++s) {
    if (shard_sums[s].sum.size() != plan.Width(s)) {
      return InvalidArgumentError(
          "shard sum length disagrees with its shard width");
    }
    if (shard_sums[s].modulus != shard_sums[0].modulus) {
      return InvalidArgumentError("shard sums disagree on the modulus");
    }
  }
  if (shard_sums.size() == 1) return std::move(shard_sums[0]);
  SumMsg out;
  out.modulus = shard_sums[0].modulus;
  out.sum.reserve(plan.dim());
  for (const SumMsg& shard_sum : shard_sums) {
    out.sum.insert(out.sum.end(), shard_sum.sum.begin(), shard_sum.sum.end());
    out.num_contributors =
        std::max(out.num_contributors, shard_sum.num_contributors);
  }
  return out;
}

StatusOr<std::unique_ptr<ShardedCoordinator>> ShardedCoordinator::Open(
    SecureAggregator& aggregator, const Options& options) {
  SMM_ASSIGN_OR_RETURN(ShardPlan plan,
                       ShardPlan::Create(options.dim, options.shard_count));
  std::unique_ptr<ShardedCoordinator> coordinator(new ShardedCoordinator(
      plan, options.modulus, options.pool, aggregator));
  const size_t shards = plan.shard_count();
  // The K instance derivations (for the masked protocol, a full seed
  // agreement and Shamir sharing each) are independent and run across the
  // pool.
  SMM_ASSIGN_OR_RETURN(coordinator->shard_aggregators_,
                       CreateShardAggregators(aggregator, shards, options.pool));
  coordinator->sessions_.reserve(shards);
  for (size_t s = 0; s < shards; ++s) {
    AggregationSession::Options session_options;
    session_options.dim = plan.Width(s);
    session_options.modulus = options.modulus;
    session_options.pool = options.pool;
    session_options.tile_rows = options.tile_rows;
    // At one shard the session stays plain and unsharded, so the K = 1
    // round is exactly the pre-shard pipeline (version-1 frames,
    // byte-identical wire bytes and sum).
    if (shards > 1) session_options.expected_shard = plan.Spec(s);
    SecureAggregator& shard_aggregator =
        coordinator->shard_aggregators_[s] ? *coordinator->shard_aggregators_[s]
                                           : aggregator;
    SMM_ASSIGN_OR_RETURN(
        coordinator->sessions_.emplace_back(),
        AggregationSession::Open(shard_aggregator, session_options));
  }
  return coordinator;
}

StatusOr<std::vector<ContributionMsg>>
ShardedCoordinator::PrepareShardedContribution(
    int participant, const std::vector<uint64_t>& input) const {
  if (input.size() != plan_.dim()) {
    return InvalidArgumentError(
        "contribution size disagrees with the round dimension");
  }
  const size_t shards = plan_.shard_count();
  std::vector<ContributionMsg> messages(shards);
  for (size_t s = 0; s < shards; ++s) {
    ContributionMsg& msg = messages[s];
    msg.participant_id = participant;
    msg.modulus = modulus_;
    if (shards == 1) {
      // The unsharded version-1 contribution: the whole vector, no spec.
      SMM_ASSIGN_OR_RETURN(msg.payload,
                           base_->PrepareContribution(participant, input,
                                                      modulus_, pool_));
    } else {
      SMM_ASSIGN_OR_RETURN(auto slice, plan_.Slice(input, s));
      SMM_ASSIGN_OR_RETURN(
          msg.payload, ShardAggregator(s).PrepareContribution(
                           participant, slice, modulus_, pool_));
      msg.shard = plan_.Spec(s);
    }
  }
  return messages;
}

StatusOr<std::vector<std::vector<uint8_t>>>
ShardedCoordinator::EncodeShardedContribution(
    int participant, const std::vector<uint64_t>& input) const {
  SMM_ASSIGN_OR_RETURN(auto messages,
                       PrepareShardedContribution(participant, input));
  std::vector<std::vector<uint8_t>> frames(messages.size());
  for (size_t s = 0; s < messages.size(); ++s) {
    SMM_ASSIGN_OR_RETURN(frames[s], EncodeFrame(messages[s]));
  }
  return frames;
}

Status ShardedCoordinator::AddContribution(
    int participant, const std::vector<uint64_t>& input) {
  SMM_ASSIGN_OR_RETURN(auto messages,
                       PrepareShardedContribution(participant, input));
  for (ContributionMsg& msg : messages) {
    SMM_RETURN_IF_ERROR(RouteContribution(std::move(msg)));
  }
  return OkStatus();
}

Status ShardedCoordinator::RouteContribution(ContributionMsg msg) {
  if (plan_.shard_count() == 1) {
    // The single worker enforces the unsharded contract (a sharded
    // contribution addressed at a 1-shard round is rejected there).
    return sessions_[0]->HandleContribution(std::move(msg));
  }
  if (!msg.shard.has_value()) {
    ++rejected_frames_;
    return InvalidArgumentError(
        "unsharded contribution sent to a sharded round");
  }
  const uint32_t shard = msg.shard->shard_index;
  if (shard >= sessions_.size()) {
    ++rejected_frames_;
    return InvalidArgumentError(
        "contribution shard index out of range for the round");
  }
  // The worker validates the full spec (offset/width/count) against its
  // expected_shard; a mismatched spec is rejected there.
  return sessions_[shard]->HandleContribution(std::move(msg));
}

Status ShardedCoordinator::HandleFrame(ByteSpan frame) {
  auto message = DecodeFrame(frame);
  if (!message.ok()) {
    ++rejected_frames_;
    return message.status();
  }
  if (auto* contribution = std::get_if<ContributionMsg>(&*message)) {
    return RouteContribution(std::move(*contribution));
  }
  if (std::get_if<SharesMsg>(&*message) != nullptr) {
    ++shares_received_;
    return OkStatus();
  }
  ++rejected_frames_;
  return InvalidArgumentError(
      "sum and partial-sum frames cannot be received by a coordinator");
}

Status ShardedCoordinator::DrainTransport(FrameTransport& transport) {
  while (auto frame = transport.Receive()) {
    SMM_RETURN_IF_ERROR(HandleFrame(*frame));
  }
  // "Drained" can mean "broken": a socket backend reports nullopt when a
  // hard error ends the stream, and then the drain must not look clean.
  return transport.receive_status();
}

StatusOr<SumMsg> ShardedCoordinator::Finalize() {
  std::vector<SumMsg> shard_sums(sessions_.size());
  for (size_t s = 0; s < sessions_.size(); ++s) {
    SMM_ASSIGN_OR_RETURN(shard_sums[s], sessions_[s]->Finalize());
  }
  return MergeShardSums(plan_, std::move(shard_sums));
}

size_t ShardedCoordinator::contributions() const {
  size_t total = 0;
  for (const auto& session : sessions_) total += session->contributions();
  return total;
}

size_t ShardedCoordinator::rejected_frames() const {
  size_t total = rejected_frames_;
  for (const auto& session : sessions_) total += session->rejected_frames();
  return total;
}

}  // namespace smm::secagg
