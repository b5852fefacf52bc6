#include "secagg/sharded_coordinator.h"

#include <algorithm>
#include <utility>
#include <variant>

#include "common/simd.h"

namespace smm::secagg {

namespace {

/// Deterministic binary tree reduction of same-range partials: pairwise
/// AddModVec rounds until one remains. Exact modular addition makes any
/// reduction shape bit-identical; the tree halves the dependency depth for
/// a future parallel merge.
PartialSumMsg ReduceRangeGroup(std::vector<PartialSumMsg> group, uint64_t m) {
  while (group.size() > 1) {
    std::vector<PartialSumMsg> next;
    next.reserve((group.size() + 1) / 2);
    for (size_t i = 0; i + 1 < group.size(); i += 2) {
      PartialSumMsg merged = std::move(group[i]);
      simd::AddModVec(merged.sum.data(), group[i + 1].sum.data(),
                      merged.sum.size(), m);
      merged.num_contributors += group[i + 1].num_contributors;
      next.push_back(std::move(merged));
    }
    if (group.size() % 2 == 1) next.push_back(std::move(group.back()));
    group = std::move(next);
  }
  return std::move(group.front());
}

}  // namespace

StatusOr<SumMsg> MergePartialSums(std::vector<PartialSumMsg> partials,
                                  size_t dim, uint64_t modulus) {
  if (dim < 1) return InvalidArgumentError("merge dimension must be >= 1");
  if (modulus < 2) return InvalidArgumentError("merge modulus must be >= 2");
  if (partials.empty()) {
    return InvalidArgumentError("no partial sums to merge");
  }
  for (const PartialSumMsg& partial : partials) {
    SMM_RETURN_IF_ERROR(ValidateShardSpec(partial.shard));
    if (partial.shard.shard_dim != partial.sum.size()) {
      return InvalidArgumentError(
          "partial sum shard_dim disagrees with its payload size");
    }
    if (partial.modulus != modulus) {
      return InvalidArgumentError(
          "partial sum modulus does not match the round");
    }
    if (uint64_t{partial.shard.dim_offset} + partial.shard.shard_dim > dim) {
      return InvalidArgumentError(
          "partial sum range extends past the round dimension");
    }
  }
  // Group by dimension range, preserving arrival order within a group.
  std::stable_sort(partials.begin(), partials.end(),
                   [](const PartialSumMsg& a, const PartialSumMsg& b) {
                     if (a.shard.dim_offset != b.shard.dim_offset) {
                       return a.shard.dim_offset < b.shard.dim_offset;
                     }
                     return a.shard.shard_dim < b.shard.shard_dim;
                   });
  SumMsg out;
  out.modulus = modulus;
  out.num_contributors = 0;
  out.sum.assign(dim, 0);
  size_t covered = 0;
  size_t i = 0;
  while (i < partials.size()) {
    const uint32_t offset = partials[i].shard.dim_offset;
    const uint32_t width = partials[i].shard.shard_dim;
    size_t j = i + 1;
    while (j < partials.size() && partials[j].shard.dim_offset == offset &&
           partials[j].shard.shard_dim == width) {
      ++j;
    }
    if (offset != covered) {
      return InvalidArgumentError(
          offset < covered
              ? "partial sum ranges overlap"
              : "partial sum ranges leave a gap in the round dimension");
    }
    PartialSumMsg reduced = ReduceRangeGroup(
        std::vector<PartialSumMsg>(std::make_move_iterator(partials.begin() + i),
                                   std::make_move_iterator(partials.begin() + j)),
        modulus);
    // Stitch the reduced range into the zero-initialized output with the
    // same AddModVec the in-group reduction uses — arithmetic stays uniform
    // and exact whether a slot is first-placed or combined.
    simd::AddModVec(out.sum.data() + offset, reduced.sum.data(), width,
                    modulus);
    out.num_contributors =
        std::max(out.num_contributors, reduced.num_contributors);
    covered += width;
    i = j;
  }
  if (covered != dim) {
    return InvalidArgumentError(
        "partial sum ranges leave a gap in the round dimension");
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

StatusOr<std::vector<std::vector<uint8_t>>>
ShardedCoordinator::EncodeShardedContribution(
    int participant, const std::vector<uint64_t>& input) const {
  if (input.size() != plan_.dim()) {
    return InvalidArgumentError(
        "contribution size disagrees with the round dimension");
  }
  const size_t shards = plan_.shard_count();
  std::vector<std::vector<uint8_t>> frames;
  frames.reserve(shards);
  if (shards == 1) {
    SMM_ASSIGN_OR_RETURN(auto prepared,
                         base_->PrepareContribution(participant, input,
                                                    modulus_, pool_));
    ContributionMsg msg;
    msg.participant_id = participant;
    msg.modulus = modulus_;
    msg.payload = std::move(prepared);
    SMM_ASSIGN_OR_RETURN(frames.emplace_back(), EncodeFrame(msg));
    return frames;
  }
  for (size_t s = 0; s < shards; ++s) {
    SMM_ASSIGN_OR_RETURN(auto slice, plan_.Slice(input, s));
    SMM_ASSIGN_OR_RETURN(
        auto prepared,
        ShardAggregator(s).PrepareContribution(participant, slice, modulus_,
                                               pool_));
    ContributionMsg msg;
    msg.participant_id = participant;
    msg.modulus = modulus_;
    msg.payload = std::move(prepared);
    msg.shard = plan_.Spec(s);
    SMM_ASSIGN_OR_RETURN(frames.emplace_back(), EncodeFrame(msg));
  }
  return frames;
}

Status ShardedCoordinator::HandleFrame(ByteSpan frame) {
  auto message = DecodeFrame(frame);
  if (!message.ok()) {
    ++rejected_frames_;
    return message.status();
  }
  if (auto* contribution = std::get_if<ContributionMsg>(&*message)) {
    if (plan_.shard_count() == 1) {
      // The single worker enforces the unsharded contract (a sharded frame
      // addressed at a 1-shard round is rejected there).
      return sessions_[0]->HandleContribution(std::move(*contribution));
    }
    if (!contribution->shard.has_value()) {
      ++rejected_frames_;
      return InvalidArgumentError(
          "unsharded contribution sent to a sharded round");
    }
    const uint32_t shard = contribution->shard->shard_index;
    if (shard >= sessions_.size()) {
      ++rejected_frames_;
      return InvalidArgumentError(
          "contribution shard index out of range for the round");
    }
    // The worker validates the full spec (offset/width/count) against its
    // expected_shard; a mismatched spec is rejected there.
    return sessions_[shard]->HandleContribution(std::move(*contribution));
  }
  if (std::get_if<SharesMsg>(&*message) != nullptr) {
    ++shares_received_;
    return OkStatus();
  }
  if (auto* partial = std::get_if<PartialSumMsg>(&*message)) {
    if (partial->modulus != modulus_) {
      ++rejected_frames_;
      return InvalidArgumentError(
          "partial sum modulus does not match the round");
    }
    if (uint64_t{partial->shard.dim_offset} + partial->shard.shard_dim >
        plan_.dim()) {
      ++rejected_frames_;
      return InvalidArgumentError(
          "partial sum range extends past the round dimension");
    }
    remote_partials_.push_back(std::move(*partial));
    return OkStatus();
  }
  ++rejected_frames_;
  return InvalidArgumentError(
      "sum frames are coordinator-outbound and cannot be received");
}

Status ShardedCoordinator::DrainTransport(FrameTransport& transport) {
  while (auto frame = transport.Receive()) {
    SMM_RETURN_IF_ERROR(HandleFrame(*frame));
  }
  return OkStatus();
}

StatusOr<SumMsg> ShardedCoordinator::Finalize() {
  if (plan_.shard_count() == 1 && remote_partials_.empty()) {
    return sessions_[0]->Finalize();
  }
  std::vector<PartialSumMsg> partials = std::move(remote_partials_);
  partials.reserve(partials.size() + sessions_.size());
  for (size_t s = 0; s < sessions_.size(); ++s) {
    SMM_ASSIGN_OR_RETURN(SumMsg shard_sum, sessions_[s]->Finalize());
    PartialSumMsg partial;
    partial.modulus = shard_sum.modulus;
    partial.num_contributors = shard_sum.num_contributors;
    partial.shard = plan_.Spec(s);
    partial.sum = std::move(shard_sum.sum);
    partials.push_back(std::move(partial));
  }
  return MergePartialSums(std::move(partials), plan_.dim(), modulus_);
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
