#include "secagg/streaming_aggregator.h"

#include "common/simd.h"
#include "secagg/modular.h"

namespace smm::secagg {

StreamingAggregator::StreamingAggregator(size_t dim, uint64_t m,
                                         ThreadPool* pool)
    : dim_(dim), m_(m), pool_(pool), sum_(dim, 0) {}

Status StreamingAggregator::CheckOpen() const {
  if (finalized_) {
    return FailedPreconditionError("stream already finalized");
  }
  return OkStatus();
}

Status StreamingAggregator::AdmitParticipant(int participant_id) {
  (void)participant_id;
  return OkStatus();
}

Status StreamingAggregator::FinalizeInto(std::vector<uint64_t>& sum) {
  (void)sum;
  return OkStatus();
}

Status StreamingAggregator::AdmitTile(const std::vector<int>& participant_ids) {
  for (int id : participant_ids) {
    SMM_RETURN_IF_ERROR(AdmitParticipant(id));
  }
  return OkStatus();
}

Status StreamingAggregator::Absorb(int participant_id,
                                   ConstSpan<uint64_t> input) {
  SMM_RETURN_IF_ERROR(CheckOpen());
  if (input.size() != dim_) {
    return InvalidArgumentError("input dimension mismatch");
  }
  SMM_RETURN_IF_ERROR(AdmitParticipant(participant_id));
  // A single contribution updates each coordinate independently, so the
  // coordinate range shards with no partials at all: the memory high-water
  // mark of a one-participant absorb is the O(dim) running sum itself.
  const uint64_t* data = input.data();
  const auto accumulate = [&](size_t begin, size_t end) {
    simd::AddModVec(sum_.data() + begin, data + begin, end - begin, m_);
  };
  if (pool_ != nullptr && pool_->num_threads() > 1 && dim_ > 1) {
    pool_->ParallelFor(dim_, [&](int, size_t begin, size_t end) {
      accumulate(begin, end);
    });
  } else {
    accumulate(0, dim_);
  }
  ++absorbed_;
  return OkStatus();
}

Status StreamingAggregator::AbsorbTile(
    const std::vector<int>& participant_ids,
    const std::vector<std::vector<uint64_t>>& inputs) {
  SMM_RETURN_IF_ERROR(CheckOpen());
  if (participant_ids.size() != inputs.size()) {
    return InvalidArgumentError("one participant id per tile input required");
  }
  for (const auto& input : inputs) {
    if (input.size() != dim_) {
      return InvalidArgumentError("input dimension mismatch");
    }
  }
  // Admission is all-or-nothing and runs before any accumulation, so a
  // rejected tile leaves the stream untouched; the data is then folded in
  // with one O(dim) partial per thread, reduced in chunk order.
  SMM_RETURN_IF_ERROR(AdmitTile(participant_ids));
  SMM_RETURN_IF_ERROR(ShardedModularAccumulate(
      pool_, inputs.size(), m_, sum_,
      [&](size_t begin, size_t end, std::vector<uint64_t>& acc) {
        for (size_t i = begin; i < end; ++i) {
          simd::AddModVec(acc.data(), inputs[i].data(), dim_, m_);
        }
        return OkStatus();
      }));
  absorbed_ += inputs.size();
  return OkStatus();
}

StatusOr<std::vector<uint64_t>> StreamingAggregator::Finalize() {
  SMM_RETURN_IF_ERROR(CheckOpen());
  if (absorbed_ == 0) {
    return FailedPreconditionError("no contributions absorbed");
  }
  finalized_ = true;
  SMM_RETURN_IF_ERROR(FinalizeInto(sum_));
  return std::move(sum_);
}

}  // namespace smm::secagg
