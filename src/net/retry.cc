#include "net/retry.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "common/random.h"

namespace smm::net {

bool IsRetryableStatus(const Status& status) {
  return status.code() == StatusCode::kUnavailable ||
         status.code() == StatusCode::kDataLoss;
}

RetryState::RetryState(const RetryPolicy& policy)
    : policy_(policy),
      next_backoff_ms_(std::max<int64_t>(policy.initial_backoff_ms, 0)),
      rng_state_(policy.seed) {}

bool RetryState::BackoffAndRetry() {
  if (attempts_ >= std::max(policy_.max_attempts, 1)) return false;
  ++attempts_;
  int64_t delay = next_backoff_ms_;
  const double jitter = std::clamp(policy_.jitter, 0.0, 1.0);
  const auto half_band = static_cast<int64_t>(
      static_cast<double>(delay) * jitter);
  if (half_band > 0) {
    // SplitMix64 keeps the schedule a pure function of the seed.
    const uint64_t draw =
        SplitMix64(&rng_state_) %
        (static_cast<uint64_t>(half_band) * 2 + 1);
    delay += static_cast<int64_t>(draw) - half_band;
  }
  if (delay > 0) {
    if (policy_.sleep_fn) {
      policy_.sleep_fn(delay);
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(delay));
    }
  }
  const double grown =
      static_cast<double>(next_backoff_ms_) * std::max(policy_.multiplier, 1.0);
  next_backoff_ms_ = std::min<int64_t>(
      policy_.max_backoff_ms > 0 ? policy_.max_backoff_ms : next_backoff_ms_,
      static_cast<int64_t>(grown));
  return true;
}

namespace {

/// One connect + send + half-close + read-sum attempt.
StatusOr<secagg::SumMsg> AttemptContributionRound(
    uint16_t port, ByteSpan frame, const BlockingClient::Options& options) {
  SMM_ASSIGN_OR_RETURN(BlockingClient client,
                       BlockingClient::Connect(port, options));
  SMM_RETURN_IF_ERROR(client.SendFrame(frame));
  SMM_RETURN_IF_ERROR(client.FinishSending());
  return client.ReadSum();
}

}  // namespace

StatusOr<secagg::SumMsg> RunContributionRound(
    uint16_t port, ByteSpan frame, const BlockingClient::Options& options,
    const RetryPolicy& retry, int* attempts_out) {
  RetryState state(retry);
  while (true) {
    StatusOr<secagg::SumMsg> result =
        AttemptContributionRound(port, frame, options);
    if (result.ok() || !IsRetryableStatus(result.status()) ||
        !state.BackoffAndRetry()) {
      if (attempts_out != nullptr) *attempts_out = state.attempts();
      return result;
    }
  }
}

}  // namespace smm::net
