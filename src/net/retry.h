#ifndef SMM_NET_RETRY_H_
#define SMM_NET_RETRY_H_

#include <cstdint>
#include <functional>

#include "common/span.h"
#include "common/status.h"
#include "net/client.h"
#include "secagg/transport.h"

namespace smm::net {

/// Capped exponential backoff with seeded jitter for client-side retries.
///
/// The schedule is deterministic given `seed`: attempt k (k = 1 is the
/// first retry) backs off min(initial * multiplier^(k-1), max) plus a
/// uniform jitter of up to +/- jitter * backoff drawn from a seeded PRG.
/// Determinism matters for tests — a chaos run with a pinned seed replays
/// the identical sleep schedule.
///
/// Retries are safe against an AggregationServer session because resends
/// are idempotent: the session acks a duplicate contribution first-wins,
/// so "ack lost, contribution absorbed" and "contribution lost" both
/// converge to exactly-once accounting under resend.
struct RetryPolicy {
  /// Total attempts, including the first (so 1 = no retries).
  int max_attempts = 4;
  int64_t initial_backoff_ms = 10;
  int64_t max_backoff_ms = 1000;
  double multiplier = 2.0;
  /// Jitter fraction in [0, 1]: each sleep is backoff +/- jitter*backoff.
  double jitter = 0.2;
  /// Seed of the jitter PRG (deterministic schedule per seed).
  uint64_t seed = 1;
  /// Sleep override for tests (ms). Default: real sleep_for.
  std::function<void(int64_t)> sleep_fn;
};

/// True for failures a retry can plausibly fix: kUnavailable (peer not
/// reachable right now — connect refused/reset) and kDataLoss (the channel
/// broke mid-round; resending is harmless by first-wins idempotency).
/// kDeadlineExceeded is NOT retryable — the round is over.
bool IsRetryableStatus(const Status& status);

/// One operation's walk through a RetryPolicy's schedule.
class RetryState {
 public:
  explicit RetryState(const RetryPolicy& policy);

  /// Consumes one retry: sleeps the next backoff (deterministic jitter)
  /// and returns true, or returns false without sleeping when the policy's
  /// attempts are exhausted.
  bool BackoffAndRetry();

  /// Attempts consumed so far: 1 (the initial try) + retries taken.
  int attempts() const { return attempts_; }

 private:
  const RetryPolicy policy_;
  int attempts_ = 1;
  int64_t next_backoff_ms_;
  uint64_t rng_state_;
};

/// Runs one participant's full contribution round against the session
/// listening on `port`, with reconnect-and-resend under `retry`: each
/// attempt connects, writes `frame`, half-closes, and blocks for the sum
/// broadcast; a retryable failure anywhere in that sequence reconnects and
/// resends the whole frame (safe — the session acks resends first-wins).
/// `attempts_out` (optional) reports how many attempts were consumed.
StatusOr<secagg::SumMsg> RunContributionRound(
    uint16_t port, ByteSpan frame, const BlockingClient::Options& options,
    const RetryPolicy& retry, int* attempts_out = nullptr);

}  // namespace smm::net

#endif  // SMM_NET_RETRY_H_
