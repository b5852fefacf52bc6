#ifndef SMM_NET_SERVER_H_
#define SMM_NET_SERVER_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/status.h"
#include "secagg/secure_aggregator.h"
#include "secagg/session.h"
#include "secagg/shard_plan.h"
#include "secagg/transport.h"

namespace smm::net {

/// Server counters, all monotonic since Start.
struct ServerStats {
  uint64_t sessions_opened = 0;
  uint64_t sessions_completed = 0;
  uint64_t sessions_failed = 0;
  uint64_t connections_accepted = 0;
  /// Connections torn down abnormally: stream desynchronization, reset, or
  /// EOF mid-frame.
  uint64_t connections_dropped = 0;
  /// Frames decoded and accepted by a session.
  uint64_t frames_delivered = 0;
  /// Frames rejected by a session (parse failure or protocol violation);
  /// the connection survives — the frame boundary is intact.
  uint64_t frames_rejected = 0;
  uint64_t bytes_read = 0;
  uint64_t bytes_written = 0;
  /// Sessions whose deadline expired below quorum: the round failed with
  /// kDeadlineExceeded instead of hanging its waiters.
  uint64_t sessions_deadline_exceeded = 0;
  /// Sessions finalized early at deadline expiry with a survivor set of at
  /// least min_contributions (dropout recovery covers the rest).
  uint64_t sessions_quorum_finalized = 0;
  /// Connections evicted by the idle/stalled-read timeout (slow-loris
  /// peers that stopped completing frames but kept the socket open).
  uint64_t connections_evicted = 0;
};

/// The async TCP aggregation service: thousands of concurrent
/// AggregationSessions multiplexed over a fixed-size pool of epoll event
/// loops — the library -> service step the ROADMAP's "millions of users"
/// north star requires. Each OpenSession binds its own loopback listener
/// (one port per aggregation round, so clients address a round by port)
/// and pins the session, its listener, and every connection accepted from
/// it to exactly one event loop.
///
/// Concurrency model: a session's frames are handled only on its loop
/// thread — no locks around session state, no cross-loop sharing; the
/// fixed thread budget comes from running many sessions per loop, not many
/// threads per session. Control operations (open/finalize/stop) post
/// commands to the owning loop through an eventfd wakeup; results come
/// back through a mutex+condvar result table (WaitForSum).
///
/// Data path per connection: level-triggered epoll readiness -> one
/// bounded read per event (read_chunk_bytes, fairness across connections)
/// -> FrameReassembler -> AggregationSession::HandleFrame. A frame the
/// session rejects costs only that frame (boundary intact, connection
/// survives); a desynchronized byte stream drops the connection. Unread
/// bytes stay in the kernel socket buffer, so the TCP receive window is
/// the backpressure signal all the way to the client's send call.
///
/// Round completion: when a session has accepted
/// `expected_contributions` (or FinalizeSession is called), the loop
/// finalizes the stream, encodes the SumMsg frame once, broadcasts it to
/// every connection still open on that session (partial writes finish
/// under EPOLLOUT against a bounded per-connection outbound buffer), then
/// closes the session's listener and connections.
///
/// The aggregator passed to OpenSession must outlive the session's
/// completion and must tolerate concurrent Open/stream use across loops
/// (the provided aggregators keep per-stream state only). Sessions are
/// opened with pool = nullptr — absorption parallelism inside one
/// contribution would fight the event-loop threads; throughput comes from
/// session-level parallelism.
class AggregationServer {
 public:
  struct Options {
    /// Event loops (each one thread + one epoll instance). The fixed
    /// thread budget for every session on this server.
    int event_loop_threads = 4;
    /// Per-frame payload cap for reassembly.
    size_t max_frame_bytes = size_t{1} << 24;
    int listen_backlog = 512;
    /// Bytes read per readiness event per connection (fairness quantum).
    size_t read_chunk_bytes = 64 * 1024;
    /// Evict a connection that has not completed a frame for this long
    /// (and has not cleanly half-closed): catches both idle sockets and
    /// slow-loris peers trickling bytes that never finish a frame. The
    /// eviction counts as a dropped connection and in
    /// connections_evicted. 0 (default) disables eviction.
    int64_t idle_timeout_ms = 0;
  };

  struct SessionOptions {
    secagg::AggregationSession::Options session;
    /// When > 0, the server finalizes and broadcasts as soon as this many
    /// contributions are accepted. 0 = finalize only via FinalizeSession.
    size_t expected_contributions = 0;
    /// Round deadline, measured from OpenSession. When it expires before
    /// the session finalized: if at least session.min_contributions
    /// contributions were accepted (the quorum), the server finalizes and
    /// broadcasts with the survivor set — dropout recovery handles the
    /// missing participants; otherwise the round fails and its WaitForSum
    /// returns kDeadlineExceeded instead of blocking forever. 0 (default)
    /// = no deadline.
    int64_t deadline_ms = 0;
  };

  /// A handle to an opened session: its server-assigned id and the
  /// loopback port its clients connect to.
  struct SessionInfo {
    uint64_t id = 0;
    uint16_t port = 0;
  };

  /// What a failed shard worker does to the round.
  enum class ShardFailurePolicy {
    /// The first failed shard fails the whole round (the default; exactly
    /// the pre-degradation behavior).
    kFailFast,
    /// WaitForShardedSum reopens a spare worker session for each failed
    /// shard — over the same derived shard aggregator, so the re-keyed
    /// masks are identical and resent sub-frames stay byte-valid — and
    /// returns kUnavailable so the caller resends to the new ports and
    /// waits again. Bounded by max_shard_retries per shard.
    kRetryOnSpareWorker,
  };

  struct ShardedRoundOptions {
    /// Full round dimension, sliced per ShardPlan across the workers.
    size_t dim = 0;
    uint64_t modulus = 0;
    /// Shard workers; kInvalidArgument if < 1 or > dim.
    size_t shard_count = 1;
    /// Per-worker tile buffering (AggregationSession::Options::tile_rows).
    size_t tile_rows = 1;
    /// Per-worker auto-finalize trigger: each shard worker finalizes after
    /// this many sub-frames (normally the participant count — every
    /// participant sends one sub-frame to every shard). 0 = finalize each
    /// shard via FinalizeSession.
    size_t expected_contributions = 0;
    /// Per-shard round deadline (SessionOptions::deadline_ms semantics,
    /// applied to every worker session). 0 = none.
    int64_t deadline_ms = 0;
    /// Per-shard quorum at deadline expiry
    /// (AggregationSession::Options::min_contributions for every worker).
    size_t min_contributions = 0;
    ShardFailurePolicy failure_policy = ShardFailurePolicy::kFailFast;
    /// Spare-worker reopens allowed per shard under kRetryOnSpareWorker.
    int max_shard_retries = 1;
  };

  /// A handle to one dimension-sharded round: shard s is the worker
  /// session `shards[s]`, addressed by (session id, shard index) and
  /// reachable on its own port, covering plan.Spec(s)'s coordinate range.
  /// The handle owns the per-shard protocol instances
  /// CreateShardAggregator derived (null entries = the base aggregator
  /// serves that shard), so it must outlive every worker's completion —
  /// keep it alive until WaitForShardedSum returns.
  struct ShardedRoundInfo {
    secagg::ShardPlan plan;
    std::vector<SessionInfo> shards;
    std::vector<std::unique_ptr<secagg::SecureAggregator>> shard_aggregators;
    /// Degradation state, maintained by WaitForShardedSum. `collected[s]`
    /// holds shard s's sum once its worker finalized, so a re-wait after a
    /// spare-worker reopen only waits on the shards that failed.
    std::vector<std::optional<secagg::SumMsg>> collected;
    /// Spare-worker reopens consumed, per shard.
    std::vector<int> shard_retries;
    /// The round's options and base aggregator, kept for spare-worker
    /// reopens. The aggregator must outlive the round (it already must).
    ShardedRoundOptions options;
    secagg::SecureAggregator* base = nullptr;
  };

  /// Opens one logical round as shard_count worker sessions, one per
  /// contiguous dimension range of the ShardPlan, each over the aggregator
  /// instance CreateShardAggregator derives for its shard. At
  /// shard_count == 1 this is exactly one unsharded OpenSession (version-1
  /// frames, byte-identical round). Thread-safe.
  StatusOr<ShardedRoundInfo> OpenShardedRound(
      secagg::SecureAggregator& aggregator,
      const ShardedRoundOptions& options);

  /// Blocks until every shard worker of the round finalizes, then merges
  /// their per-range sums (secagg::MergeShardSums) into the round's SumMsg
  /// — bit-identical to the unsharded session's sum.
  ///
  /// Shard failures follow options.failure_policy: under kFailFast the
  /// first failed worker fails the round with its status; under
  /// kRetryOnSpareWorker each failed shard (with retries left) is reopened
  /// as a fresh worker session — round.shards[s] is updated to the spare
  /// worker's port — and the call returns kUnavailable: the caller resends
  /// the failed shards' sub-frames (byte-identical re-encodes are valid —
  /// same derived aggregator, same masks) and calls WaitForShardedSum
  /// again; already-collected shards are not re-waited. A shard out of
  /// retries fails the round. Results consume like WaitForSum (one wait
  /// per worker session).
  StatusOr<secagg::SumMsg> WaitForShardedSum(ShardedRoundInfo& round);

  /// Starts the event loops. kUnimplemented on non-Linux builds.
  static StatusOr<std::unique_ptr<AggregationServer>> Start(
      const Options& options);
  static StatusOr<std::unique_ptr<AggregationServer>> Start() {
    return Start(Options());
  }

  /// Stops all loops, failing every unfinished session and closing every
  /// socket. Idempotent; the destructor calls it.
  ~AggregationServer();
  void Stop();

  /// Opens one aggregation round: binds a listener on an ephemeral
  /// loopback port, opens an AggregationSession over `aggregator`, and
  /// registers both with one event loop (round-robin). Thread-safe.
  StatusOr<SessionInfo> OpenSession(secagg::SecureAggregator& aggregator,
                                    const SessionOptions& options);

  /// Posts a finalize command to the session's loop (for rounds without an
  /// expected_contributions trigger). The result arrives via WaitForSum.
  Status FinalizeSession(uint64_t session_id);

  /// Blocks until the session finalizes (or fails, or the server stops)
  /// and returns the SumMsg it broadcast. One-shot: the call consumes the
  /// session's result and releases its bookkeeping (a long-running server
  /// would otherwise retain a SumMsg per completed round); a second wait
  /// on the same id returns kNotFound.
  StatusOr<secagg::SumMsg> WaitForSum(uint64_t session_id);

  ServerStats Stats() const;
  int event_loop_threads() const;

 private:
  struct Impl;
  explicit AggregationServer(std::unique_ptr<Impl> impl);

  /// Opens a spare worker session for shard `s` of `round` (same derived
  /// aggregator, same options) and updates round.shards[s].
  Status ReopenShardWorker(ShardedRoundInfo& round, size_t s);

  std::unique_ptr<Impl> impl_;
};

}  // namespace smm::net

#endif  // SMM_NET_SERVER_H_
