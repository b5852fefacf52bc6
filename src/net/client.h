#ifndef SMM_NET_CLIENT_H_
#define SMM_NET_CLIENT_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/span.h"
#include "common/status.h"
#include "net/frame_reassembler.h"
#include "net/socket_util.h"
#include "secagg/shard_plan.h"
#include "secagg/transport.h"

namespace smm::net {

/// A participant's side of the TCP aggregation protocol: connect to the
/// port an AggregationServer session listens on, stream contribution /
/// shares frames, half-close the sending side, and block on the broadcast
/// SumMsg. One client = one TCP connection; a participant may also open a
/// fresh connection per frame — the server aggregates per session, not per
/// connection.
///
///   SMM_ASSIGN_OR_RETURN(auto client, BlockingClient::Connect(port));
///   SMM_RETURN_IF_ERROR(client.SendContribution(msg));
///   SMM_RETURN_IF_ERROR(client.FinishSending());
///   SMM_ASSIGN_OR_RETURN(secagg::SumMsg sum, client.ReadSum());
///
/// Blocking by design: a participant sends a handful of frames and waits
/// for one answer, so synchronous I/O keeps the client trivially correct;
/// all the async machinery lives on the server side where the fan-in is.
///
/// Move-only; not thread-safe (one participant, one driver).
class BlockingClient {
 public:
  struct Options {
    /// Payload cap for the SumMsg reassembled from the server.
    size_t max_frame_bytes = size_t{1} << 24;
  };

  /// Connects to 127.0.0.1:port (blocking, TCP_NODELAY).
  static StatusOr<BlockingClient> Connect(uint16_t port,
                                          const Options& options);
  static StatusOr<BlockingClient> Connect(uint16_t port) {
    return Connect(port, Options());
  }

  BlockingClient(BlockingClient&&) = default;
  BlockingClient& operator=(BlockingClient&&) = default;

  /// Writes one already-encoded SMM1 frame (blocking until fully written;
  /// the kernel TCP window is the backpressure).
  Status SendFrame(ByteSpan frame);

  /// Encode-and-send convenience.
  Status SendContribution(const secagg::ContributionMsg& msg);

  /// Half-closes the sending side (shutdown(SHUT_WR)): tells the server
  /// this connection will contribute nothing more, while the socket stays
  /// open for ReadSum. Sending after this fails at the socket layer.
  Status FinishSending();

  /// Blocks until the server broadcasts the session's SumMsg and returns
  /// it. EOF before a sum arrives (the server dropped the connection or
  /// failed the session) is kDataLoss; a non-sum frame from the server is
  /// kInvalidArgument.
  StatusOr<secagg::SumMsg> ReadSum();

 private:
  BlockingClient(UniqueFd fd, size_t max_frame_bytes)
      : fd_(std::move(fd)), reassembler_(max_frame_bytes) {}

  UniqueFd fd_;
  FrameReassembler reassembler_;
};

/// A participant's fan-out side of a dimension-sharded round: one blocking
/// connection per shard worker (the ports of an OpenShardedRound handle, in
/// shard order). The participant slices and prepares its contribution once
/// (ShardedCoordinator::EncodeShardedContribution produces exactly the
/// per-shard sub-frames), sends sub-frame s on connection s, half-closes
/// all of them, and merges the workers' per-range sum broadcasts back into
/// the round's full-dimension sum.
///
/// Move-only; not thread-safe, like BlockingClient.
class ShardedFanoutClient {
 public:
  /// Connects to every port in shard order. Fails atomically: any refused
  /// connection fails the whole fan-out.
  static StatusOr<ShardedFanoutClient> Connect(
      const std::vector<uint16_t>& ports, const BlockingClient::Options& options);
  static StatusOr<ShardedFanoutClient> Connect(
      const std::vector<uint16_t>& ports) {
    return Connect(ports, BlockingClient::Options());
  }

  ShardedFanoutClient(ShardedFanoutClient&&) = default;
  ShardedFanoutClient& operator=(ShardedFanoutClient&&) = default;

  size_t shard_count() const { return clients_.size(); }

  /// Sends already-encoded sub-frame `frames[s]` to shard worker s.
  /// frames.size() must equal shard_count().
  Status SendShardFrames(const std::vector<std::vector<uint8_t>>& frames);

  /// Half-closes the sending side of every connection.
  Status FinishSending();

  /// Blocks for every worker's per-range SumMsg broadcast (in shard order)
  /// and merges them (secagg::MergeShardSums) into the round's full SumMsg
  /// per `plan`, whose shard_count must equal shard_count(). A broadcast
  /// whose length or modulus disagrees with the plan is kInvalidArgument.
  /// With one shard this is the plain BlockingClient::ReadSum.
  StatusOr<secagg::SumMsg> ReadMergedSum(const secagg::ShardPlan& plan);

 private:
  explicit ShardedFanoutClient(std::vector<BlockingClient> clients)
      : clients_(std::move(clients)) {}

  std::vector<BlockingClient> clients_;
};

}  // namespace smm::net

#endif  // SMM_NET_CLIENT_H_
