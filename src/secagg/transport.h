#ifndef SMM_SECAGG_TRANSPORT_H_
#define SMM_SECAGG_TRANSPORT_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <optional>
#include <variant>
#include <vector>

#include "common/span.h"
#include "common/status.h"
#include "secagg/shamir.h"

namespace smm::secagg {

/// The versioned binary wire format of the secure-aggregation transport:
/// the client -> server message flow that Bonawitz-style SecAgg and the
/// DDP-SA line of work build on, made concrete so contributions arrive as
/// framed messages instead of in-memory vector batches.
///
/// Every message travels in one frame:
///
///   offset  size  field
///   0       4     magic "SMM1" (raw bytes, rejects non-protocol data)
///   4       1     version (kWireVersion or kWireVersionSharded; parsers
///                 reject anything else)
///   5       1     message type (MessageType; parsers reject unknowns)
///   6       2     reserved, must be zero
///   8       4     payload length in bytes (little-endian uint32)
///   12      len   payload (per-type layout below)
///   12+len  8     FNV-1a 64-bit checksum of bytes [0, 12+len)
///
/// All integers are serialized little-endian byte by byte, so the encoding
/// is identical on any host endianness. Parsing is strict: a frame is
/// rejected (with a Status, never UB) if it is truncated, carries trailing
/// bytes, exceeds kMaxPayloadBytes, fails the checksum, or its payload's
/// internal counts disagree with the payload length.
///
/// Version 1 payload layouts (LE):
///   kContribution  participant_id u32 | count u32 | modulus u64
///                  | count x value u64
///   kShares        participant_id u32 | count u32 | count x (x u64, y u64)
///   kSum           num_contributors u32 | count u32 | modulus u64
///                  | count x value u64
///
/// Version 2 ("sharded") payload layouts (LE). The version byte gates the
/// shard extension: every version-1 frame above stays byte-identical, and a
/// version-2 frame unconditionally carries a 16-byte ShardSpec after the
/// modulus. Only the two sharded message types exist at version 2; a
/// version-2 kShares/kSum (and a version-1 kPartialSum) is structurally
/// malformed and rejected with kInvalidArgument.
///   kContribution  participant_id u32 | count u32 | modulus u64
///                  | ShardSpec (4 x u32) | count x value u64
///   kPartialSum    num_contributors u32 | count u32 | modulus u64
///                  | ShardSpec (4 x u32) | count x value u64
///   ShardSpec      shard_index u32 | shard_count u32 | dim_offset u32
///                  | shard_dim u32

inline constexpr uint8_t kWireVersion = 1;
/// Wire version of the shard extension: contributions sliced to one shard's
/// dimension range and the per-shard partial sums a coordinator merges.
inline constexpr uint8_t kWireVersionSharded = 2;
inline constexpr size_t kFrameHeaderBytes = 12;
inline constexpr size_t kFrameChecksumBytes = 8;
inline constexpr size_t kFrameOverheadBytes =
    kFrameHeaderBytes + kFrameChecksumBytes;
/// Upper bound on a frame's payload, enforced by encoder and parser alike:
/// 1 GiB covers d = 2^27 u64 coordinates per contribution while keeping a
/// corrupt length prefix from driving a giant allocation.
inline constexpr size_t kMaxPayloadBytes = size_t{1} << 30;

enum class MessageType : uint8_t {
  kContribution = 1,
  kShares = 2,
  kSum = 3,
  kPartialSum = 4,
};

/// Addresses one shard of a dimension-sharded round: shard `shard_index` of
/// `shard_count` owns the contiguous coordinate range
/// [dim_offset, dim_offset + shard_dim). Carried by every version-2 frame;
/// a spec is well-formed iff shard_index < shard_count, shard_dim >= 1, and
/// dim_offset + shard_dim fits in a u32 (see ValidateShardSpec).
struct ShardSpec {
  uint32_t shard_index = 0;
  uint32_t shard_count = 1;
  uint32_t dim_offset = 0;
  uint32_t shard_dim = 0;

  friend bool operator==(const ShardSpec& a, const ShardSpec& b) {
    return a.shard_index == b.shard_index && a.shard_count == b.shard_count &&
           a.dim_offset == b.dim_offset && a.shard_dim == b.shard_dim;
  }
  friend bool operator!=(const ShardSpec& a, const ShardSpec& b) {
    return !(a == b);
  }
};

/// Structural validity of a ShardSpec, independent of any round's dimension:
/// kInvalidArgument unless shard_index < shard_count, shard_dim >= 1, and
/// dim_offset + shard_dim <= UINT32_MAX.
Status ValidateShardSpec(const ShardSpec& spec);

/// One participant's (masked) contribution in Z_m^d — the client -> server
/// payload of Algorithm 3's black-box protocol. When `shard` is set the
/// payload covers only that shard's dimension range (shard.shard_dim must
/// equal payload.size()) and the frame is encoded at kWireVersionSharded;
/// when unset the frame is a version-1 whole-vector contribution,
/// byte-identical to the pre-shard wire format.
struct ContributionMsg {
  int participant_id = 0;
  uint64_t modulus = 0;
  std::vector<uint64_t> payload;
  std::optional<ShardSpec> shard;
};

/// A participant's Shamir shares (the dropout-recovery material clients
/// deposit with the server before contributing).
struct SharesMsg {
  int participant_id = 0;
  std::vector<ShamirShare> shares;
};

/// The server's aggregated sum in Z_m^d, broadcast after Finalize.
struct SumMsg {
  uint64_t modulus = 0;
  uint32_t num_contributors = 0;
  std::vector<uint64_t> sum;
};

/// One shard worker's aggregated sum over its dimension range: the message a
/// cross-process shard worker would send its coordinator. Only the codec
/// uses it today; ShardedCoordinator rejects it. Always encoded at
/// kWireVersionSharded; shard.shard_dim must equal sum.size().
struct PartialSumMsg {
  uint64_t modulus = 0;
  uint32_t num_contributors = 0;
  ShardSpec shard;
  std::vector<uint64_t> sum;
};

/// A successfully parsed frame, one alternative per message type.
using WireMessage =
    std::variant<ContributionMsg, SharesMsg, SumMsg, PartialSumMsg>;

/// Serializes a message into one framed byte string. Fails on a negative
/// participant id, a modulus < 2, a payload over kMaxPayloadBytes, or a
/// shard spec that is malformed or disagrees with the payload size.
StatusOr<std::vector<uint8_t>> EncodeFrame(const ContributionMsg& msg);
StatusOr<std::vector<uint8_t>> EncodeFrame(const SharesMsg& msg);
StatusOr<std::vector<uint8_t>> EncodeFrame(const SumMsg& msg);
StatusOr<std::vector<uint8_t>> EncodeFrame(const PartialSumMsg& msg);

/// Parses one frame. `frame.size()` must be the exact frame length.
/// Structurally malformed input (bad magic/version/type, trailing bytes,
/// counts that disagree with the length prefix) is rejected with
/// kInvalidArgument; input damaged in transit (truncation, checksum
/// mismatch) with kDataLoss. Parsing never touches memory outside the span.
StatusOr<WireMessage> DecodeFrame(ByteSpan frame);

/// The pluggable message channel underneath AggregationSession: clients
/// push whole SMM1 frames in with Send, one server loop pulls complete
/// frames out with Receive. Session code (DrainTransport, RunDistributedSum)
/// is written against this interface, so swapping the in-process loopback
/// for real sockets — or any future backend — changes no aggregation logic;
/// a backend only has to move frames byte-identically.
///
/// Contract:
///  - Send is thread-safe; many clients may call it concurrently.
///  - Receive is driven by exactly one server loop at a time. It returns
///    the next complete frame, or nullopt once the transport is drained:
///    no frame is available now and the backend knows no more are coming
///    (for the in-memory backend that is simply "all queues empty"; a
///    socket backend may block while frames are still in flight).
///  - FinishSending is the client side's end-of-stream signal: after it,
///    no Send may follow, and a blocking backend's Receive must eventually
///    return nullopt instead of waiting forever. Backends with no in-flight
///    state (the in-memory queue) need not override it.
///  - Frames travel opaque and intact: a backend never splits, merges,
///    reorders bytes within, or validates the contents of a frame beyond
///    what it needs to find frame boundaries.
class FrameTransport {
 public:
  virtual ~FrameTransport() = default;

  /// Enqueues/sends one framed message from `client_id` (>= 0). The frame
  /// is taken by value and moved into the channel. Thread-safe.
  virtual Status Send(int client_id, std::vector<uint8_t> frame) = 0;

  /// Returns the next complete frame, or nullopt when the transport is
  /// drained. Single-consumer; see the class contract for blocking rules.
  virtual std::optional<std::vector<uint8_t>> Receive() = 0;

  /// Frames currently deliverable without waiting for more input.
  virtual size_t pending() const = 0;

  /// Declares that no further Send will follow (any backend buffering or
  /// in-flight bytes must still be delivered by Receive). Default: no-op.
  virtual Status FinishSending() { return OkStatus(); }

  /// Why Receive last reported drained. OK means genuinely drained (every
  /// sent frame was delivered); an error (kDataLoss) means the channel
  /// itself broke and undelivered frames may have been lost — callers that
  /// need exactly-once delivery must check this after a drain. Backends
  /// that cannot lose frames (the in-memory queue) keep the OK default.
  virtual Status receive_status() const { return OkStatus(); }
};

/// A loopback FrameTransport with per-client FIFO queues: clients enqueue
/// framed bytes with Send, the server drains them with Receive. The whole
/// client -> frame -> session -> stream pipeline can run in-process through
/// this; net::SocketTransport reproduces the same byte-in/byte-out contract
/// over real TCP sockets.
///
/// Determinism contract: Receive always returns the oldest frame of the
/// lowest client id that has one pending, so the drain order is a function
/// of what was sent — per-client send order and the client id set — never
/// of thread scheduling. Receive never blocks: an empty queue set means
/// drained.
class InMemoryTransport final : public FrameTransport {
 public:
  /// Enqueues a frame from `client_id` (>= 0). The frame is taken by value
  /// and moved into the queue.
  Status Send(int client_id, std::vector<uint8_t> frame) override;

  /// Dequeues the next frame in the deterministic drain order, or nullopt
  /// when every queue is empty.
  std::optional<std::vector<uint8_t>> Receive() override;

  /// Frames currently queued across all clients.
  size_t pending() const override;

 private:
  mutable std::mutex mu_;
  /// Non-empty queues only, keyed by client id (ordered map = lowest-id
  /// drain order); an emptied queue is erased so memory tracks the pending
  /// frames, not the client universe.
  std::map<int, std::deque<std::vector<uint8_t>>> queues_;
  size_t pending_ = 0;
};

}  // namespace smm::secagg

#endif  // SMM_SECAGG_TRANSPORT_H_
