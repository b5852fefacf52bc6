#include "secagg/transport.h"

#include <limits>
#include <utility>

#include "common/math_util.h"

namespace smm::secagg {

namespace {

constexpr uint8_t kMagic[4] = {'S', 'M', 'M', '1'};

// FNV-1a is defined over arithmetic mod 2^64; its multiply wraps by design
// and carries the shared deliberate-wrap annotation (common/math_util.h).
SMM_NO_SANITIZE_UNSIGNED_WRAP
uint64_t Fnv1a64(const uint8_t* data, size_t size) {
  uint64_t hash = 14695981039346656037ULL;
  for (size_t i = 0; i < size; ++i) {
    hash ^= data[i];
    hash *= 1099511628211ULL;
  }
  return hash;
}

void AppendU32(std::vector<uint8_t>& out, uint32_t v) {
  for (int b = 0; b < 4; ++b) {
    out.push_back(static_cast<uint8_t>(v >> (8 * b)));
  }
}

void AppendU64(std::vector<uint8_t>& out, uint64_t v) {
  for (int b = 0; b < 8; ++b) {
    out.push_back(static_cast<uint8_t>(v >> (8 * b)));
  }
}

uint32_t LoadU32(const uint8_t* p) {
  uint32_t v = 0;
  for (int b = 3; b >= 0; --b) v = (v << 8) | p[b];
  return v;
}

uint64_t LoadU64(const uint8_t* p) {
  uint64_t v = 0;
  for (int b = 7; b >= 0; --b) v = (v << 8) | p[b];
  return v;
}

/// Reserves the frame buffer, writes the header with the (known a priori)
/// payload length, and returns the buffer ready for payload appends.
std::vector<uint8_t> BeginFrame(uint8_t version, MessageType type,
                                size_t payload_len) {
  std::vector<uint8_t> out;
  out.reserve(kFrameOverheadBytes + payload_len);
  // push_back (not a range insert): gcc 12's -Wstringop-overflow misfires
  // on vector::insert into a freshly reserved buffer.
  for (uint8_t b : kMagic) out.push_back(b);
  out.push_back(version);
  out.push_back(static_cast<uint8_t>(type));
  out.push_back(0);  // reserved
  out.push_back(0);  // reserved
  AppendU32(out, static_cast<uint32_t>(payload_len));
  return out;
}

void AppendShardSpec(std::vector<uint8_t>& out, const ShardSpec& spec) {
  AppendU32(out, spec.shard_index);
  AppendU32(out, spec.shard_count);
  AppendU32(out, spec.dim_offset);
  AppendU32(out, spec.shard_dim);
}

ShardSpec LoadShardSpec(const uint8_t* p) {
  ShardSpec spec;
  spec.shard_index = LoadU32(p);
  spec.shard_count = LoadU32(p + 4);
  spec.dim_offset = LoadU32(p + 8);
  spec.shard_dim = LoadU32(p + 12);
  return spec;
}

/// Shard spec validity plus its agreement with the payload element count,
/// shared by the encoder and the version-2 decoder.
Status CheckShardAgainstPayload(const ShardSpec& spec, size_t count) {
  SMM_RETURN_IF_ERROR(ValidateShardSpec(spec));
  if (spec.shard_dim != count) {
    return InvalidArgumentError(
        "shard_dim disagrees with the payload element count");
  }
  return OkStatus();
}

/// Appends the checksum over everything written so far.
std::vector<uint8_t> FinishFrame(std::vector<uint8_t> frame) {
  AppendU64(frame, Fnv1a64(frame.data(), frame.size()));
  return frame;
}

Status CheckParticipantId(int participant_id) {
  if (participant_id < 0) {
    return InvalidArgumentError("participant id must be non-negative");
  }
  return OkStatus();
}

Status CheckElementCount(size_t count, size_t bytes_per_element,
                         size_t fixed_bytes) {
  if (count > std::numeric_limits<uint32_t>::max() ||
      count > (kMaxPayloadBytes - fixed_bytes) / bytes_per_element) {
    return InvalidArgumentError("message payload exceeds the frame limit");
  }
  return OkStatus();
}

}  // namespace

Status ValidateShardSpec(const ShardSpec& spec) {
  if (spec.shard_index >= spec.shard_count) {
    return InvalidArgumentError("shard_index must be < shard_count");
  }
  if (spec.shard_dim == 0) {
    return InvalidArgumentError("shard_dim must be >= 1");
  }
  if (uint64_t{spec.dim_offset} + uint64_t{spec.shard_dim} >
      std::numeric_limits<uint32_t>::max()) {
    return InvalidArgumentError("shard dimension range overflows uint32");
  }
  return OkStatus();
}

StatusOr<std::vector<uint8_t>> EncodeFrame(const ContributionMsg& msg) {
  SMM_RETURN_IF_ERROR(CheckParticipantId(msg.participant_id));
  if (msg.modulus < 2) {
    return InvalidArgumentError("contribution modulus must be >= 2");
  }
  if (msg.payload.empty()) {
    return InvalidArgumentError("contribution payload must be non-empty");
  }
  if (msg.shard.has_value()) {
    SMM_RETURN_IF_ERROR(
        CheckShardAgainstPayload(*msg.shard, msg.payload.size()));
    SMM_RETURN_IF_ERROR(CheckElementCount(msg.payload.size(), 8, 32));
    std::vector<uint8_t> frame =
        BeginFrame(kWireVersionSharded, MessageType::kContribution,
                   32 + 8 * msg.payload.size());
    AppendU32(frame, static_cast<uint32_t>(msg.participant_id));
    AppendU32(frame, static_cast<uint32_t>(msg.payload.size()));
    AppendU64(frame, msg.modulus);
    AppendShardSpec(frame, *msg.shard);
    for (uint64_t v : msg.payload) AppendU64(frame, v);
    return FinishFrame(std::move(frame));
  }
  SMM_RETURN_IF_ERROR(CheckElementCount(msg.payload.size(), 8, 16));
  std::vector<uint8_t> frame = BeginFrame(
      kWireVersion, MessageType::kContribution, 16 + 8 * msg.payload.size());
  AppendU32(frame, static_cast<uint32_t>(msg.participant_id));
  AppendU32(frame, static_cast<uint32_t>(msg.payload.size()));
  AppendU64(frame, msg.modulus);
  for (uint64_t v : msg.payload) AppendU64(frame, v);
  return FinishFrame(std::move(frame));
}

StatusOr<std::vector<uint8_t>> EncodeFrame(const SharesMsg& msg) {
  SMM_RETURN_IF_ERROR(CheckParticipantId(msg.participant_id));
  if (msg.shares.empty()) {
    return InvalidArgumentError("shares message must carry shares");
  }
  SMM_RETURN_IF_ERROR(CheckElementCount(msg.shares.size(), 16, 8));
  std::vector<uint8_t> frame = BeginFrame(kWireVersion, MessageType::kShares,
                                          8 + 16 * msg.shares.size());
  AppendU32(frame, static_cast<uint32_t>(msg.participant_id));
  AppendU32(frame, static_cast<uint32_t>(msg.shares.size()));
  for (const ShamirShare& share : msg.shares) {
    AppendU64(frame, share.x);
    AppendU64(frame, share.y);
  }
  return FinishFrame(std::move(frame));
}

StatusOr<std::vector<uint8_t>> EncodeFrame(const SumMsg& msg) {
  if (msg.modulus < 2) {
    return InvalidArgumentError("sum modulus must be >= 2");
  }
  if (msg.sum.empty()) {
    return InvalidArgumentError("sum payload must be non-empty");
  }
  SMM_RETURN_IF_ERROR(CheckElementCount(msg.sum.size(), 8, 16));
  std::vector<uint8_t> frame =
      BeginFrame(kWireVersion, MessageType::kSum, 16 + 8 * msg.sum.size());
  AppendU32(frame, msg.num_contributors);
  AppendU32(frame, static_cast<uint32_t>(msg.sum.size()));
  AppendU64(frame, msg.modulus);
  for (uint64_t v : msg.sum) AppendU64(frame, v);
  return FinishFrame(std::move(frame));
}

StatusOr<WireMessage> DecodeFrame(ByteSpan frame) {
  const uint8_t* data = frame.data();
  const size_t size = frame.size();
  if (data == nullptr) return InvalidArgumentError("null frame");
  if (size < kFrameOverheadBytes) {
    return DataLossError("frame truncated: shorter than the overhead");
  }
  for (int i = 0; i < 4; ++i) {
    if (data[i] != kMagic[i]) {
      return InvalidArgumentError("bad frame magic");
    }
  }
  const uint8_t version = data[4];
  if (version != kWireVersion && version != kWireVersionSharded) {
    return InvalidArgumentError("unsupported wire version");
  }
  const uint8_t raw_type = data[5];
  if (data[6] != 0 || data[7] != 0) {
    return InvalidArgumentError("reserved frame bytes must be zero");
  }
  const uint64_t payload_len = LoadU32(data + 8);
  if (payload_len > kMaxPayloadBytes) {
    return InvalidArgumentError("frame payload exceeds the size limit");
  }
  if (size != kFrameOverheadBytes + payload_len) {
    // A short frame lost bytes in transit (kDataLoss); trailing bytes mean
    // the caller mis-framed the input (kInvalidArgument).
    if (size < kFrameOverheadBytes + payload_len) {
      return DataLossError(
          "frame truncated: payload shorter than its length prefix");
    }
    return InvalidArgumentError("frame carries trailing bytes");
  }
  const size_t body = kFrameHeaderBytes + payload_len;
  if (LoadU64(data + body) != Fnv1a64(data, body)) {
    return DataLossError("frame checksum mismatch");
  }
  const uint8_t* payload = data + kFrameHeaderBytes;
  switch (raw_type) {
    case static_cast<uint8_t>(MessageType::kContribution): {
      // Version 2 inserts a 16-byte ShardSpec between the modulus and the
      // values; everything before and after it keeps the version-1 layout.
      const uint64_t fixed =
          version == kWireVersionSharded ? 32 : 16;
      if (payload_len < fixed) {
        return InvalidArgumentError("contribution payload truncated");
      }
      ContributionMsg msg;
      const uint32_t participant = LoadU32(payload);
      const uint64_t count = LoadU32(payload + 4);
      msg.modulus = LoadU64(payload + 8);
      if (participant > static_cast<uint32_t>(
                            std::numeric_limits<int32_t>::max())) {
        return InvalidArgumentError("participant id out of range");
      }
      if (msg.modulus < 2) {
        return InvalidArgumentError("contribution modulus must be >= 2");
      }
      if (count == 0 || payload_len != fixed + 8 * count) {
        return InvalidArgumentError(
            "contribution count disagrees with the payload length");
      }
      if (version == kWireVersionSharded) {
        msg.shard = LoadShardSpec(payload + 16);
        SMM_RETURN_IF_ERROR(CheckShardAgainstPayload(*msg.shard, count));
      }
      msg.participant_id = static_cast<int>(participant);
      msg.payload.resize(count);
      for (uint64_t i = 0; i < count; ++i) {
        msg.payload[i] = LoadU64(payload + fixed + 8 * i);
      }
      return WireMessage(std::move(msg));
    }
    case static_cast<uint8_t>(MessageType::kShares): {
      if (version != kWireVersion) {
        return InvalidArgumentError(
            "shares frames are only defined at wire version 1");
      }
      if (payload_len < 8) {
        return InvalidArgumentError("shares payload truncated");
      }
      SharesMsg msg;
      const uint32_t participant = LoadU32(payload);
      const uint64_t count = LoadU32(payload + 4);
      if (participant > static_cast<uint32_t>(
                            std::numeric_limits<int32_t>::max())) {
        return InvalidArgumentError("participant id out of range");
      }
      if (count == 0 || payload_len != 8 + 16 * count) {
        return InvalidArgumentError(
            "share count disagrees with the payload length");
      }
      msg.participant_id = static_cast<int>(participant);
      msg.shares.resize(count);
      for (uint64_t i = 0; i < count; ++i) {
        msg.shares[i].x = LoadU64(payload + 8 + 16 * i);
        msg.shares[i].y = LoadU64(payload + 16 + 16 * i);
      }
      return WireMessage(std::move(msg));
    }
    case static_cast<uint8_t>(MessageType::kSum): {
      if (version != kWireVersion) {
        return InvalidArgumentError(
            "sum frames are only defined at wire version 1");
      }
      if (payload_len < 16) {
        return InvalidArgumentError("sum payload truncated");
      }
      SumMsg msg;
      msg.num_contributors = LoadU32(payload);
      const uint64_t count = LoadU32(payload + 4);
      msg.modulus = LoadU64(payload + 8);
      if (msg.modulus < 2) {
        return InvalidArgumentError("sum modulus must be >= 2");
      }
      if (count == 0 || payload_len != 16 + 8 * count) {
        return InvalidArgumentError(
            "sum count disagrees with the payload length");
      }
      msg.sum.resize(count);
      for (uint64_t i = 0; i < count; ++i) {
        msg.sum[i] = LoadU64(payload + 16 + 8 * i);
      }
      return WireMessage(std::move(msg));
    }
    default:
      return InvalidArgumentError("unknown frame message type");
  }
}

Status InMemoryTransport::Send(int client_id, std::vector<uint8_t> frame) {
  if (client_id < 0) {
    return InvalidArgumentError("client id must be non-negative");
  }
  std::lock_guard<std::mutex> lock(mu_);
  queues_[client_id].push_back(std::move(frame));
  ++pending_;
  return OkStatus();
}

std::optional<std::vector<uint8_t>> InMemoryTransport::Receive() {
  std::lock_guard<std::mutex> lock(mu_);
  if (queues_.empty()) return std::nullopt;
  const auto it = queues_.begin();
  std::vector<uint8_t> frame = std::move(it->second.front());
  it->second.pop_front();
  if (it->second.empty()) queues_.erase(it);
  --pending_;
  return frame;
}

size_t InMemoryTransport::pending() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pending_;
}

}  // namespace smm::secagg
