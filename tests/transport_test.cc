// Property tests for the secure-aggregation wire format: every message type
// round-trips bit-exactly through its frame, and malformed bytes —
// truncations, flipped bits, oversize length prefixes, trailing garbage,
// unknown versions/types — are rejected with a Status, never UB. These run
// under the ASan/UBSan CI matrix, so any out-of-bounds parse fails loudly.
#include "secagg/transport.h"

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/math_util.h"
#include "common/random.h"

namespace smm::secagg {
namespace {

// FNV-1a wraps by design; the uio CI job instruments this test binary with
// clang's unsigned-integer-overflow sanitizer, so the reference checksum
// carries the shared deliberate-wrap annotation (common/math_util.h).
SMM_NO_SANITIZE_UNSIGNED_WRAP
uint64_t ReferenceFnv1a64(const uint8_t* data, size_t size) {
  uint64_t hash = 14695981039346656037ULL;
  for (size_t i = 0; i < size; ++i) {
    hash = (hash ^ data[i]) * 1099511628211ULL;
  }
  return hash;
}

ContributionMsg MakeContribution(uint64_t seed, size_t dim, uint64_t m) {
  RandomGenerator rng(seed);
  ContributionMsg msg;
  msg.participant_id = static_cast<int>(rng.UniformUint64(1000));
  msg.modulus = m;
  msg.payload.resize(dim);
  for (auto& v : msg.payload) v = rng.UniformUint64(m);
  return msg;
}

/// Rewrites the trailing FNV-1a checksum after a deliberate mutation, so
/// only the structural check under test can reject the frame.
void Rechecksum(std::vector<uint8_t>& frame) {
  const size_t body = frame.size() - kFrameChecksumBytes;
  const uint64_t hash = ReferenceFnv1a64(frame.data(), body);
  for (size_t b = 0; b < 8; ++b) {
    frame[body + b] = static_cast<uint8_t>(hash >> (8 * b));
  }
}

TEST(TransportFrameTest, ContributionRoundTrip) {
  const uint64_t m = 18446744073709551557ULL;  // 2^64 - 59.
  const ContributionMsg msg = MakeContribution(1, 37, m);
  auto frame = EncodeFrame(msg);
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ(frame->size(), kFrameOverheadBytes + 16 + 8 * msg.payload.size());
  auto decoded = DecodeFrame(*frame);
  ASSERT_TRUE(decoded.ok());
  const auto* out = std::get_if<ContributionMsg>(&*decoded);
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(out->participant_id, msg.participant_id);
  EXPECT_EQ(out->modulus, msg.modulus);
  EXPECT_EQ(out->payload, msg.payload);
}

TEST(TransportFrameTest, SharesRoundTrip) {
  SharesMsg msg;
  msg.participant_id = 12;
  RandomGenerator rng(2);
  msg.shares.resize(9);
  for (auto& share : msg.shares) {
    share.x = rng.UniformUint64(kShamirPrime);
    share.y = rng.UniformUint64(kShamirPrime);
  }
  auto frame = EncodeFrame(msg);
  ASSERT_TRUE(frame.ok());
  auto decoded = DecodeFrame(*frame);
  ASSERT_TRUE(decoded.ok());
  const auto* out = std::get_if<SharesMsg>(&*decoded);
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(out->participant_id, msg.participant_id);
  ASSERT_EQ(out->shares.size(), msg.shares.size());
  for (size_t i = 0; i < msg.shares.size(); ++i) {
    EXPECT_EQ(out->shares[i].x, msg.shares[i].x);
    EXPECT_EQ(out->shares[i].y, msg.shares[i].y);
  }
}

TEST(TransportFrameTest, SumRoundTrip) {
  SumMsg msg;
  msg.modulus = 1ULL << 32;
  msg.num_contributors = 4096;
  RandomGenerator rng(3);
  msg.sum.resize(17);
  for (auto& v : msg.sum) v = rng.UniformUint64(msg.modulus);
  auto frame = EncodeFrame(msg);
  ASSERT_TRUE(frame.ok());
  auto decoded = DecodeFrame(*frame);
  ASSERT_TRUE(decoded.ok());
  const auto* out = std::get_if<SumMsg>(&*decoded);
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(out->modulus, msg.modulus);
  EXPECT_EQ(out->num_contributors, msg.num_contributors);
  EXPECT_EQ(out->sum, msg.sum);
}

TEST(TransportFrameTest, EncodeValidates) {
  ContributionMsg bad_id = MakeContribution(4, 3, 1 << 16);
  bad_id.participant_id = -1;
  EXPECT_FALSE(EncodeFrame(bad_id).ok());
  ContributionMsg bad_modulus = MakeContribution(4, 3, 1 << 16);
  bad_modulus.modulus = 1;
  EXPECT_FALSE(EncodeFrame(bad_modulus).ok());
  ContributionMsg empty = MakeContribution(4, 3, 1 << 16);
  empty.payload.clear();
  EXPECT_FALSE(EncodeFrame(empty).ok());
  EXPECT_FALSE(EncodeFrame(SharesMsg{}).ok());
  SumMsg sum;
  sum.modulus = 8;
  EXPECT_FALSE(EncodeFrame(sum).ok());  // Empty payload.
}

TEST(TransportFrameTest, EveryTruncationRejected) {
  const ContributionMsg msg = MakeContribution(5, 11, 1ULL << 40);
  auto frame = EncodeFrame(msg);
  ASSERT_TRUE(frame.ok());
  for (size_t len = 0; len < frame->size(); ++len) {
    auto decoded = DecodeFrame(ByteSpan(frame->data(), len));
    ASSERT_FALSE(decoded.ok()) << "len=" << len;
    // Truncation means bytes vanished in transit: kDataLoss by the status
    // semantics table, so a byte-stream receiver knows to drop the
    // connection instead of just the frame.
    EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss)
        << "len=" << len;
  }
}

TEST(TransportFrameTest, RejectionCodesFollowTheSemanticsTable) {
  auto frame = EncodeFrame(MakeContribution(12, 4, 1 << 16));
  ASSERT_TRUE(frame.ok());
  {
    // Damage in transit -> kDataLoss: a flipped payload byte only the
    // checksum can catch.
    std::vector<uint8_t> corrupt = *frame;
    corrupt[kFrameHeaderBytes] ^= 0x01;
    EXPECT_EQ(DecodeFrame(corrupt).status().code(), StatusCode::kDataLoss);
  }
  {
    // Malformed input -> kInvalidArgument: wrong magic is a peer speaking
    // the wrong protocol, not a damaged frame.
    std::vector<uint8_t> wrong_magic = *frame;
    wrong_magic[0] = 'X';
    EXPECT_EQ(DecodeFrame(wrong_magic).status().code(),
              StatusCode::kInvalidArgument);
  }
  {
    std::vector<uint8_t> padded = *frame;
    padded.push_back(0);
    EXPECT_EQ(DecodeFrame(padded).status().code(),
              StatusCode::kInvalidArgument);
  }
}

TEST(TransportFrameTest, EverySingleByteCorruptionRejected) {
  // Flip one bit in every byte position: magic/version/type/reserved/length
  // corruptions trip the structural checks, payload and checksum
  // corruptions trip the FNV mismatch. No corruption may parse.
  const ContributionMsg msg = MakeContribution(6, 5, 1 << 20);
  auto frame = EncodeFrame(msg);
  ASSERT_TRUE(frame.ok());
  for (size_t pos = 0; pos < frame->size(); ++pos) {
    std::vector<uint8_t> corrupt = *frame;
    corrupt[pos] ^= 0x40;
    EXPECT_FALSE(DecodeFrame(corrupt).ok()) << "pos=" << pos;
  }
}

TEST(TransportFrameTest, TrailingBytesRejected) {
  auto frame = EncodeFrame(MakeContribution(7, 4, 1 << 16));
  ASSERT_TRUE(frame.ok());
  std::vector<uint8_t> padded = *frame;
  padded.push_back(0);
  EXPECT_FALSE(DecodeFrame(padded).ok());
}

TEST(TransportFrameTest, OversizeLengthPrefixRejected) {
  // A corrupt length prefix larger than kMaxPayloadBytes must be rejected
  // before any allocation-sized-by-attacker step, even if the frame were
  // that long.
  auto frame = EncodeFrame(MakeContribution(8, 4, 1 << 16));
  ASSERT_TRUE(frame.ok());
  std::vector<uint8_t> corrupt = *frame;
  corrupt[8] = 0xff;  // payload_len LE bytes -> huge.
  corrupt[9] = 0xff;
  corrupt[10] = 0xff;
  corrupt[11] = 0xff;
  EXPECT_FALSE(DecodeFrame(corrupt).ok());
}

TEST(TransportFrameTest, UnknownVersionAndTypeRejected) {
  auto frame = EncodeFrame(MakeContribution(9, 4, 1 << 16));
  ASSERT_TRUE(frame.ok());
  // Version 1 is the plain wire and 2 the sharded one; 0 and 3 are neither.
  // Re-checksummed, so only the version check can reject the frame.
  for (const uint8_t version : {uint8_t{0}, uint8_t{3}}) {
    std::vector<uint8_t> wrong_version = *frame;
    wrong_version[4] = version;
    Rechecksum(wrong_version);
    EXPECT_EQ(DecodeFrame(wrong_version).status().code(),
              StatusCode::kInvalidArgument)
        << "version=" << int{version};
  }
  // Type 4 was a shard worker's partial sum, a wire type since removed.
  // Re-checksummed, so only the type check can reject the frame.
  for (const uint8_t type : {uint8_t{4}, uint8_t{99}}) {
    std::vector<uint8_t> wrong_type = *frame;
    wrong_type[5] = type;
    Rechecksum(wrong_type);
    EXPECT_EQ(DecodeFrame(wrong_type).status().code(),
              StatusCode::kInvalidArgument)
        << "type=" << int{type};
  }
}

TEST(TransportFrameTest, CountPayloadLengthMismatchRejected) {
  // Re-frame a contribution whose internal count disagrees with the payload
  // length (and fix up the checksum so only the count check can reject it).
  // DecodeFrame must refuse rather than read out of bounds.
  const ContributionMsg msg = MakeContribution(10, 6, 1 << 16);
  auto frame = EncodeFrame(msg);
  ASSERT_TRUE(frame.ok());
  std::vector<uint8_t> corrupt = *frame;
  corrupt[kFrameHeaderBytes + 4] += 1;  // count += 1 (LE low byte).
  // Recompute the checksum the same way the encoder does.
  const size_t body = corrupt.size() - kFrameChecksumBytes;
  const uint64_t hash = ReferenceFnv1a64(corrupt.data(), body);
  for (size_t b = 0; b < 8; ++b) {
    corrupt[body + b] = static_cast<uint8_t>(hash >> (8 * b));
  }
  EXPECT_FALSE(DecodeFrame(corrupt).ok());
}

TEST(TransportFrameTest, RandomGarbageNeverParses) {
  RandomGenerator rng(11);
  for (int trial = 0; trial < 500; ++trial) {
    std::vector<uint8_t> garbage(rng.UniformUint64(96));
    for (auto& b : garbage) {
      b = static_cast<uint8_t>(rng.UniformUint64(256));
    }
    // A random buffer virtually never carries the magic + a valid FNV
    // checksum; what matters is that parsing returns a status instead of
    // reading out of bounds (ASan would catch the latter).
    (void)DecodeFrame(garbage).ok();
  }
  EXPECT_FALSE(DecodeFrame(ByteSpan()).ok());
}

TEST(TransportFrameTest, ShardedContributionRoundTrip) {
  const uint64_t m = 18446744073709551557ULL;  // 2^64 - 59.
  ContributionMsg msg = MakeContribution(13, 5, m);
  msg.shard = ShardSpec{1, 4, 10, 5};
  auto frame = EncodeFrame(msg);
  ASSERT_TRUE(frame.ok());
  // Version-2 fixed part: the v1 16 bytes plus the 16-byte ShardSpec.
  EXPECT_EQ(frame->size(), kFrameOverheadBytes + 32 + 8 * msg.payload.size());
  EXPECT_EQ((*frame)[4], kWireVersionSharded);
  auto decoded = DecodeFrame(*frame);
  ASSERT_TRUE(decoded.ok());
  const auto* out = std::get_if<ContributionMsg>(&*decoded);
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(out->participant_id, msg.participant_id);
  EXPECT_EQ(out->modulus, msg.modulus);
  EXPECT_EQ(out->payload, msg.payload);
  ASSERT_TRUE(out->shard.has_value());
  EXPECT_EQ(*out->shard, *msg.shard);
}

TEST(TransportFrameTest, UnshardedContributionStaysVersionOne) {
  // The shard extension must not move a single byte of the v1 format: an
  // unsharded contribution still encodes at version 1 with the 16-byte
  // fixed part, so pre-shard peers interoperate unchanged.
  auto frame = EncodeFrame(MakeContribution(14, 6, 1 << 20));
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ((*frame)[4], kWireVersion);
  EXPECT_EQ(frame->size(), kFrameOverheadBytes + 16 + 8 * 6);
}

TEST(TransportFrameTest, ShardedEverySingleByteCorruptionRejected) {
  ContributionMsg msg = MakeContribution(17, 4, 1 << 20);
  msg.shard = ShardSpec{0, 2, 0, 4};
  auto frame = EncodeFrame(msg);
  ASSERT_TRUE(frame.ok());
  for (size_t pos = 0; pos < frame->size(); ++pos) {
    std::vector<uint8_t> corrupt = *frame;
    corrupt[pos] ^= 0x40;
    EXPECT_FALSE(DecodeFrame(corrupt).ok()) << "pos=" << pos;
  }
}

TEST(TransportFrameTest, EncodeRejectsMalformedShardSpecs) {
  const uint64_t m = 1 << 16;
  {
    // shard_index >= shard_count.
    ContributionMsg msg = MakeContribution(19, 4, m);
    msg.shard = ShardSpec{2, 2, 0, 4};
    EXPECT_EQ(EncodeFrame(msg).status().code(), StatusCode::kInvalidArgument);
  }
  {
    // shard_dim disagrees with the payload size.
    ContributionMsg msg = MakeContribution(19, 4, m);
    msg.shard = ShardSpec{0, 2, 0, 5};
    EXPECT_EQ(EncodeFrame(msg).status().code(), StatusCode::kInvalidArgument);
  }
  {
    // dim_offset + shard_dim overflows u32.
    ContributionMsg msg = MakeContribution(20, 3, m);
    msg.shard = ShardSpec{0, 1, 0xffffffffu - 1, 3};
    EXPECT_EQ(EncodeFrame(msg).status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(TransportFrameTest, DecodeRejectsMalformedShardSpecOnTheWire) {
  // Craft a correctly-checksummed version-2 frame whose ShardSpec is
  // structurally invalid; only the spec validation can reject it.
  ContributionMsg msg = MakeContribution(21, 4, 1 << 16);
  msg.shard = ShardSpec{1, 4, 4, 4};
  auto frame = EncodeFrame(msg);
  ASSERT_TRUE(frame.ok());
  {
    // shard_index (payload offset 16, LE low byte) raised to shard_count.
    std::vector<uint8_t> corrupt = *frame;
    corrupt[kFrameHeaderBytes + 16] = 4;
    Rechecksum(corrupt);
    EXPECT_EQ(DecodeFrame(corrupt).status().code(),
              StatusCode::kInvalidArgument);
  }
  {
    // shard_dim (payload offset 28) zeroed: empty shards don't exist, and
    // the count/payload-length check would also disagree. shard_dim is 4,
    // so clearing the LE low byte zeroes the whole field.
    std::vector<uint8_t> corrupt = *frame;
    corrupt[kFrameHeaderBytes + 28] = 0;
    Rechecksum(corrupt);
    EXPECT_EQ(DecodeFrame(corrupt).status().code(),
              StatusCode::kInvalidArgument);
  }
  {
    // shard_dim disagreeing with the count field while the payload length
    // still matches the count: the spec/count cross-check must fire.
    std::vector<uint8_t> corrupt = *frame;
    corrupt[kFrameHeaderBytes + 28] = 5;
    Rechecksum(corrupt);
    EXPECT_FALSE(DecodeFrame(corrupt).ok());
  }
}

TEST(TransportFrameTest, VersionGatingRejectsCrossVersionTypes) {
  const uint64_t m = 1 << 16;
  {
    // A version-2 kShares frame does not exist: take a valid v1 shares
    // frame, stamp version 2, re-checksum.
    SharesMsg msg;
    msg.participant_id = 3;
    msg.shares.push_back({1, 2});
    auto frame = EncodeFrame(msg);
    ASSERT_TRUE(frame.ok());
    std::vector<uint8_t> v2 = *frame;
    v2[4] = kWireVersionSharded;
    Rechecksum(v2);
    EXPECT_EQ(DecodeFrame(v2).status().code(), StatusCode::kInvalidArgument);
  }
  {
    // A version-2 kSum frame does not exist either (only the coordinator
    // emits a sum, and it is whole: version 1).
    SumMsg msg;
    msg.modulus = m;
    msg.num_contributors = 2;
    msg.sum = {1, 2, 3};
    auto frame = EncodeFrame(msg);
    ASSERT_TRUE(frame.ok());
    std::vector<uint8_t> v2 = *frame;
    v2[4] = kWireVersionSharded;
    Rechecksum(v2);
    EXPECT_EQ(DecodeFrame(v2).status().code(), StatusCode::kInvalidArgument);
  }
  {
    // A sharded contribution downgraded to version 1 reads as a v1
    // contribution whose count disagrees with the payload length (the spec
    // bytes land where values would be); it must be rejected, not
    // misinterpreted.
    ContributionMsg msg = MakeContribution(23, 4, m);
    msg.shard = ShardSpec{0, 2, 0, 4};
    auto frame = EncodeFrame(msg);
    ASSERT_TRUE(frame.ok());
    std::vector<uint8_t> v1 = *frame;
    v1[4] = kWireVersion;
    Rechecksum(v1);
    EXPECT_FALSE(DecodeFrame(v1).ok());
  }
}

TEST(TransportFrameTest, ValidateShardSpecCoversTheContract) {
  EXPECT_TRUE(ValidateShardSpec(ShardSpec{0, 1, 0, 1}).ok());
  EXPECT_TRUE(ValidateShardSpec(ShardSpec{7, 8, 100, 50}).ok());
  EXPECT_EQ(ValidateShardSpec(ShardSpec{1, 1, 0, 1}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ValidateShardSpec(ShardSpec{0, 0, 0, 1}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ValidateShardSpec(ShardSpec{0, 1, 0, 0}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ValidateShardSpec(ShardSpec{0, 1, 0xffffffffu, 2}).code(),
            StatusCode::kInvalidArgument);
}

TEST(InMemoryTransportTest, DrainsLowestClientFirstFifoWithinClient) {
  InMemoryTransport transport;
  ASSERT_TRUE(transport.Send(3, {3, 0}).ok());
  ASSERT_TRUE(transport.Send(1, {1, 0}).ok());
  ASSERT_TRUE(transport.Send(1, {1, 1}).ok());
  ASSERT_TRUE(transport.Send(2, {2, 0}).ok());
  EXPECT_EQ(transport.pending(), 4u);
  std::vector<std::vector<uint8_t>> drained;
  while (auto frame = transport.Receive()) drained.push_back(*frame);
  EXPECT_EQ(drained, (std::vector<std::vector<uint8_t>>{
                         {1, 0}, {1, 1}, {2, 0}, {3, 0}}));
  EXPECT_EQ(transport.pending(), 0u);
  EXPECT_FALSE(transport.Receive().has_value());
  // Negative client ids are rejected.
  EXPECT_FALSE(transport.Send(-1, {0}).ok());
}

TEST(InMemoryTransportTest, InterleavedSendReceive) {
  InMemoryTransport transport;
  ASSERT_TRUE(transport.Send(5, {5}).ok());
  auto first = transport.Receive();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(*first, (std::vector<uint8_t>{5}));
  // Queue empties are erased; later sends to lower ids still drain first.
  ASSERT_TRUE(transport.Send(7, {7}).ok());
  ASSERT_TRUE(transport.Send(4, {4}).ok());
  EXPECT_EQ(*transport.Receive(), (std::vector<uint8_t>{4}));
  EXPECT_EQ(*transport.Receive(), (std::vector<uint8_t>{7}));
}

}  // namespace
}  // namespace smm::secagg
