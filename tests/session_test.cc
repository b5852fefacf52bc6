// End-to-end tests for the frame-driven aggregation session: the
// client -> ContributionMsg frame -> AggregationSession -> streaming-sum
// path must equal a test-local exact sum of the survivors' plain inputs for
// both provided aggregators, at any thread count and arrival order,
// with dropouts deferred to Finalize; and corrupt or protocol-violating
// frames must be rejected with a Status while the session keeps serving.
#include "secagg/session.h"

#include <algorithm>
#include <cstdlib>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel.h"
#include "common/random.h"
#include "secagg/secure_aggregator.h"
#include "secagg/transport.h"

namespace smm::secagg {
namespace {

/// Thread counts exercised everywhere: the issue's {1, 2, 8} plus the
/// SMM_THREADS override the TSan CI job sets.
std::vector<int> TestThreadCounts() {
  std::vector<int> counts = {1, 2, 8};
  if (const char* env = std::getenv("SMM_THREADS")) {
    const int t = std::atoi(env);
    if (t > 0 && std::find(counts.begin(), counts.end(), t) == counts.end()) {
      counts.push_back(t);
    }
  }
  return counts;
}

std::vector<std::vector<uint64_t>> RandomInputs(int n, size_t dim, uint64_t m,
                                                uint64_t seed) {
  RandomGenerator rng(seed);
  std::vector<std::vector<uint64_t>> inputs(static_cast<size_t>(n));
  for (auto& v : inputs) {
    v.resize(dim);
    for (auto& x : v) x = rng.UniformUint64(m);
  }
  return inputs;
}

/// The reference sum: participants `ids`' plain inputs summed mod m through
/// 128-bit arithmetic, sharing no code with the session or its stream.
std::vector<uint64_t> ExactSum128(
    const std::vector<std::vector<uint64_t>>& inputs,
    const std::vector<int>& ids, uint64_t m) {
  std::vector<uint64_t> sum(inputs[0].size(), 0);
  for (size_t j = 0; j < sum.size(); ++j) {
    unsigned __int128 acc = 0;
    for (int id : ids) acc += inputs[static_cast<size_t>(id)][j];
    sum[j] = static_cast<uint64_t>(acc % m);
  }
  return sum;
}

/// Runs the wire path: prepare each contribution (masking, under the masked
/// protocol), frame it, send it over the loopback transport in `order`, and
/// drain everything through a session. Returns the finalized SumMsg.
StatusOr<SumMsg> RunWireRound(SecureAggregator& aggregator,
                              const std::vector<std::vector<uint64_t>>& inputs,
                              const std::vector<int>& order, uint64_t m,
                              ThreadPool* pool, size_t tile_rows = 1) {
  AggregationSession::Options options;
  options.dim = inputs[0].size();
  options.modulus = m;
  options.pool = pool;
  options.tile_rows = tile_rows;
  SMM_ASSIGN_OR_RETURN(auto session,
                       AggregationSession::Open(aggregator, options));
  InMemoryTransport loopback;
  FrameTransport& transport = loopback;
  for (int participant : order) {
    ContributionMsg msg;
    msg.participant_id = participant;
    msg.modulus = m;
    SMM_ASSIGN_OR_RETURN(
        msg.payload,
        aggregator.PrepareContribution(
            participant, inputs[static_cast<size_t>(participant)], m, pool));
    SMM_ASSIGN_OR_RETURN(auto frame, EncodeFrame(msg));
    SMM_RETURN_IF_ERROR(transport.Send(participant, std::move(frame)));
  }
  SMM_RETURN_IF_ERROR(session->DrainTransport(transport));
  return session->Finalize();
}

TEST(AggregationSessionTest, OpenValidates) {
  IdealAggregator aggregator;
  AggregationSession::Options options;
  options.dim = 0;
  options.modulus = 8;
  EXPECT_FALSE(AggregationSession::Open(aggregator, options).ok());
  options.dim = 4;
  options.modulus = 1;
  EXPECT_FALSE(AggregationSession::Open(aggregator, options).ok());
}

TEST(AggregationSessionTest, IdealMatchesExactSumAtEveryThreadCount) {
  const uint64_t m = 18446744073709551557ULL;  // 2^64 - 59: wrap-prone.
  const auto inputs = RandomInputs(33, 29, m, 4);
  IdealAggregator aggregator;
  std::vector<int> order(inputs.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
  const auto expected = ExactSum128(inputs, order, m);
  for (int threads : TestThreadCounts()) {
    ThreadPool pool(threads);
    auto sum = RunWireRound(aggregator, inputs, order, m, &pool);
    ASSERT_TRUE(sum.ok()) << sum.status().ToString();
    EXPECT_EQ(sum->sum, expected) << threads << " threads";
    EXPECT_EQ(sum->num_contributors, inputs.size());
    EXPECT_EQ(sum->modulus, m);
  }
}

TEST(AggregationSessionTest, TiledSessionsMatchPerFrameSessions) {
  // tile_rows only changes how many fork/joins absorption takes, never the
  // sum: per-frame (1), partial tiles (7 over 33 frames), and one big tile
  // must all finalize bit-identically, at every thread count.
  const uint64_t m = 18446744073709551557ULL;
  const auto inputs = RandomInputs(33, 17, m, 12);
  IdealAggregator aggregator;
  std::vector<int> order(inputs.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
  auto reference = RunWireRound(aggregator, inputs, order, m, nullptr);
  ASSERT_TRUE(reference.ok());
  for (int threads : TestThreadCounts()) {
    ThreadPool pool(threads);
    for (size_t tile_rows : {size_t{1}, size_t{7}, size_t{64}}) {
      auto sum = RunWireRound(aggregator, inputs, order, m, &pool,
                              tile_rows);
      ASSERT_TRUE(sum.ok()) << sum.status().ToString();
      EXPECT_EQ(sum->sum, reference->sum)
          << threads << " threads, tile_rows=" << tile_rows;
      EXPECT_EQ(sum->num_contributors, inputs.size());
    }
  }
}

TEST(AggregationSessionTest, TiledBadTileDroppedAndItsParticipantsCanRetry) {
  // In tile mode a bad contribution (out-of-range participant) is caught by
  // the masked stream's all-or-nothing tile admission: the error surfaces
  // at the flush, the whole pending tile is dropped (counted as rejected),
  // and — because the dropped contributions never landed — the same
  // participants may retry and are NOT swallowed as duplicates.
  MaskedAggregator::Options options;
  options.num_participants = 4;
  options.threshold = 1;
  options.session_seed = 11;
  auto aggregator = MaskedAggregator::Create(options);
  ASSERT_TRUE(aggregator.ok());
  const uint64_t m = 1 << 16;
  AggregationSession::Options session_options;
  session_options.dim = 2;
  session_options.modulus = m;
  session_options.tile_rows = 3;
  auto session = AggregationSession::Open(**aggregator, session_options);
  ASSERT_TRUE(session.ok());
  auto frame_for = [&](int participant) {
    ContributionMsg msg;
    msg.participant_id = participant;
    msg.modulus = m;
    msg.payload =
        (*aggregator)->PrepareContribution(participant, {1, 2}, m).value();
    return EncodeFrame(msg).value();
  };
  ASSERT_TRUE((*session)->HandleFrame(frame_for(0)).ok());
  // A buffered resend is acked first-wins, never double-buffered.
  ASSERT_TRUE((*session)->HandleFrame(frame_for(0)).ok());
  EXPECT_EQ((*session)->contributions(), 1u);
  EXPECT_EQ((*session)->duplicate_frames(), 1u);
  // Participant 7 is out of range for the 4-party round; the frame itself
  // is well-formed so it buffers, and the flush rejects the tile wholesale.
  ContributionMsg bad;
  bad.participant_id = 7;
  bad.modulus = m;
  bad.payload = {9, 9};
  ASSERT_TRUE((*session)->HandleFrame(*EncodeFrame(bad)).ok());
  EXPECT_FALSE((*session)->HandleFrame(frame_for(1)).ok());
  EXPECT_EQ((*session)->rejected_frames(), 3u);
  EXPECT_EQ((*session)->contributions(), 0u);
  // Still serving, and the dropped participants retry successfully: their
  // ids were erased with the tile, so the retries land as fresh frames.
  ASSERT_TRUE((*session)->HandleFrame(frame_for(0)).ok());
  ASSERT_TRUE((*session)->HandleFrame(frame_for(1)).ok());
  ASSERT_TRUE((*session)->HandleFrame(frame_for(2)).ok());
  auto sum = (*session)->Finalize();
  ASSERT_TRUE(sum.ok()) << sum.status().ToString();
  EXPECT_EQ(sum->num_contributors, 3u);
  // Dropout recovery removed participant 3's leftover masks.
  EXPECT_EQ(sum->sum, (std::vector<uint64_t>{3, 6}));
}

TEST(AggregationSessionTest, MaskedMatchesExactSumInShuffledArrivalOrder) {
  const int n = 9;
  MaskedAggregator::Options options;
  options.num_participants = n;
  options.threshold = 4;
  options.session_seed = 21;
  auto aggregator = MaskedAggregator::Create(options);
  ASSERT_TRUE(aggregator.ok());
  const uint64_t m = 1ULL << 32;
  const auto inputs = RandomInputs(n, 13, m, 5);
  // Contributions arrive in an adversarial order; masking still cancels.
  std::vector<int> order = {7, 2, 8, 0, 5, 1, 6, 3, 4};
  const auto expected = ExactSum128(inputs, order, m);
  for (int threads : TestThreadCounts()) {
    ThreadPool pool(threads);
    auto sum = RunWireRound(**aggregator, inputs, order, m, &pool);
    ASSERT_TRUE(sum.ok()) << sum.status().ToString();
    EXPECT_EQ(sum->sum, expected) << threads << " threads";
  }
}

TEST(AggregationSessionTest, MaskedDropoutsRecoveredAtFinalize) {
  const int n = 8;
  MaskedAggregator::Options options;
  options.num_participants = n;
  options.threshold = 4;
  options.session_seed = 33;
  auto aggregator = MaskedAggregator::Create(options);
  ASSERT_TRUE(aggregator.ok());
  const uint64_t m = 1 << 16;
  const auto inputs = RandomInputs(n, 11, m, 6);
  // Participants 2 and 6 never send a frame; the session must remove the
  // masks they share with survivors, leaving the survivors' plain sum.
  const std::vector<int> survivors = {0, 1, 3, 4, 5, 7};
  auto sum = RunWireRound(**aggregator, inputs, survivors, m, nullptr);
  ASSERT_TRUE(sum.ok()) << sum.status().ToString();
  EXPECT_EQ(sum->sum, ExactSum128(inputs, survivors, m));
  EXPECT_EQ(sum->num_contributors, survivors.size());
}

TEST(AggregationSessionTest, CorruptFramesRejectedWithoutPoisoningSession) {
  IdealAggregator aggregator;
  AggregationSession::Options options;
  options.dim = 4;
  options.modulus = 1 << 16;
  auto session = AggregationSession::Open(aggregator, options);
  ASSERT_TRUE(session.ok());

  ContributionMsg msg;
  msg.participant_id = 0;
  msg.modulus = 1 << 16;
  msg.payload = {1, 2, 3, 4};
  auto good = EncodeFrame(msg);
  ASSERT_TRUE(good.ok());

  // Malformed bytes, a truncation, and a corruption: all status-rejected.
  const std::vector<uint8_t> junk = {0xde, 0xad, 0xbe, 0xef};
  EXPECT_FALSE((*session)->HandleFrame(junk).ok());
  EXPECT_FALSE(
      (*session)->HandleFrame(ByteSpan(good->data(), good->size() - 3)).ok());
  std::vector<uint8_t> corrupt = *good;
  corrupt[kFrameHeaderBytes] ^= 1;
  EXPECT_FALSE((*session)->HandleFrame(corrupt).ok());
  // Wrong modulus and wrong dimension are protocol violations.
  ContributionMsg wrong_m = msg;
  wrong_m.modulus = 1 << 12;
  EXPECT_FALSE((*session)->HandleFrame(*EncodeFrame(wrong_m)).ok());
  ContributionMsg wrong_dim = msg;
  wrong_dim.payload = {1, 2};
  EXPECT_FALSE((*session)->HandleFrame(*EncodeFrame(wrong_dim)).ok());
  // A received SumMsg is server-outbound only.
  SumMsg sum_msg;
  sum_msg.modulus = 1 << 16;
  sum_msg.sum = {1, 2, 3, 4};
  EXPECT_FALSE((*session)->HandleFrame(*EncodeFrame(sum_msg)).ok());
  EXPECT_EQ((*session)->rejected_frames(), 6u);
  EXPECT_EQ((*session)->contributions(), 0u);

  // The session keeps serving: the good frame still lands, a resend of it
  // is acked first-wins, and the sum is exactly that one contribution.
  ASSERT_TRUE((*session)->HandleFrame(*good).ok());
  ASSERT_TRUE((*session)->HandleFrame(*EncodeFrame(msg)).ok());
  EXPECT_EQ((*session)->duplicate_frames(), 1u);
  auto sum = (*session)->Finalize();
  ASSERT_TRUE(sum.ok());
  EXPECT_EQ(sum->sum, (std::vector<uint64_t>{1, 2, 3, 4}));
  EXPECT_EQ(sum->num_contributors, 1u);
}

TEST(AggregationSessionTest, DuplicateMaskedParticipantAckedFirstWins) {
  MaskedAggregator::Options options;
  options.num_participants = 4;
  options.threshold = 2;
  options.session_seed = 9;
  auto aggregator = MaskedAggregator::Create(options);
  ASSERT_TRUE(aggregator.ok());
  const uint64_t m = 1 << 16;
  AggregationSession::Options session_options;
  session_options.dim = 3;
  session_options.modulus = m;
  auto session = AggregationSession::Open(**aggregator, session_options);
  ASSERT_TRUE(session.ok());
  auto frame_for = [&](int participant, std::vector<uint64_t> input) {
    ContributionMsg msg;
    msg.participant_id = participant;
    msg.modulus = m;
    msg.payload =
        (*aggregator)->PrepareContribution(participant, input, m).value();
    return EncodeFrame(msg).value();
  };
  const auto frame = frame_for(1, {5, 6, 7});
  ASSERT_TRUE((*session)->HandleFrame(frame).ok());
  // Replaying the same frame is a retry after a lost ack: acknowledged OK,
  // counted as a duplicate, and the first absorption stands — exactly-once
  // accounting regardless of how many times the client resends.
  EXPECT_TRUE((*session)->HandleFrame(frame).ok());
  EXPECT_TRUE((*session)->HandleFrame(frame).ok());
  EXPECT_EQ((*session)->contributions(), 1u);
  EXPECT_EQ((*session)->rejected_frames(), 0u);
  EXPECT_EQ((*session)->duplicate_frames(), 2u);
  // The sum is the two distinct contributions, counted exactly once each.
  ASSERT_TRUE((*session)->HandleFrame(frame_for(2, {1, 2, 3})).ok());
  auto sum = (*session)->Finalize();
  ASSERT_TRUE(sum.ok()) << sum.status().ToString();
  EXPECT_EQ(sum->num_contributors, 2u);
  EXPECT_EQ(sum->sum, (std::vector<uint64_t>{6, 8, 10}));
}

TEST(AggregationSessionTest, SharesFramesAcknowledged) {
  IdealAggregator aggregator;
  AggregationSession::Options options;
  options.dim = 2;
  options.modulus = 64;
  auto session = AggregationSession::Open(aggregator, options);
  ASSERT_TRUE(session.ok());
  SharesMsg shares;
  shares.participant_id = 3;
  shares.shares = {{1, 17}, {2, 29}};
  auto frame = EncodeFrame(shares);
  ASSERT_TRUE(frame.ok());
  EXPECT_TRUE((*session)->HandleFrame(*frame).ok());
  EXPECT_EQ((*session)->shares_received(), 1u);
  EXPECT_EQ((*session)->contributions(), 0u);
}

TEST(AggregationSessionTest, DrainTransportStopsAtFirstBadFrame) {
  IdealAggregator aggregator;
  AggregationSession::Options options;
  options.dim = 2;
  options.modulus = 64;
  auto session = AggregationSession::Open(aggregator, options);
  ASSERT_TRUE(session.ok());
  InMemoryTransport loopback;
  FrameTransport& transport = loopback;
  ContributionMsg msg;
  msg.modulus = 64;
  msg.payload = {1, 2};
  msg.participant_id = 0;
  ASSERT_TRUE(transport.Send(0, *EncodeFrame(msg)).ok());
  ASSERT_TRUE(transport.Send(1, {1, 2, 3}).ok());  // Garbage frame.
  msg.participant_id = 2;
  ASSERT_TRUE(transport.Send(2, *EncodeFrame(msg)).ok());
  EXPECT_FALSE((*session)->DrainTransport(transport).ok());
  // The bad frame was consumed and counted; the frame behind it is still
  // queued, and a second drain delivers it.
  EXPECT_EQ(transport.pending(), 1u);
  EXPECT_TRUE((*session)->DrainTransport(transport).ok());
  EXPECT_EQ((*session)->contributions(), 2u);
}

TEST(AggregationSessionTest, DrainAcceptsConcreteTransportViaInterface) {
  // The deprecated InMemoryTransport& forwarder is gone; a concrete
  // transport binds to the FrameTransport interface overload directly and
  // behaves identically.
  IdealAggregator aggregator;
  AggregationSession::Options options;
  options.dim = 2;
  options.modulus = 64;
  auto session = AggregationSession::Open(aggregator, options);
  ASSERT_TRUE(session.ok());
  InMemoryTransport transport;
  ContributionMsg msg;
  msg.modulus = 64;
  msg.payload = {3, 4};
  msg.participant_id = 0;
  ASSERT_TRUE(transport.Send(0, *EncodeFrame(msg)).ok());
  EXPECT_TRUE((*session)->DrainTransport(transport).ok());
  EXPECT_EQ((*session)->contributions(), 1u);
}

TEST(AggregationSessionTest, FinalizeBelowQuorumFailsAndSessionStaysOpen) {
  IdealAggregator aggregator;
  AggregationSession::Options options;
  options.dim = 2;
  options.modulus = 64;
  options.min_contributions = 2;
  auto session = AggregationSession::Open(aggregator, options);
  ASSERT_TRUE(session.ok());
  ContributionMsg msg;
  msg.modulus = 64;
  msg.payload = {1, 2};
  msg.participant_id = 0;
  ASSERT_TRUE((*session)->HandleFrame(*EncodeFrame(msg)).ok());
  // One of two required contributions: Finalize refuses, without consuming
  // the session.
  auto under = (*session)->Finalize();
  ASSERT_FALSE(under.ok());
  EXPECT_EQ(under.status().code(), StatusCode::kFailedPrecondition);
  // The quorum-filling contribution still lands and the round completes.
  msg.participant_id = 1;
  msg.payload = {10, 20};
  ASSERT_TRUE((*session)->HandleFrame(*EncodeFrame(msg)).ok());
  auto sum = (*session)->Finalize();
  ASSERT_TRUE(sum.ok()) << sum.status().ToString();
  EXPECT_EQ(sum->num_contributors, 2u);
  EXPECT_EQ(sum->sum, (std::vector<uint64_t>{11, 22}));
}

}  // namespace
}  // namespace smm::secagg
