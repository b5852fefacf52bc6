// Sharded-round correctness pins: a round split across K shard workers and
// merged by the coordinator must be bit-identical to the unsharded
// AggregationSession for every shard count, thread count, arrival order,
// dropout pattern, and modulus (including the wrap-prone prime 2^64 - 59),
// whether contributions arrive as frames (also through duplicate and
// reorder faults) or in process (AddContribution); the K = 1 path must be
// byte-identical on the wire; MergeShardSums must reject sums that disagree
// with the plan; and a broken transport must fail the drain.
#include "secagg/sharded_coordinator.h"

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/math_util.h"
#include "common/parallel.h"
#include "common/random.h"
#include "secagg/fault_injection.h"
#include "secagg/secure_aggregator.h"
#include "secagg/session.h"
#include "secagg/shard_plan.h"
#include "secagg/transport.h"

namespace smm::secagg {
namespace {

constexpr uint64_t kPrime64 = 18446744073709551557ULL;  // 2^64 - 59.

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

/// Exact per-coordinate modular sum of `senders`' inputs — the ground truth
/// every protocol path must reproduce bit for bit.
std::vector<uint64_t> PlainSum(const std::vector<std::vector<uint64_t>>& inputs,
                               const std::vector<int>& senders, uint64_t m) {
  std::vector<uint64_t> sum(inputs[0].size(), 0);
  for (const int p : senders) {
    const auto& v = inputs[static_cast<size_t>(p)];
    for (size_t j = 0; j < sum.size(); ++j) {
      sum[j] = AddMod(sum[j], v[j] % m, m);
    }
  }
  return sum;
}

/// The frame trailer's FNV-1a 64, for re-checksumming a retagged frame.
/// The multiply wraps by design, hence the annotation for the
/// unsigned-overflow sanitizer.
SMM_NO_SANITIZE_UNSIGNED_WRAP
uint64_t TestFnv1a64(const uint8_t* data, size_t size) {
  uint64_t hash = 14695981039346656037ULL;
  for (size_t i = 0; i < size; ++i) {
    hash = (hash ^ data[i]) * 1099511628211ULL;
  }
  return hash;
}

/// One full sharded round over the loopback transport: the `senders` encode
/// sharded contributions, every sub-frame is delivered in a deterministic
/// shuffle of (sender, shard) order, and the coordinator merge returns the
/// round SumMsg. With `chaos` set the frames pass through a
/// FaultInjectingTransport on that schedule, whose counts land in
/// `chaos_stats`.
StatusOr<SumMsg> RunShardedRound(
    SecureAggregator& aggregator,
    const std::vector<std::vector<uint64_t>>& inputs,
    const std::vector<int>& senders, size_t shard_count, uint64_t m,
    ThreadPool* pool, uint64_t shuffle_seed,
    const FaultSchedule* chaos = nullptr, FaultStats* chaos_stats = nullptr) {
  ShardedCoordinator::Options options;
  options.dim = inputs[0].size();
  options.modulus = m;
  options.shard_count = shard_count;
  options.pool = pool;
  options.tile_rows = 4;
  SMM_ASSIGN_OR_RETURN(auto round,
                       ShardedCoordinator::Open(aggregator, options));

  std::vector<std::vector<uint8_t>> frames;
  for (const int p : senders) {
    SMM_ASSIGN_OR_RETURN(
        auto sub_frames,
        round->EncodeShardedContribution(p, inputs[static_cast<size_t>(p)]));
    for (auto& frame : sub_frames) frames.push_back(std::move(frame));
  }
  // Deterministic Fisher-Yates shuffle: arrivals interleave across
  // participants and shards.
  RandomGenerator rng(shuffle_seed);
  for (size_t i = frames.size(); i > 1; --i) {
    std::swap(frames[i - 1],
              frames[static_cast<size_t>(rng.UniformUint64(i))]);
  }
  InMemoryTransport loopback;
  std::optional<FaultInjectingTransport> chaotic;
  if (chaos != nullptr) chaotic.emplace(loopback, *chaos);
  FrameTransport& transport =
      chaotic.has_value() ? static_cast<FrameTransport&>(*chaotic) : loopback;
  // One client queue, so the drain order is the send order and a reorder
  // fault really swaps two arrivals.
  for (auto& frame : frames) {
    SMM_RETURN_IF_ERROR(transport.Send(/*client_id=*/0, std::move(frame)));
  }
  SMM_RETURN_IF_ERROR(transport.FinishSending());
  SMM_RETURN_IF_ERROR(round->DrainTransport(transport));
  if (chaotic.has_value() && chaos_stats != nullptr) {
    *chaos_stats = chaotic->stats();
  }
  return round->Finalize();
}

/// The same round in process: the `senders` hand their vectors straight to
/// the coordinator (AddContribution), no frames.
StatusOr<SumMsg> RunInProcessRound(
    SecureAggregator& aggregator,
    const std::vector<std::vector<uint64_t>>& inputs,
    const std::vector<int>& senders, size_t shard_count, uint64_t m,
    ThreadPool* pool) {
  ShardedCoordinator::Options options;
  options.dim = inputs[0].size();
  options.modulus = m;
  options.shard_count = shard_count;
  options.pool = pool;
  options.tile_rows = 4;
  SMM_ASSIGN_OR_RETURN(auto round,
                       ShardedCoordinator::Open(aggregator, options));
  for (const int p : senders) {
    SMM_RETURN_IF_ERROR(
        round->AddContribution(p, inputs[static_cast<size_t>(p)]));
  }
  return round->Finalize();
}

/// The unsharded reference: the pre-shard frame -> session -> stream path.
StatusOr<SumMsg> RunUnshardedRound(
    SecureAggregator& aggregator,
    const std::vector<std::vector<uint64_t>>& inputs,
    const std::vector<int>& senders, uint64_t m, ThreadPool* pool) {
  AggregationSession::Options options;
  options.dim = inputs[0].size();
  options.modulus = m;
  options.pool = pool;
  SMM_ASSIGN_OR_RETURN(auto session,
                       AggregationSession::Open(aggregator, options));
  for (const int p : senders) {
    SMM_ASSIGN_OR_RETURN(
        auto payload,
        aggregator.PrepareContribution(p, inputs[static_cast<size_t>(p)], m,
                                       pool));
    ContributionMsg msg;
    msg.participant_id = p;
    msg.modulus = m;
    msg.payload = std::move(payload);
    SMM_ASSIGN_OR_RETURN(auto frame, EncodeFrame(msg));
    SMM_RETURN_IF_ERROR(session->HandleFrame(frame));
  }
  return session->Finalize();
}

StatusOr<std::unique_ptr<MaskedAggregator>> MakeMasked(int participants,
                                                       int threshold,
                                                       uint64_t seed) {
  MaskedAggregator::Options options;
  options.num_participants = participants;
  options.threshold = threshold;
  options.session_seed = seed;
  return MaskedAggregator::Create(options);
}

// The acceptance property: K in {1, 2, 3, 8} x threads {1, 2, 8} x shuffled
// arrivals x dropouts x moduli including 2^64 - 59, sharded == unsharded
// bit for bit, for both provided aggregators; the framed round through
// duplicate and reorder faults == the unsharded round (first-wins dedup and
// commutative modular addition absorb both exactly); and the in-process
// AddContribution round == the framed round. dim = 53 is divisible by none
// of 2, 3, 8, so every K > 1 point also exercises the uneven ceil/floor
// width split.
TEST(ShardedCoordinatorTest, ShardedBitIdenticalToUnsharded) {
  constexpr int kParticipants = 10;
  constexpr size_t kDim = 53;
  for (const uint64_t m : {uint64_t{1} << 16, kPrime64}) {
    const auto inputs = RandomInputs(kParticipants, kDim, m, /*seed=*/m % 97);
    // The last two participants drop out: they never send any sub-frame,
    // and the masked protocol recovers their leftover masks at Finalize.
    std::vector<int> senders;
    for (int p = 0; p < kParticipants - 2; ++p) senders.push_back(p);
    const std::vector<uint64_t> expected = PlainSum(inputs, senders, m);

    auto masked = MakeMasked(kParticipants, /*threshold=*/5, /*seed=*/m % 89);
    ASSERT_TRUE(masked.ok());
    IdealAggregator ideal;
    SecureAggregator* const aggregators[] = {&ideal, masked->get()};
    for (SecureAggregator* aggregator : aggregators) {
      auto reference =
          RunUnshardedRound(*aggregator, inputs, senders, m, nullptr);
      ASSERT_TRUE(reference.ok()) << reference.status().ToString();
      ASSERT_EQ(reference->sum, expected);
      for (const size_t shards : {1u, 2u, 3u, 8u}) {
        for (const int threads : TestThreadCounts()) {
          ThreadPool pool(threads);
          auto sharded = RunShardedRound(*aggregator, inputs, senders,
                                         shards, m, &pool,
                                         /*shuffle_seed=*/shards * 31 +
                                             static_cast<uint64_t>(threads));
          ASSERT_TRUE(sharded.ok())
              << "m=" << m << " shards=" << shards << " threads=" << threads
              << ": " << sharded.status().ToString();
          EXPECT_EQ(sharded->sum, reference->sum)
              << "m=" << m << " shards=" << shards
              << " threads=" << threads;
          EXPECT_EQ(sharded->num_contributors, reference->num_contributors);
          EXPECT_EQ(sharded->modulus, m);

          // The schedule depends only on (m, K), so every one of them runs
          // whatever thread counts do. Each of these eight seeds duplicates
          // and reorders at least one of its round's 8K frames, asserted
          // below, so no point passes vacuously.
          FaultSchedule chaos;
          chaos.duplicate = 0.10;
          chaos.reorder = 0.10;
          chaos.seed = 21 * shards + m % 1009;
          FaultStats chaos_stats;
          auto chaotic = RunShardedRound(*aggregator, inputs, senders,
                                         shards, m, &pool,
                                         /*shuffle_seed=*/shards * 31 +
                                             static_cast<uint64_t>(threads),
                                         &chaos, &chaos_stats);
          ASSERT_TRUE(chaotic.ok())
              << "m=" << m << " shards=" << shards << " threads=" << threads
              << ": " << chaotic.status().ToString();
          EXPECT_EQ(chaotic->sum, reference->sum)
              << "chaos m=" << m << " shards=" << shards
              << " threads=" << threads;
          EXPECT_EQ(chaotic->num_contributors, reference->num_contributors);
          EXPECT_GE(chaos_stats.duplicated, 1u)
              << "m=" << m << " shards=" << shards;
          EXPECT_GE(chaos_stats.reordered, 1u)
              << "m=" << m << " shards=" << shards;

          auto in_process = RunInProcessRound(*aggregator, inputs, senders,
                                              shards, m, &pool);
          ASSERT_TRUE(in_process.ok()) << in_process.status().ToString();
          EXPECT_EQ(in_process->sum, sharded->sum)
              << "m=" << m << " shards=" << shards
              << " threads=" << threads;
          EXPECT_EQ(in_process->num_contributors, sharded->num_contributors);
          EXPECT_EQ(in_process->modulus, sharded->modulus);
        }
      }
    }
  }
}

// K = 1 is the pre-shard pipeline byte for byte: the coordinator's encoded
// frames are identical to manual version-1 EncodeFrame output, and the
// round result equals the plain session's.
TEST(ShardedCoordinatorTest, SingleShardFramesByteIdenticalToUnsharded) {
  constexpr uint64_t kModulus = uint64_t{1} << 32;
  constexpr size_t kDim = 24;
  auto masked = MakeMasked(4, /*threshold=*/2, /*seed=*/55);
  ASSERT_TRUE(masked.ok());
  const auto inputs = RandomInputs(4, kDim, kModulus, 7);

  ShardedCoordinator::Options options;
  options.dim = kDim;
  options.modulus = kModulus;
  options.shard_count = 1;
  auto round = ShardedCoordinator::Open(**masked, options);
  ASSERT_TRUE(round.ok());
  for (int p = 0; p < 4; ++p) {
    auto frames = (*round)->EncodeShardedContribution(
        p, inputs[static_cast<size_t>(p)]);
    ASSERT_TRUE(frames.ok());
    ASSERT_EQ(frames->size(), 1u);

    ContributionMsg msg;
    msg.participant_id = p;
    msg.modulus = kModulus;
    auto payload = (*masked)->PrepareContribution(
        p, inputs[static_cast<size_t>(p)], kModulus);
    ASSERT_TRUE(payload.ok());
    msg.payload = std::move(*payload);
    auto manual = EncodeFrame(msg);
    ASSERT_TRUE(manual.ok());
    EXPECT_EQ((*frames)[0], *manual) << "participant " << p;
    ASSERT_TRUE((*round)->HandleFrame((*frames)[0]).ok());
  }
  auto sum = (*round)->Finalize();
  ASSERT_TRUE(sum.ok());
  std::vector<int> all = {0, 1, 2, 3};
  EXPECT_EQ(sum->sum, PlainSum(inputs, all, kModulus));
  EXPECT_EQ(sum->num_contributors, 4u);
}

TEST(ShardedCoordinatorTest, RejectsMoreShardsThanDimensions) {
  IdealAggregator aggregator;
  ShardedCoordinator::Options options;
  options.dim = 4;
  options.modulus = 97;
  options.shard_count = 5;
  EXPECT_EQ(ShardedCoordinator::Open(aggregator, options).status().code(),
            StatusCode::kInvalidArgument);
}

// Each shard worker recovers its own dropouts locally: shards may end up
// with different survivor sets (a participant's sub-frame reached one
// worker but not another), and each range's sum covers exactly the
// participants that worker saw.
TEST(ShardedCoordinatorTest, PerShardDropoutRecoveryWithDifferentSurvivors) {
  constexpr uint64_t kModulus = uint64_t{1} << 16;
  constexpr size_t kDim = 10;  // Shards own [0, 5) and [5, 10).
  constexpr int kParticipants = 6;
  auto masked = MakeMasked(kParticipants, /*threshold=*/3, /*seed=*/91);
  ASSERT_TRUE(masked.ok());
  const auto inputs = RandomInputs(kParticipants, kDim, kModulus, 13);

  ShardedCoordinator::Options options;
  options.dim = kDim;
  options.modulus = kModulus;
  options.shard_count = 2;
  auto round = ShardedCoordinator::Open(**masked, options);
  ASSERT_TRUE(round.ok());

  // Shard 0 hears from {0, 1, 2, 3}; shard 1 from {0, 1, 4, 5}. Encode
  // every participant's sub-frames, deliver only the selected ones.
  const std::vector<int> shard0 = {0, 1, 2, 3};
  const std::vector<int> shard1 = {0, 1, 4, 5};
  for (int p = 0; p < kParticipants; ++p) {
    auto frames = (*round)->EncodeShardedContribution(
        p, inputs[static_cast<size_t>(p)]);
    ASSERT_TRUE(frames.ok());
    ASSERT_EQ(frames->size(), 2u);
    if (std::count(shard0.begin(), shard0.end(), p) != 0) {
      ASSERT_TRUE((*round)->HandleFrame((*frames)[0]).ok());
    }
    if (std::count(shard1.begin(), shard1.end(), p) != 0) {
      ASSERT_TRUE((*round)->HandleFrame((*frames)[1]).ok());
    }
  }
  auto sum = (*round)->Finalize();
  ASSERT_TRUE(sum.ok()) << sum.status().ToString();

  // Each range equals the plain sum over exactly its own survivor set.
  const std::vector<uint64_t> front = PlainSum(inputs, shard0, kModulus);
  const std::vector<uint64_t> back = PlainSum(inputs, shard1, kModulus);
  for (size_t j = 0; j < 5; ++j) {
    EXPECT_EQ(sum->sum[j], front[j]) << "coordinate " << j;
    EXPECT_EQ(sum->sum[5 + j], back[5 + j]) << "coordinate " << (5 + j);
  }
  EXPECT_EQ(sum->num_contributors, 4u);  // max over the two ranges.
}

TEST(ShardedCoordinatorTest, RoutingRejectsMismatchedFrames) {
  constexpr uint64_t kModulus = 257;
  IdealAggregator aggregator;

  // An unsharded (version-1) contribution sent to a sharded round.
  ShardedCoordinator::Options sharded_options;
  sharded_options.dim = 8;
  sharded_options.modulus = kModulus;
  sharded_options.shard_count = 2;
  auto sharded = ShardedCoordinator::Open(aggregator, sharded_options);
  ASSERT_TRUE(sharded.ok());
  ContributionMsg plain;
  plain.participant_id = 0;
  plain.modulus = kModulus;
  plain.payload.assign(8, 1);
  auto plain_frame = EncodeFrame(plain);
  ASSERT_TRUE(plain_frame.ok());
  EXPECT_EQ((*sharded)->HandleFrame(*plain_frame).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ((*sharded)->rejected_frames(), 1u);

  // A sharded sub-frame sent to a single-shard round.
  ShardedCoordinator::Options single_options;
  single_options.dim = 4;
  single_options.modulus = kModulus;
  single_options.shard_count = 1;
  auto single = ShardedCoordinator::Open(aggregator, single_options);
  ASSERT_TRUE(single.ok());
  ContributionMsg sliced;
  sliced.participant_id = 0;
  sliced.modulus = kModulus;
  sliced.payload.assign(4, 1);
  sliced.shard = ShardSpec{0, 2, 0, 4};
  auto sliced_frame = EncodeFrame(sliced);
  ASSERT_TRUE(sliced_frame.ok());
  EXPECT_EQ((*single)->HandleFrame(*sliced_frame).code(),
            StatusCode::kInvalidArgument);

  // A spec whose shard_index addresses a worker the round does not have
  // (well-formed on the wire: index 3 < count 4, but the round has 2).
  ContributionMsg foreign;
  foreign.participant_id = 1;
  foreign.modulus = kModulus;
  foreign.payload.assign(2, 1);
  foreign.shard = ShardSpec{3, 4, 6, 2};
  auto foreign_frame = EncodeFrame(foreign);
  ASSERT_TRUE(foreign_frame.ok());
  EXPECT_EQ((*sharded)->HandleFrame(*foreign_frame).code(),
            StatusCode::kInvalidArgument);
}

// Only contributions and shares travel into a coordinator: sum frames and
// frames of an unknown type are rejected, counted, and leave the round
// intact.
TEST(ShardedCoordinatorTest, RejectsSumAndPartialSumFrames) {
  constexpr uint64_t kModulus = 257;
  IdealAggregator aggregator;
  ShardedCoordinator::Options options;
  options.dim = 4;
  options.modulus = kModulus;
  options.shard_count = 2;
  auto round = ShardedCoordinator::Open(aggregator, options);
  ASSERT_TRUE(round.ok());

  // Type 4 was the shard-worker partial sum, which the wire format no
  // longer has. Its layout matched a sharded contribution's, so retagging
  // one and re-checksumming it yields exactly such a frame.
  ContributionMsg contribution;
  contribution.participant_id = 1;
  contribution.modulus = kModulus;
  contribution.payload = {1, 2};
  contribution.shard = ShardSpec{0, 2, 0, 2};
  auto partial = EncodeFrame(contribution);
  ASSERT_TRUE(partial.ok());
  (*partial)[5] = 4;
  const size_t body = partial->size() - kFrameChecksumBytes;
  const uint64_t checksum = TestFnv1a64(partial->data(), body);
  for (size_t b = 0; b < kFrameChecksumBytes; ++b) {
    (*partial)[body + b] = static_cast<uint8_t>(checksum >> (8 * b));
  }
  EXPECT_EQ((*round)->HandleFrame(*partial).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ((*round)->rejected_frames(), 1u);

  SumMsg sum;
  sum.modulus = kModulus;
  sum.num_contributors = 1;
  sum.sum = {1, 2, 3, 4};
  auto sum_frame = EncodeFrame(sum);
  ASSERT_TRUE(sum_frame.ok());
  EXPECT_EQ((*round)->HandleFrame(*sum_frame).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ((*round)->rejected_frames(), 2u);

  // The round still sums what it is sent, untouched by the rejections.
  ASSERT_TRUE((*round)->AddContribution(0, {5, 6, 7, 8}).ok());
  auto merged = (*round)->Finalize();
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_EQ(merged->sum, (std::vector<uint64_t>{5, 6, 7, 8}));
  EXPECT_EQ(merged->num_contributors, 1u);
}

/// Forwards to an InMemoryTransport, but reports the channel broken once
/// drained — a socket whose peer died mid-frame.
class BrokenTransport final : public FrameTransport {
 public:
  Status Send(int client_id, std::vector<uint8_t> frame) override {
    return inner_.Send(client_id, std::move(frame));
  }
  std::optional<std::vector<uint8_t>> Receive() override {
    return inner_.Receive();
  }
  size_t pending() const override { return inner_.pending(); }
  Status receive_status() const override {
    return DataLossError("peer closed mid-frame");
  }

 private:
  InMemoryTransport inner_;
};

// A drain that ends because the channel broke is not a clean drain: the
// frames that did arrive are absorbed, and the drain reports kDataLoss
// instead of letting the round finalize as if nothing were lost.
TEST(ShardedCoordinatorTest, DrainTransportReportsBrokenChannel) {
  constexpr uint64_t kModulus = 1000;
  IdealAggregator aggregator;
  for (const size_t shards : {1u, 2u}) {
    ShardedCoordinator::Options options;
    options.dim = 4;
    options.modulus = kModulus;
    options.shard_count = shards;
    auto round = ShardedCoordinator::Open(aggregator, options);
    ASSERT_TRUE(round.ok());
    auto frames = (*round)->EncodeShardedContribution(0, {1, 2, 3, 4});
    ASSERT_TRUE(frames.ok());
    BrokenTransport transport;
    for (auto& frame : *frames) {
      ASSERT_TRUE(transport.Send(0, std::move(frame)).ok());
    }
    EXPECT_EQ((*round)->DrainTransport(transport).code(),
              StatusCode::kDataLoss)
        << "shards=" << shards;
    EXPECT_EQ(transport.pending(), 0u);
    EXPECT_EQ((*round)->contributions(), shards);
  }
}

SumMsg ShardSum(uint64_t modulus, uint32_t contributors,
                std::vector<uint64_t> values) {
  SumMsg sum;
  sum.modulus = modulus;
  sum.num_contributors = contributors;
  sum.sum = std::move(values);
  return sum;
}

TEST(MergeShardSumsTest, ConcatenatesInShardOrderWithMaxContributors) {
  auto plan = ShardPlan::Create(5, 2);  // Widths 3 and 2.
  ASSERT_TRUE(plan.ok());
  auto merged = MergeShardSums(
      *plan, {ShardSum(kPrime64, 4, {kPrime64 - 1, 0, 7}),
              ShardSum(kPrime64, 6, {11, 13})});
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_EQ(merged->sum,
            (std::vector<uint64_t>{kPrime64 - 1, 0, 7, 11, 13}));
  EXPECT_EQ(merged->modulus, kPrime64);
  // Shards that saw different survivor sets: the maximum, not the sum.
  EXPECT_EQ(merged->num_contributors, 6u);
}

TEST(MergeShardSumsTest, SingleShardReturnsItsSumUnchanged) {
  auto plan = ShardPlan::Create(3, 1);
  ASSERT_TRUE(plan.ok());
  auto merged = MergeShardSums(*plan, {ShardSum(97, 9, {96, 0, 5})});
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_EQ(merged->sum, (std::vector<uint64_t>{96, 0, 5}));
  EXPECT_EQ(merged->modulus, 97u);
  EXPECT_EQ(merged->num_contributors, 9u);
}

TEST(MergeShardSumsTest, RejectsWrongShardCount) {
  auto plan = ShardPlan::Create(4, 2);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(MergeShardSums(*plan, {ShardSum(97, 1, {1, 2})}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(MergeShardSums(*plan, {ShardSum(97, 1, {1, 2}),
                                   ShardSum(97, 1, {3, 4}),
                                   ShardSum(97, 1, {5, 6})})
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(MergeShardSums(*plan, {}).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(MergeShardSumsTest, RejectsSumLengthDifferentFromShardWidth) {
  auto plan = ShardPlan::Create(5, 2);  // Widths 3 and 2.
  ASSERT_TRUE(plan.ok());
  // Right total length, wrong split.
  EXPECT_EQ(MergeShardSums(*plan, {ShardSum(97, 1, {1, 2}),
                                   ShardSum(97, 1, {3, 4, 5})})
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  // Short last shard.
  EXPECT_EQ(MergeShardSums(*plan, {ShardSum(97, 1, {1, 2, 3}),
                                   ShardSum(97, 1, {4})})
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  // One shard must still cover the whole dimension.
  auto single = ShardPlan::Create(3, 1);
  ASSERT_TRUE(single.ok());
  EXPECT_EQ(MergeShardSums(*single, {ShardSum(97, 1, {1, 2})}).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(MergeShardSumsTest, RejectsShardsDisagreeingOnModulus) {
  auto plan = ShardPlan::Create(4, 2);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(MergeShardSums(*plan, {ShardSum(97, 1, {1, 2}),
                                   ShardSum(98, 1, {3, 4})})
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace smm::secagg
