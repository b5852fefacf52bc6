// Property tests for the streaming aggregation subsystem: Finalize must
// equal a test-local 128-bit exact sum of the unmasked survivors' inputs
// for both aggregators, across thread counts {1, 2, 8} (+ SMM_THREADS),
// shuffled absorb orders, per-participant vs tiled absorbs, dropout
// patterns, and moduli spanning the full uint64 range — including
// 2^64 - 59, where a naive `(acc + v) % m` accumulator silently wraps.
#include "secagg/streaming_aggregator.h"

#include <algorithm>
#include <cstdlib>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel.h"
#include "common/random.h"
#include "secagg/secure_aggregator.h"

namespace smm::secagg {
namespace {

constexpr uint64_t kLargePrime = 18446744073709551557ULL;  // 2^64 - 59.

const std::vector<uint64_t>& TestModuli() {
  static const std::vector<uint64_t> kModuli = {1ULL << 16, 1ULL << 32,
                                                kLargePrime};
  return kModuli;
}

/// Thread counts every sweep covers: 1, 2, 8, plus SMM_THREADS when the
/// environment sets it to something else (the CI sanitizer jobs export
/// SMM_THREADS=8).
std::vector<int> ThreadCounts() {
  std::vector<int> counts = {1, 2, 8};
  const char* env = std::getenv("SMM_THREADS");
  if (env != nullptr && *env != '\0') {
    char* end = nullptr;
    const long threads = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && threads > 0 && threads <= 4096 &&
        threads != 1 && threads != 2 && threads != 8) {
      counts.push_back(static_cast<int>(threads));
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

/// The reference every stream is checked against: the element-wise sum of
/// `inputs` mod m through 128-bit arithmetic. It shares no code with the
/// stream (no AddModVec, no ShardedModularAccumulate, no mask recovery).
std::vector<uint64_t> ExactSum128(
    const std::vector<std::vector<uint64_t>>& inputs, uint64_t m) {
  std::vector<uint64_t> sum(inputs[0].size(), 0);
  for (size_t j = 0; j < sum.size(); ++j) {
    unsigned __int128 acc = 0;
    for (const auto& v : inputs) acc += v[j];
    sum[j] = static_cast<uint64_t>(acc % m);
  }
  return sum;
}

/// Deterministic Fisher-Yates shuffle of {0, ..., n-1}.
std::vector<size_t> ShuffledOrder(size_t n, uint64_t seed) {
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), size_t{0});
  RandomGenerator rng(seed);
  for (size_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[rng.UniformUint64(i)]);
  }
  return order;
}

TEST(StreamingAggregatorTest, IdealMatchesExactSumAcrossThreadsAndOrders) {
  const int n = 13;
  const size_t dim = 33;  // Deliberately not a multiple of the chunk count.
  IdealAggregator agg;
  for (uint64_t m : TestModuli()) {
    const auto inputs = RandomInputs(n, dim, m, 21 + m % 97);
    const auto expected = ExactSum128(inputs, m);
    for (int threads : ThreadCounts()) {
      ThreadPool pool(threads);
      // Shuffled per-participant absorbs.
      auto stream = agg.Open(dim, m, &pool);
      ASSERT_TRUE(stream.ok());
      for (size_t i : ShuffledOrder(inputs.size(), m ^ 5)) {
        ASSERT_TRUE(
            (*stream)->Absorb(static_cast<int>(i), inputs[i]).ok());
      }
      EXPECT_EQ((*stream)->absorbed(), inputs.size());
      auto streamed = (*stream)->Finalize();
      ASSERT_TRUE(streamed.ok());
      EXPECT_EQ(*streamed, expected) << "m=" << m << " threads=" << threads;
    }
  }
}

TEST(StreamingAggregatorTest, IdealTiledAbsorbMatchesExactSum) {
  const int n = 29;
  const size_t dim = 65;
  IdealAggregator agg;
  for (uint64_t m : TestModuli()) {
    const auto inputs = RandomInputs(n, dim, m, 4 + m % 89);
    const auto expected = ExactSum128(inputs, m);
    for (int threads : ThreadCounts()) {
      ThreadPool pool(threads);
      for (size_t tile : {size_t{1}, size_t{4}, size_t{7}, size_t{29}}) {
        auto stream = agg.Open(dim, m, &pool);
        ASSERT_TRUE(stream.ok());
        for (size_t begin = 0; begin < inputs.size(); begin += tile) {
          const size_t end = std::min(inputs.size(), begin + tile);
          std::vector<int> ids;
          std::vector<std::vector<uint64_t>> tile_inputs;
          for (size_t i = begin; i < end; ++i) {
            ids.push_back(static_cast<int>(i));
            tile_inputs.push_back(inputs[i]);
          }
          ASSERT_TRUE((*stream)->AbsorbTile(ids, tile_inputs).ok());
        }
        auto streamed = (*stream)->Finalize();
        ASSERT_TRUE(streamed.ok());
        EXPECT_EQ(*streamed, expected)
            << "m=" << m << " threads=" << threads << " tile=" << tile;
      }
    }
  }
}

MaskedAggregator::Options BasicOptions(int n, int threshold) {
  MaskedAggregator::Options o;
  o.num_participants = n;
  o.threshold = threshold;
  o.session_seed = 33;
  return o;
}

TEST(StreamingAggregatorTest, MaskedMatchesExactSumFullParticipation) {
  const int n = 10;
  const size_t dim = 41;
  auto agg = MaskedAggregator::Create(BasicOptions(n, 4));
  ASSERT_TRUE(agg.ok());
  for (uint64_t m : TestModuli()) {
    const auto inputs = RandomInputs(n, dim, m, 7 + m % 83);
    const auto expected = ExactSum128(inputs, m);
    for (int threads : ThreadCounts()) {
      ThreadPool pool(threads);
      auto stream = (*agg)->Open(dim, m, &pool);
      ASSERT_TRUE(stream.ok());
      for (size_t i : ShuffledOrder(inputs.size(), m ^ 11)) {
        auto masked =
            (*agg)->MaskInput(static_cast<int>(i), inputs[i], m, &pool);
        ASSERT_TRUE(masked.ok());
        ASSERT_TRUE((*stream)->Absorb(static_cast<int>(i), *masked).ok());
      }
      auto streamed = (*stream)->Finalize();
      ASSERT_TRUE(streamed.ok());
      EXPECT_EQ(*streamed, expected) << "m=" << m << " threads=" << threads;
    }
  }
}

TEST(StreamingAggregatorTest, MaskedDropoutRecoveryMatchesExactSurvivorSum) {
  const int n = 9;
  const size_t dim = 26;
  auto agg = MaskedAggregator::Create(BasicOptions(n, 3));
  ASSERT_TRUE(agg.ok());
  const std::vector<std::vector<int>> dropout_patterns = {
      {},            // Everyone survives.
      {4},           // One dropout.
      {1, 3, 5, 7},  // Heavy dropout, survivors above threshold.
  };
  for (uint64_t m : TestModuli()) {
    const auto inputs = RandomInputs(n, dim, m, 3 + m % 79);
    for (const auto& dropped : dropout_patterns) {
      std::vector<int> survivors;
      for (int i = 0; i < n; ++i) {
        if (std::find(dropped.begin(), dropped.end(), i) == dropped.end()) {
          survivors.push_back(i);
        }
      }
      std::vector<std::vector<uint64_t>> masked;
      std::vector<std::vector<uint64_t>> survivor_inputs;
      for (int i : survivors) {
        auto mi = (*agg)->MaskInput(i, inputs[static_cast<size_t>(i)], m);
        ASSERT_TRUE(mi.ok());
        masked.push_back(std::move(*mi));
        survivor_inputs.push_back(inputs[static_cast<size_t>(i)]);
      }
      const auto expected = ExactSum128(survivor_inputs, m);
      for (int threads : ThreadCounts()) {
        ThreadPool pool(threads);
        auto stream = (*agg)->Open(dim, m, &pool);
        ASSERT_TRUE(stream.ok());
        // Absorb survivors in shuffled order; the dropped participants
        // simply never show up, and Finalize treats them as dropped.
        for (size_t p : ShuffledOrder(survivors.size(), m ^ threads)) {
          ASSERT_TRUE(
              (*stream)->Absorb(survivors[p], masked[p]).ok());
        }
        auto streamed = (*stream)->Finalize();
        ASSERT_TRUE(streamed.ok());
        EXPECT_EQ(*streamed, expected)
            << "m=" << m << " threads=" << threads << " dropped="
            << dropped.size();
      }
    }
  }
}

TEST(StreamingAggregatorTest, MaskedStreamValidates) {
  const int n = 5;
  const size_t dim = 8;
  const uint64_t m = 1 << 12;
  auto agg = MaskedAggregator::Create(BasicOptions(n, 2));
  ASSERT_TRUE(agg.ok());
  const auto inputs = RandomInputs(n, dim, m, 15);

  auto stream = (*agg)->Open(dim, m);
  ASSERT_TRUE(stream.ok());
  // Out-of-range and duplicate participants are rejected.
  EXPECT_FALSE((*stream)->Absorb(-1, inputs[0]).ok());
  EXPECT_FALSE((*stream)->Absorb(n, inputs[0]).ok());
  ASSERT_TRUE((*stream)->Absorb(0, inputs[0]).ok());
  EXPECT_FALSE((*stream)->Absorb(0, inputs[0]).ok());
  // Dimension mismatch is rejected.
  EXPECT_FALSE((*stream)->Absorb(1, std::vector<uint64_t>(dim + 1, 0)).ok());
  // One survivor is below the threshold of 2: Finalize must fail.
  EXPECT_FALSE((*stream)->Finalize().ok());

  // A failed Finalize still consumes the stream.
  EXPECT_FALSE((*stream)->Absorb(1, inputs[1]).ok());
}

TEST(StreamingAggregatorTest, MaskedRejectedTileLeavesStreamUntouched) {
  // A tile that fails admission (duplicate id inside the tile) must leave
  // no participant marked absorbed: absorbing them properly afterwards has
  // to succeed and produce the exact unmasked sum.
  const int n = 4;
  const size_t dim = 8;
  const uint64_t m = 1 << 14;
  auto agg = MaskedAggregator::Create(BasicOptions(n, 2));
  ASSERT_TRUE(agg.ok());
  const auto inputs = RandomInputs(n, dim, m, 27);
  std::vector<std::vector<uint64_t>> masked;
  for (int i = 0; i < n; ++i) {
    auto mi = (*agg)->MaskInput(i, inputs[static_cast<size_t>(i)], m);
    ASSERT_TRUE(mi.ok());
    masked.push_back(std::move(*mi));
  }

  auto stream = (*agg)->Open(dim, m);
  ASSERT_TRUE(stream.ok());
  // Duplicate inside the tile: rejected, nothing absorbed.
  EXPECT_FALSE(
      (*stream)->AbsorbTile({0, 1, 1}, {masked[0], masked[1], masked[1]})
          .ok());
  EXPECT_EQ((*stream)->absorbed(), 0u);
  // Tile colliding with an already-absorbed participant: also atomic.
  ASSERT_TRUE((*stream)->Absorb(3, masked[3]).ok());
  EXPECT_FALSE(
      (*stream)->AbsorbTile({2, 3}, {masked[2], masked[3]}).ok());
  // Every participant not yet absorbed can still be absorbed cleanly.
  ASSERT_TRUE((*stream)->AbsorbTile({0, 1, 2},
                                    {masked[0], masked[1], masked[2]})
                  .ok());
  auto sum = (*stream)->Finalize();
  ASSERT_TRUE(sum.ok());
  EXPECT_EQ(*sum, ExactSum128(inputs, m));
}

TEST(StreamingAggregatorTest, StreamLifecycleErrors) {
  IdealAggregator agg;
  const size_t dim = 4;
  const uint64_t m = 256;
  // Open validates its parameters.
  EXPECT_FALSE(agg.Open(0, m).ok());
  EXPECT_FALSE(agg.Open(dim, 1).ok());
  EXPECT_FALSE(agg.Open(dim, 0).ok());

  auto stream = agg.Open(dim, m);
  ASSERT_TRUE(stream.ok());
  // Finalizing with nothing absorbed fails: there is no sum to release.
  EXPECT_FALSE((*stream)->Finalize().ok());

  stream = agg.Open(dim, m);
  ASSERT_TRUE(stream.ok());
  ASSERT_TRUE((*stream)->Absorb(0, std::vector<uint64_t>(dim, 3)).ok());
  auto sum = (*stream)->Finalize();
  ASSERT_TRUE(sum.ok());
  // The stream is consumed: further absorbs and finalizes fail.
  EXPECT_FALSE((*stream)->Absorb(1, std::vector<uint64_t>(dim, 1)).ok());
  EXPECT_FALSE((*stream)->Finalize().ok());
}

TEST(StreamingAggregatorTest, IdealStreamReducesUnreducedEntries) {
  IdealAggregator agg;
  const uint64_t m = 1000;
  auto stream = agg.Open(2, m);
  ASSERT_TRUE(stream.ok());
  // Entries at and above m are reduced once before accumulation.
  const std::vector<uint64_t> first = {m + 1, 999};
  const std::vector<uint64_t> second = {2 * m + 5, 2};
  ASSERT_TRUE((*stream)->Absorb(0, first).ok());
  ASSERT_TRUE((*stream)->Absorb(1, second).ok());
  auto sum = (*stream)->Finalize();
  ASSERT_TRUE(sum.ok());
  EXPECT_EQ(*sum, (std::vector<uint64_t>{6, 1}));
}

}  // namespace
}  // namespace smm::secagg
