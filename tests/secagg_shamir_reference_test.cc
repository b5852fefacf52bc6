// Bit-identity pins for the masked protocol's arithmetic. The previous
// implementations of the Shamir field multiply, ShamirSplit,
// ShamirReconstruct and the bounded draw RandomGenerator::UniformUint64 are
// kept below verbatim (renamed Ref*, drawing through NextBits) as the
// reference: the optimized library code must return the same values and
// leave the generator at the same stream position. The masked sharded
// round's sub-frames and Finalize sums are pinned to FNV-1a hashes captured
// from that previous implementation.
#include <cstdint>
#include <iterator>
#include <memory>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "common/math_util.h"
#include "common/parallel.h"
#include "common/random.h"
#include "secagg/secure_aggregator.h"
#include "secagg/shamir.h"
#include "secagg/sharded_coordinator.h"
#include "secagg/transport.h"

namespace smm::secagg {
namespace {

// ---------------------------------------------------------------------------
// Reference implementation.
// ---------------------------------------------------------------------------

using uint128 = unsigned __int128;

SMM_NO_SANITIZE_UNSIGNED_WRAP
uint64_t RefUniformUint64(RandomGenerator& rng, uint64_t bound) {
  // Rejection sampling: draw 64 bits, reject the biased tail. The unsigned
  // negation deliberately wraps: -bound == 2^64 - bound (mod 2^64).
  const uint64_t threshold = -bound % bound;  // == (2^64 - bound) % bound
  while (true) {
    uint64_t r = rng.NextBits();
    if (r >= threshold) return r % bound;
  }
}

uint64_t RefMulMod(uint64_t a, uint64_t b) {
  return static_cast<uint64_t>((static_cast<uint128>(a) * b) % kShamirPrime);
}

uint64_t RefAddModP(uint64_t a, uint64_t b) {
  uint64_t s = a + b;  // < 2^62, no overflow.
  if (s >= kShamirPrime) s -= kShamirPrime;
  return s;
}

uint64_t RefSubModP(uint64_t a, uint64_t b) {
  return a >= b ? a - b : a + kShamirPrime - b;
}

uint64_t RefPowMod(uint64_t base, uint64_t exp) {
  uint64_t result = 1;
  base %= kShamirPrime;
  while (exp > 0) {
    if (exp & 1) result = RefMulMod(result, base);
    base = RefMulMod(base, base);
    exp >>= 1;
  }
  return result;
}

uint64_t RefInvMod(uint64_t a) { return RefPowMod(a, kShamirPrime - 2); }

StatusOr<std::vector<ShamirShare>> RefShamirSplit(uint64_t secret,
                                                  int threshold,
                                                  int num_shares,
                                                  RandomGenerator& rng) {
  if (secret >= kShamirPrime) {
    return InvalidArgumentError("secret must be < 2^61 - 1");
  }
  if (threshold < 1 || threshold > num_shares) {
    return InvalidArgumentError("need 1 <= threshold <= num_shares");
  }
  // Random polynomial of degree threshold-1 with constant term = secret.
  std::vector<uint64_t> coeffs(threshold);
  coeffs[0] = secret;
  for (int i = 1; i < threshold; ++i) {
    coeffs[i] = RefUniformUint64(rng, kShamirPrime);
  }
  std::vector<ShamirShare> shares(num_shares);
  for (int i = 0; i < num_shares; ++i) {
    const uint64_t x = static_cast<uint64_t>(i) + 1;
    // Horner evaluation.
    uint64_t y = 0;
    for (int j = threshold - 1; j >= 0; --j) {
      y = RefAddModP(RefMulMod(y, x), coeffs[j]);
    }
    shares[i] = ShamirShare{x, y};
  }
  return shares;
}

/// Agrees with the library only on well-formed input: its checks let a
/// threshold below 1, a point at or above p, and two points congruent mod p
/// through.
StatusOr<uint64_t> RefShamirReconstruct(const std::vector<ShamirShare>& shares,
                                        int threshold) {
  if (static_cast<int>(shares.size()) < threshold) {
    return FailedPreconditionError("not enough shares to reconstruct");
  }
  std::unordered_set<uint64_t> seen;
  for (int i = 0; i < threshold; ++i) {
    if (!seen.insert(shares[i].x).second) {
      return InvalidArgumentError("duplicate share evaluation point");
    }
    if (shares[i].x == 0) {
      return InvalidArgumentError("share evaluation point must be nonzero");
    }
  }
  // Lagrange interpolation at x = 0 using the first `threshold` shares:
  //   secret = sum_i y_i * prod_{j != i} x_j / (x_j - x_i)  (mod p).
  uint64_t secret = 0;
  for (int i = 0; i < threshold; ++i) {
    uint64_t num = 1, den = 1;
    for (int j = 0; j < threshold; ++j) {
      if (j == i) continue;
      num = RefMulMod(num, shares[j].x);
      den = RefMulMod(den, RefSubModP(shares[j].x, shares[i].x));
    }
    const uint64_t basis = RefMulMod(num, RefInvMod(den));
    secret = RefAddModP(secret, RefMulMod(shares[i].y, basis));
  }
  return secret;
}

// ---------------------------------------------------------------------------
// Shamir and draw primitives against the reference.
// ---------------------------------------------------------------------------

TEST(SecaggShamirReferenceTest, SplitMatchesReferenceSharesAndStreamPosition) {
  constexpr int kShares = 64;
  for (const int threshold : {1, 2, 17, 33, 64}) {
    for (const uint64_t secret :
         {uint64_t{0}, uint64_t{1}, uint64_t{42}, kShamirPrime - 1,
          uint64_t{0x1234567890abcdeULL}}) {
      const uint64_t seed = secret ^ (static_cast<uint64_t>(threshold) << 48);
      RandomGenerator rng(seed);
      RandomGenerator ref_rng(seed);
      auto shares = ShamirSplit(secret, threshold, kShares, rng);
      ASSERT_TRUE(shares.ok()) << shares.status().ToString();
      auto expected = RefShamirSplit(secret, threshold, kShares, ref_rng);
      ASSERT_TRUE(expected.ok());
      ASSERT_EQ(shares->size(), expected->size());
      for (size_t i = 0; i < expected->size(); ++i) {
        ASSERT_EQ((*shares)[i].x, (*expected)[i].x)
            << "t=" << threshold << " share " << i;
        ASSERT_EQ((*shares)[i].y, (*expected)[i].y)
            << "t=" << threshold << " share " << i;
      }
      EXPECT_EQ(rng.NextBits(), ref_rng.NextBits())
          << "stream position differs after a split at t=" << threshold;
    }
  }
}

TEST(SecaggShamirReferenceTest, ReconstructMatchesReferenceOnArbitraryShares) {
  // Points anywhere in [1, p) (including the extremes) and y anywhere in
  // uint64 (including y >= p, which a split never produces) drive the
  // general field multiply through every operand range.
  const uint64_t edge_points[] = {1, 2, kShamirPrime - 1, kShamirPrime - 2,
                                  uint64_t{1} << 60, (uint64_t{1} << 32) + 1};
  const uint64_t edge_ys[] = {0,
                              1,
                              kShamirPrime - 1,
                              kShamirPrime,
                              kShamirPrime + 1,
                              uint64_t{1} << 61,
                              uint64_t{1} << 63,
                              ~uint64_t{0}};
  RandomGenerator rng(11);
  for (int trial = 0; trial < 240; ++trial) {
    const int threshold = 1 + trial % 40;
    const int extra = trial % 3;
    std::vector<ShamirShare> shares;
    std::unordered_set<uint64_t> used;
    while (static_cast<int>(shares.size()) < threshold + extra) {
      const size_t k = shares.size();
      uint64_t x = 1 + RefUniformUint64(rng, kShamirPrime - 1);
      if (trial % 4 == 0 && k < std::size(edge_points)) x = edge_points[k];
      if (!used.insert(x).second) continue;
      uint64_t y = rng.NextBits();
      if (trial % 5 == 0 && k < std::size(edge_ys)) y = edge_ys[k];
      shares.push_back(ShamirShare{x, y});
    }
    auto secret = ShamirReconstruct(shares, threshold);
    ASSERT_TRUE(secret.ok()) << secret.status().ToString();
    auto expected = RefShamirReconstruct(shares, threshold);
    ASSERT_TRUE(expected.ok());
    EXPECT_EQ(*secret, *expected) << "trial " << trial << " t=" << threshold;
  }
}

TEST(SecaggShamirReferenceTest, UniformUint64MatchesReferenceValuesAndPosition) {
  const uint64_t bounds[] = {1,
                             2,
                             uint64_t{1} << 14,
                             uint64_t{1} << 32,
                             uint64_t{1} << 63,
                             3,
                             1000003,
                             kShamirPrime,
                             18446744073709551557ULL,  // 2^64 - 59.
                             (uint64_t{1} << 63) + 1};  // Rejects ~half.
  for (const uint64_t bound : bounds) {
    RandomGenerator rng(bound ^ 0x5eedULL);
    RandomGenerator ref_rng(bound ^ 0x5eedULL);
    for (int i = 0; i < 4096; ++i) {
      ASSERT_EQ(rng.UniformUint64(bound), RefUniformUint64(ref_rng, bound))
          << "bound " << bound << " draw " << i;
    }
    EXPECT_EQ(rng.NextBits(), ref_rng.NextBits())
        << "stream position differs at bound " << bound;
  }
}

// ---------------------------------------------------------------------------
// Masked sharded rounds against hashes captured from the reference.
// ---------------------------------------------------------------------------

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ULL;

SMM_NO_SANITIZE_UNSIGNED_WRAP
uint64_t FnvMix(uint64_t hash, uint64_t word) {
  for (int b = 0; b < 8; ++b) {
    hash ^= (word >> (8 * b)) & 0xff;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

SMM_NO_SANITIZE_UNSIGNED_WRAP
uint64_t FnvBytes(uint64_t hash, const std::vector<uint8_t>& bytes) {
  for (const uint8_t byte : bytes) {
    hash ^= byte;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

/// The sum_masked cohort: 64 participants, threshold 33, 6 dropouts.
constexpr int kParticipants = 64;
constexpr int kThreshold = 33;
const std::vector<int>& Dropouts() {
  static const std::vector<int> dropouts = {3, 10, 17, 29, 40, 63};
  return dropouts;
}

struct RoundHashes {
  uint64_t frames = kFnvOffset;  ///< Every sub-frame, in send order.
  uint64_t sum = kFnvOffset;     ///< The Finalize SumMsg.
};

/// One masked sharded round: every non-dropped participant encodes its
/// sub-frames, every frame is handed to the coordinator, and Finalize
/// recovers the dropouts' masks. Also checks the sum against the plain
/// modular sum of the senders' inputs.
RoundHashes HashMaskedRound(MaskedAggregator& base, size_t dim, uint64_t m,
                            size_t shards, ThreadPool* pool) {
  RoundHashes hashes;
  RandomGenerator input_rng(dim ^ m);
  std::vector<std::vector<uint64_t>> inputs(kParticipants);
  for (auto& row : inputs) {
    row.resize(dim);
    for (auto& x : row) x = RefUniformUint64(input_rng, m);
  }
  ShardedCoordinator::Options options;
  options.dim = dim;
  options.modulus = m;
  options.shard_count = shards;
  options.pool = pool;
  options.tile_rows = 4;
  auto coordinator = ShardedCoordinator::Open(base, options);
  EXPECT_TRUE(coordinator.ok()) << coordinator.status().ToString();
  if (!coordinator.ok()) return hashes;
  std::vector<uint64_t> plain(dim, 0);
  const std::unordered_set<int> dropped(Dropouts().begin(), Dropouts().end());
  for (int p = 0; p < kParticipants; ++p) {
    if (dropped.count(p) > 0) continue;
    auto frames = (*coordinator)->EncodeShardedContribution(
        p, inputs[static_cast<size_t>(p)]);
    EXPECT_TRUE(frames.ok()) << frames.status().ToString();
    if (!frames.ok()) return hashes;
    for (const auto& frame : *frames) {
      hashes.frames = FnvBytes(hashes.frames, frame);
      const Status status =
          (*coordinator)->HandleFrame(ByteSpan(frame.data(), frame.size()));
      EXPECT_TRUE(status.ok()) << status.ToString();
    }
    for (size_t j = 0; j < dim; ++j) {
      plain[j] = AddMod(plain[j], inputs[static_cast<size_t>(p)][j], m);
    }
  }
  auto sum = (*coordinator)->Finalize();
  EXPECT_TRUE(sum.ok()) << sum.status().ToString();
  if (!sum.ok()) return hashes;
  EXPECT_EQ(sum->sum, plain);
  hashes.sum = FnvMix(hashes.sum, sum->modulus);
  hashes.sum = FnvMix(hashes.sum, sum->num_contributors);
  for (const uint64_t v : sum->sum) hashes.sum = FnvMix(hashes.sum, v);
  return hashes;
}

struct PinnedRound {
  size_t dim;
  uint64_t modulus;
  size_t shards;
  RoundHashes expected;
};

TEST(SecaggShamirReferenceTest, MaskedShardedRoundsMatchPinnedHashes) {
  constexpr uint64_t kPrime64 = 18446744073709551557ULL;  // 2^64 - 59.
  const PinnedRound pinned[] = {
      // The sum_masked shape: d = 8192, m = 2^14, K = 4.
      {8192, uint64_t{1} << 14, 4, {0xb9867276e13edd79ULL, 0x7188b2036ade03f4ULL}},
      {256, uint64_t{1} << 14, 1, {0x08c28020a8449158ULL, 0xd2032bc5207052fdULL}},
      {256, uint64_t{1} << 14, 3, {0x8b0060d629120c32ULL, 0xd2032bc5207052fdULL}},
      {256, uint64_t{1} << 14, 4, {0xe031511853809475ULL, 0xd2032bc5207052fdULL}},
      {256, 1000003, 1, {0x8d0861051f33e01dULL, 0x2ecf839c6d40afd1ULL}},
      {256, 1000003, 3, {0x71ce80d5ba1d7529ULL, 0x2ecf839c6d40afd1ULL}},
      {256, 1000003, 4, {0xabbaf28c75ee5885ULL, 0x2ecf839c6d40afd1ULL}},
      {256, kPrime64, 1, {0xbe15ab65e319f527ULL, 0x0869c7d4a6f26b35ULL}},
      {256, kPrime64, 3, {0x61490a34ec9fdc56ULL, 0x0869c7d4a6f26b35ULL}},
      {256, kPrime64, 4, {0x943b1f5b5a441fb2ULL, 0x0869c7d4a6f26b35ULL}},
  };
  MaskedAggregator::Options options;
  options.num_participants = kParticipants;
  options.threshold = kThreshold;
  options.session_seed = 0x5151ULL;
  auto base = MaskedAggregator::Create(options);
  ASSERT_TRUE(base.ok()) << base.status().ToString();
  ThreadPool one(1);
  ThreadPool four(4);
  for (const PinnedRound& round : pinned) {
    for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &one, &four}) {
      const int threads = pool == nullptr ? 0 : pool->num_threads();
      // The full-size shape runs once, on the benchmark's thread count.
      if (round.dim > 256 && threads != 4) continue;
      const RoundHashes actual = HashMaskedRound(**base, round.dim,
                                                 round.modulus, round.shards,
                                                 pool);
      EXPECT_EQ(actual.frames, round.expected.frames)
          << "frames d=" << round.dim << " m=" << round.modulus
          << " K=" << round.shards << " pool threads=" << threads
          << " actual 0x" << std::hex << actual.frames;
      EXPECT_EQ(actual.sum, round.expected.sum)
          << "sum d=" << round.dim << " m=" << round.modulus
          << " K=" << round.shards << " pool threads=" << threads
          << " actual 0x" << std::hex << actual.sum;
    }
  }
}

}  // namespace
}  // namespace smm::secagg
