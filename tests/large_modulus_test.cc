// Regression tests for the large-modulus regime (m > 2^63), where the old
// `(acc + v) % m` accumulators silently wrapped uint64_t: every aggregation
// and modular-arithmetic path must now be exact against an unsigned
// __int128 reference at m = 2^64 - 59 — the regime the paper's
// communication analysis (Section 5) sweeps. These tests are the payload of
// the unsigned-integer-overflow sanitizer CI job.
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/math_util.h"
#include "common/random.h"
#include "secagg/modular.h"
#include "secagg/secure_aggregator.h"

namespace smm::secagg {
namespace {

constexpr uint64_t kLargePrime = 18446744073709551557ULL;  // 2^64 - 59.

using uint128 = unsigned __int128;

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

/// Exact reference sum through 128-bit arithmetic.
std::vector<uint64_t> ExactSum128(
    const std::vector<std::vector<uint64_t>>& inputs, uint64_t m) {
  std::vector<uint64_t> sum(inputs[0].size(), 0);
  for (size_t j = 0; j < sum.size(); ++j) {
    uint128 acc = 0;
    for (const auto& v : inputs) acc += v[j];
    sum[j] = static_cast<uint64_t>(acc % m);
  }
  return sum;
}

TEST(LargeModulusTest, ScalarAddSubModMatch128BitReference) {
  RandomGenerator rng(2);
  for (uint64_t m : std::vector<uint64_t>{kLargePrime, ~0ULL,
                                          (1ULL << 63) + 1, 1ULL << 63}) {
    for (int trial = 0; trial < 2000; ++trial) {
      const uint64_t a = rng.UniformUint64(m);
      const uint64_t b = rng.UniformUint64(m);
      EXPECT_EQ(smm::AddMod(a, b, m),
                static_cast<uint64_t>((static_cast<uint128>(a) + b) % m));
      EXPECT_EQ(smm::SubMod(a, b, m),
                static_cast<uint64_t>(
                    (static_cast<uint128>(a) + m - b) % m));
    }
    // Boundary values.
    EXPECT_EQ(smm::AddMod(m - 1, m - 1, m),
              static_cast<uint64_t>((static_cast<uint128>(m - 1) * 2) % m));
    EXPECT_EQ(smm::AddMod(m - 1, 1, m), 0ULL);
    EXPECT_EQ(smm::AddMod(0, 0, m), 0ULL);
    EXPECT_EQ(smm::SubMod(0, m - 1, m), 1ULL);
    EXPECT_EQ(smm::SubMod(m - 1, 0, m), m - 1);
  }
}

TEST(LargeModulusTest, ModReduceAndCenterLiftRoundTrip) {
  const uint64_t m = kLargePrime;
  // ModReduce must fold arbitrary signed values into [0, m) without the
  // int64 cast of m (negative for m > 2^63) the old implementation used.
  EXPECT_EQ(ModReduce(0, m), 0ULL);
  EXPECT_EQ(ModReduce(-1, m), m - 1);
  EXPECT_EQ(ModReduce(INT64_MAX, m), static_cast<uint64_t>(INT64_MAX));
  EXPECT_EQ(ModReduce(INT64_MIN, m), m - (1ULL << 63));
  // Centered lift: values inside [-(m-1)/2, (m-1)/2] round-trip (m is odd,
  // so the centered window is symmetric and includes both boundary
  // representatives). INT64_MAX and INT64_MIN fall *outside* that range for
  // m = 2^64 - 59 — its centered representatives stop about 30 short of the
  // int64 limits — so they lift to their congruent in-range representatives
  // instead.
  for (int64_t v : {int64_t{0}, int64_t{1}, int64_t{-1}, int64_t{123456},
                    int64_t{-123456}, static_cast<int64_t>(m / 2 - 1),
                    static_cast<int64_t>(m / 2),
                    -static_cast<int64_t>(m / 2)}) {
    EXPECT_EQ(CenterLift(ModReduce(v, m), m), v) << v;
  }
  EXPECT_EQ(CenterLift(static_cast<uint64_t>(INT64_MAX), m),
            -static_cast<int64_t>(m - static_cast<uint64_t>(INT64_MAX)));
  EXPECT_EQ(CenterLift(m - 1, m), -1);
  EXPECT_EQ(CenterLift(m / 2 - 1, m), static_cast<int64_t>(m / 2 - 1));
  // The odd-m boundary point floor(m/2) is the *positive* end of the
  // centered window (+(m-1)/2), not a negative wrap — the off-by-one the
  // old `value >= m / 2` condition got wrong.
  EXPECT_EQ(CenterLift(m / 2, m), static_cast<int64_t>(m / 2));
  EXPECT_EQ(CenterLift(m / 2 + 1, m), -static_cast<int64_t>(m / 2));
  // m = 2^64 - 1: the largest magnitude is now floor(m/2) = 2^63 - 1 on
  // both sides, so INT64_MIN is no longer reachable.
  EXPECT_EQ(CenterLift((~0ULL) / 2, ~0ULL), INT64_MAX);
  EXPECT_EQ(CenterLift((~0ULL) / 2 + 1, ~0ULL), -INT64_MAX);
}

TEST(LargeModulusTest, CenterLiftMatches128BitReferenceAtBothParities) {
  // Cross-check CenterLift against a signed 128-bit reference — value, then
  // subtract m iff the value exceeds the centered window's positive end —
  // at odd and even moduli spanning the full range, including the wrap-prone
  // m > 2^63 regime and the odd boundary cases of the ISSUE-4 regression.
  RandomGenerator rng(3);
  for (uint64_t m : std::vector<uint64_t>{3, 5, 8, 1024, (1ULL << 63) - 1,
                                          1ULL << 63, (1ULL << 63) + 1,
                                          kLargePrime, ~0ULL - 1, ~0ULL}) {
    const auto reference = [m](uint64_t value) {
      __int128 lifted = static_cast<__int128>(value);
      if (lifted > static_cast<__int128>((m - 1) / 2)) {
        lifted -= static_cast<__int128>(m);
      }
      return static_cast<int64_t>(lifted);
    };
    // Every boundary-adjacent value plus random probes.
    std::vector<uint64_t> probes = {0, 1, m - 1, m - 2, m / 2, (m - 1) / 2};
    if (m / 2 >= 1) probes.push_back(m / 2 - 1);
    if (m / 2 + 1 < m) probes.push_back(m / 2 + 1);
    for (int trial = 0; trial < 200; ++trial) {
      probes.push_back(rng.UniformUint64(m));
    }
    for (uint64_t value : probes) {
      ASSERT_LT(value, m);
      EXPECT_EQ(CenterLift(value, m), reference(value))
          << "m=" << m << " value=" << value;
      // And the round trip the decode path relies on.
      EXPECT_EQ(ModReduce(CenterLift(value, m), m), value)
          << "m=" << m << " value=" << value;
    }
  }
}

TEST(LargeModulusTest, IdealAggregatorIsExact) {
  // One tile of every participant: the sharded absorb whose per-thread
  // partials are reduced mod m at the end.
  const uint64_t m = kLargePrime;
  const auto inputs = RandomInputs(23, 17, m, 6);
  const auto expected = ExactSum128(inputs, m);
  std::vector<int> ids(inputs.size());
  for (size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<int>(i);
  IdealAggregator agg;
  for (int threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    auto stream = agg.Open(inputs[0].size(), m, &pool);
    ASSERT_TRUE(stream.ok());
    ASSERT_TRUE((*stream)->AbsorbTile(ids, inputs).ok());
    auto sum = (*stream)->Finalize();
    ASSERT_TRUE(sum.ok());
    EXPECT_EQ(*sum, expected) << threads << " threads";
  }
}

TEST(LargeModulusTest, MaskedAggregatorIsExact) {
  const int n = 7;
  MaskedAggregator::Options o;
  o.num_participants = n;
  o.threshold = 3;
  o.session_seed = 99;
  auto agg = MaskedAggregator::Create(o);
  ASSERT_TRUE(agg.ok());
  const uint64_t m = kLargePrime;
  const size_t dim = 19;
  const auto inputs = RandomInputs(n, dim, m, 8);
  // Full participation: every pairwise mask must cancel exactly even though
  // individual masked coordinates live right below 2^64. With dropouts, the
  // recovered masks must leave exactly the survivors' sum.
  const std::vector<std::vector<int>> survivor_sets = {{0, 1, 2, 3, 4, 5, 6},
                                                       {0, 2, 3, 5, 6}};
  for (const auto& survivors : survivor_sets) {
    auto stream = (*agg)->Open(dim, m);
    ASSERT_TRUE(stream.ok());
    std::vector<std::vector<uint64_t>> survivor_inputs;
    for (int i : survivors) {
      auto mi = (*agg)->MaskInput(i, inputs[static_cast<size_t>(i)], m);
      ASSERT_TRUE(mi.ok());
      ASSERT_TRUE((*stream)->Absorb(i, *mi).ok());
      survivor_inputs.push_back(inputs[static_cast<size_t>(i)]);
    }
    auto sum = (*stream)->Finalize();
    ASSERT_TRUE(sum.ok());
    EXPECT_EQ(*sum, ExactSum128(survivor_inputs, m))
        << survivors.size() << " survivors";
  }
}

TEST(LargeModulusTest, StreamingAggregationIsExact) {
  const uint64_t m = kLargePrime;
  const size_t dim = 31;
  const auto inputs = RandomInputs(41, dim, m, 9);
  const auto expected = ExactSum128(inputs, m);
  IdealAggregator agg;
  for (int threads : {1, 8}) {
    ThreadPool pool(threads);
    auto stream = agg.Open(dim, m, &pool);
    ASSERT_TRUE(stream.ok());
    for (size_t i = 0; i < inputs.size(); ++i) {
      ASSERT_TRUE((*stream)->Absorb(static_cast<int>(i), inputs[i]).ok());
    }
    auto sum = (*stream)->Finalize();
    ASSERT_TRUE(sum.ok());
    EXPECT_EQ(*sum, expected) << threads << " threads";
  }
}

}  // namespace
}  // namespace smm::secagg
