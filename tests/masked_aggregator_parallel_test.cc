// Thread-count invariance of the parallel masked-aggregation paths: mask
// expansion sharded over pairs must be bit-identical to the sequential
// path, and the server stream (tiles sharded over survivors, dropout
// recovery over recovery pairs) must equal a test-local exact sum of the
// unmasked survivors' inputs for every thread count.
//
// SMM_THREADS (when set to a positive integer) adds an extra thread count to
// every invariance sweep, so the sanitizer CI jobs exercise the same tests
// at their configured concurrency.
#include "secagg/secure_aggregator.h"

#include <cstdlib>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel.h"
#include "common/random.h"

namespace smm::secagg {
namespace {

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

std::vector<uint64_t> ExactSum(const std::vector<std::vector<uint64_t>>& in,
                               uint64_t m) {
  std::vector<uint64_t> sum(in[0].size(), 0);
  for (const auto& v : in) {
    for (size_t j = 0; j < v.size(); ++j) sum[j] = (sum[j] + v[j]) % m;
  }
  return sum;
}

/// Thread counts every invariance test sweeps: 1, 2, 8, plus SMM_THREADS
/// when the environment sets it to something else (the CI sanitizer jobs
/// export SMM_THREADS=8).
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

MaskedAggregator::Options BasicOptions(int n, int threshold) {
  MaskedAggregator::Options o;
  o.num_participants = n;
  o.threshold = threshold;
  o.session_seed = 33;
  return o;
}

TEST(MaskedAggregatorParallelTest, MaskInputIsThreadCountInvariant) {
  const int n = 10;
  auto agg = MaskedAggregator::Create(BasicOptions(n, 4));
  ASSERT_TRUE(agg.ok());
  const uint64_t m = 1 << 16;
  const size_t dim = 257;  // Deliberately not a multiple of the chunk count.
  const auto inputs = RandomInputs(n, dim, m, 11);
  for (int i = 0; i < n; ++i) {
    auto sequential = (*agg)->MaskInput(i, inputs[static_cast<size_t>(i)], m);
    ASSERT_TRUE(sequential.ok());
    for (int threads : ThreadCounts()) {
      ThreadPool pool(threads);
      auto parallel =
          (*agg)->MaskInput(i, inputs[static_cast<size_t>(i)], m, &pool);
      ASSERT_TRUE(parallel.ok());
      EXPECT_EQ(*sequential, *parallel)
          << "participant " << i << " at " << threads << " threads";
    }
  }
}

/// Masks every survivor's input on `pool` and absorbs the masked tile into
/// a stream opened on `pool`; everyone else counts as dropped at Finalize.
StatusOr<std::vector<uint64_t>> MaskedStreamSum(
    MaskedAggregator& agg,
    const std::vector<std::vector<uint64_t>>& inputs,
    const std::vector<int>& survivors, uint64_t m, ThreadPool* pool) {
  std::vector<std::vector<uint64_t>> masked;
  for (int i : survivors) {
    SMM_ASSIGN_OR_RETURN(
        auto mi, agg.MaskInput(i, inputs[static_cast<size_t>(i)], m, pool));
    masked.push_back(std::move(mi));
  }
  SMM_ASSIGN_OR_RETURN(auto stream, agg.Open(inputs[0].size(), m, pool));
  SMM_RETURN_IF_ERROR(stream->AbsorbTile(survivors, masked));
  return stream->Finalize();
}

TEST(MaskedAggregatorParallelTest, StreamWithDropoutsMatchesExactSum) {
  const int n = 9;
  auto agg = MaskedAggregator::Create(BasicOptions(n, 4));
  ASSERT_TRUE(agg.ok());
  const uint64_t m = 1 << 14;
  const size_t dim = 65;
  const auto inputs = RandomInputs(n, dim, m, 12);

  // Participants 1, 3, 5, 7 drop out after masking is configured.
  const std::vector<int> survivors = {0, 2, 4, 6, 8};
  std::vector<std::vector<uint64_t>> survivor_inputs;
  for (int i : survivors) {
    survivor_inputs.push_back(inputs[static_cast<size_t>(i)]);
  }
  const auto expected = ExactSum(survivor_inputs, m);

  auto sequential = MaskedStreamSum(**agg, inputs, survivors, m, nullptr);
  ASSERT_TRUE(sequential.ok());
  EXPECT_EQ(*sequential, expected);
  for (int threads : ThreadCounts()) {
    ThreadPool pool(threads);
    auto parallel = MaskedStreamSum(**agg, inputs, survivors, m, &pool);
    ASSERT_TRUE(parallel.ok()) << threads << " threads";
    EXPECT_EQ(*parallel, expected) << threads << " threads";
  }
}

TEST(MaskedAggregatorParallelTest, StreamFullRoundMatchesExactSum) {
  const int n = 12;
  auto agg = MaskedAggregator::Create(BasicOptions(n, 6));
  ASSERT_TRUE(agg.ok());
  const uint64_t m = 1 << 18;
  const size_t dim = 96;
  const auto inputs = RandomInputs(n, dim, m, 13);
  std::vector<int> everyone(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) everyone[static_cast<size_t>(i)] = i;
  const auto expected = ExactSum(inputs, m);

  auto sequential = MaskedStreamSum(**agg, inputs, everyone, m, nullptr);
  ASSERT_TRUE(sequential.ok());
  EXPECT_EQ(*sequential, expected);
  for (int threads : ThreadCounts()) {
    ThreadPool pool(threads);
    auto parallel = MaskedStreamSum(**agg, inputs, everyone, m, &pool);
    ASSERT_TRUE(parallel.ok()) << threads << " threads";
    EXPECT_EQ(*parallel, expected) << threads << " threads";
  }
}

TEST(MaskedAggregatorParallelTest, ParallelErrorsStillPropagate) {
  auto agg = MaskedAggregator::Create(BasicOptions(5, 4));
  ASSERT_TRUE(agg.ok());
  const uint64_t m = 256;
  ThreadPool pool(4);
  // Below the Shamir threshold: must fail identically in parallel mode.
  auto below = (*agg)->Open(4, m, &pool);
  ASSERT_TRUE(below.ok());
  std::vector<std::vector<uint64_t>> masked(2, std::vector<uint64_t>(4, 0));
  ASSERT_TRUE((*below)->AbsorbTile({0, 1}, masked).ok());
  EXPECT_EQ((*below)->Finalize().status().code(),
            StatusCode::kFailedPrecondition);
  // Dimension mismatch within a tile.
  auto ragged_stream = (*agg)->Open(4, m, &pool);
  ASSERT_TRUE(ragged_stream.ok());
  std::vector<std::vector<uint64_t>> ragged(4, std::vector<uint64_t>(4, 0));
  ragged[2].resize(3);
  EXPECT_FALSE((*ragged_stream)->AbsorbTile({0, 1, 2, 3}, ragged).ok());
  EXPECT_EQ((*ragged_stream)->absorbed(), 0u);
}

}  // namespace
}  // namespace smm::secagg
