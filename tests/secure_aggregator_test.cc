#include "secagg/secure_aggregator.h"

#include <gtest/gtest.h>

#include "common/random.h"
#include "secagg/modular.h"

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

/// One streaming round: each participant in `ids` sends its input through
/// PrepareContribution (plain residues for the ideal sum, masked for
/// MaskedAggregator) and the stream absorbs it; the rest never arrive and
/// count as dropped at Finalize.
StatusOr<std::vector<uint64_t>> StreamSum(
    SecureAggregator& agg, const std::vector<std::vector<uint64_t>>& inputs,
    const std::vector<int>& ids, uint64_t m) {
  SMM_ASSIGN_OR_RETURN(auto stream, agg.Open(inputs[0].size(), m));
  for (int id : ids) {
    SMM_ASSIGN_OR_RETURN(
        auto contribution,
        agg.PrepareContribution(id, inputs[static_cast<size_t>(id)], m));
    SMM_RETURN_IF_ERROR(stream->Absorb(id, contribution));
  }
  return stream->Finalize();
}

std::vector<int> AllIds(size_t n) {
  std::vector<int> ids(n);
  for (size_t i = 0; i < n; ++i) ids[i] = static_cast<int>(i);
  return ids;
}

TEST(IdealAggregatorTest, SumsModM) {
  IdealAggregator agg;
  const auto inputs = RandomInputs(5, 16, 256, 1);
  auto sum = StreamSum(agg, inputs, AllIds(inputs.size()), 256);
  ASSERT_TRUE(sum.ok());
  EXPECT_EQ(*sum, ExactSum(inputs, 256));
}

TEST(IdealAggregatorTest, RejectsBadInputs) {
  IdealAggregator agg;
  EXPECT_FALSE(agg.Open(0, 256).ok());
  EXPECT_FALSE(agg.Open(2, 1).ok());
  auto stream = agg.Open(2, 256);
  ASSERT_TRUE(stream.ok());
  EXPECT_FALSE((*stream)->Absorb(0, std::vector<uint64_t>{3}).ok());
  EXPECT_FALSE((*stream)->AbsorbTile({0, 1}, {{1, 2}, {3}}).ok());
  // Nothing was absorbed, so there is no sum to release.
  EXPECT_FALSE((*stream)->Finalize().ok());
}

MaskedAggregator::Options BasicOptions(int n, int threshold) {
  MaskedAggregator::Options o;
  o.num_participants = n;
  o.threshold = threshold;
  o.session_seed = 33;
  return o;
}

TEST(MaskedAggregatorTest, CreateValidates) {
  EXPECT_FALSE(MaskedAggregator::Create(BasicOptions(1, 1)).ok());
  EXPECT_FALSE(MaskedAggregator::Create(BasicOptions(4, 0)).ok());
  EXPECT_FALSE(MaskedAggregator::Create(BasicOptions(4, 5)).ok());
  EXPECT_TRUE(MaskedAggregator::Create(BasicOptions(4, 2)).ok());
}

TEST(MaskedAggregatorTest, MatchesIdealSum) {
  auto agg = MaskedAggregator::Create(BasicOptions(6, 3));
  ASSERT_TRUE(agg.ok());
  const uint64_t m = 1024;
  const auto inputs = RandomInputs(6, 32, m, 2);
  auto masked_sum = StreamSum(**agg, inputs, AllIds(inputs.size()), m);
  ASSERT_TRUE(masked_sum.ok());
  EXPECT_EQ(*masked_sum, ExactSum(inputs, m));
}

TEST(MaskedAggregatorTest, MaskedInputsHideRawValues) {
  auto agg = MaskedAggregator::Create(BasicOptions(4, 2));
  ASSERT_TRUE(agg.ok());
  const uint64_t m = 1 << 16;
  std::vector<uint64_t> zeros(64, 0);
  auto masked = (*agg)->MaskInput(0, zeros, m);
  ASSERT_TRUE(masked.ok());
  // An all-zero input must not come out (near-)zero after masking.
  int nonzero = 0;
  for (uint64_t v : *masked) {
    if (v != 0) ++nonzero;
  }
  EXPECT_GT(nonzero, 48);
}

TEST(MaskedAggregatorTest, PairwiseMasksCancelOnlyInFullSum) {
  auto agg = MaskedAggregator::Create(BasicOptions(3, 1));
  ASSERT_TRUE(agg.ok());
  const uint64_t m = 1 << 12;
  const auto inputs = RandomInputs(3, 8, m, 3);
  std::vector<std::vector<uint64_t>> masked;
  for (int i = 0; i < 3; ++i) {
    auto mi = (*agg)->MaskInput(i, inputs[static_cast<size_t>(i)], m);
    ASSERT_TRUE(mi.ok());
    masked.push_back(std::move(*mi));
  }
  // Sum of any two masked inputs should NOT equal the corresponding exact
  // partial sum (the unmatched masks remain).
  std::vector<uint64_t> partial(8, 0);
  for (size_t j = 0; j < 8; ++j) {
    partial[j] = (masked[0][j] + masked[1][j]) % m;
  }
  std::vector<uint64_t> exact_partial(8, 0);
  for (size_t j = 0; j < 8; ++j) {
    exact_partial[j] = (inputs[0][j] + inputs[1][j]) % m;
  }
  EXPECT_NE(partial, exact_partial);
}

TEST(MaskedAggregatorTest, DropoutRecoveryReconstructsSum) {
  const int n = 5;
  auto agg = MaskedAggregator::Create(BasicOptions(n, 3));
  ASSERT_TRUE(agg.ok());
  const uint64_t m = 4096;
  const size_t dim = 16;
  const auto inputs = RandomInputs(n, dim, m, 4);

  // Participants 1 and 3 drop out AFTER masking is configured but before
  // submitting; survivors are 0, 2, 4.
  const std::vector<int> survivors = {0, 2, 4};
  auto sum = StreamSum(**agg, inputs, survivors, m);
  ASSERT_TRUE(sum.ok());

  std::vector<uint64_t> expected(dim, 0);
  for (int i : survivors) {
    for (size_t j = 0; j < dim; ++j) {
      expected[j] = (expected[j] + inputs[static_cast<size_t>(i)][j]) % m;
    }
  }
  EXPECT_EQ(*sum, expected);
}

TEST(MaskedAggregatorTest, TooManyDropoutsFail) {
  auto agg = MaskedAggregator::Create(BasicOptions(5, 4));
  ASSERT_TRUE(agg.ok());
  const uint64_t m = 256;
  const auto inputs = RandomInputs(5, 4, m, 5);
  const std::vector<int> survivors = {0, 1};  // Below threshold 4.
  EXPECT_EQ(StreamSum(**agg, inputs, survivors, m).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(MaskedAggregatorTest, MaskInputValidatesArguments) {
  auto agg = MaskedAggregator::Create(BasicOptions(4, 2));
  ASSERT_TRUE(agg.ok());
  const std::vector<uint64_t> input(8, 1);
  // A zero or unit modulus used to reach `% 0` / degenerate masking.
  EXPECT_FALSE((*agg)->MaskInput(0, input, 0).ok());
  EXPECT_FALSE((*agg)->MaskInput(0, input, 1).ok());
  // Empty inputs carry no dimension to mask.
  EXPECT_FALSE((*agg)->MaskInput(0, {}, 256).ok());
  // Out-of-range participants.
  EXPECT_FALSE((*agg)->MaskInput(-1, input, 256).ok());
  EXPECT_FALSE((*agg)->MaskInput(4, input, 256).ok());
  EXPECT_TRUE((*agg)->MaskInput(3, input, 256).ok());
}

TEST(MaskedAggregatorTest, OpenValidatesArguments) {
  auto agg = MaskedAggregator::Create(BasicOptions(4, 2));
  ASSERT_TRUE(agg.ok());
  EXPECT_FALSE((*agg)->Open(4, 0).ok());
  EXPECT_FALSE((*agg)->Open(4, 1).ok());
  EXPECT_FALSE((*agg)->Open(0, 256).ok());
  EXPECT_TRUE((*agg)->Open(4, 256).ok());
}

class MaskedAggregatorParamTest
    : public ::testing::TestWithParam<std::pair<int, uint64_t>> {};

TEST_P(MaskedAggregatorParamTest, MatchesIdealAcrossSizesAndModuli) {
  const auto [n, m] = GetParam();
  MaskedAggregator::Options o;
  o.num_participants = n;
  o.threshold = std::max(1, n / 2);
  o.session_seed = static_cast<uint64_t>(n) * m;
  auto agg = MaskedAggregator::Create(o);
  ASSERT_TRUE(agg.ok());
  const auto inputs = RandomInputs(n, 8, m, static_cast<uint64_t>(n) + m);
  auto sum = StreamSum(**agg, inputs, AllIds(inputs.size()), m);
  ASSERT_TRUE(sum.ok());
  EXPECT_EQ(*sum, ExactSum(inputs, m));
}

INSTANTIATE_TEST_SUITE_P(
    Configs, MaskedAggregatorParamTest,
    ::testing::Values(std::pair<int, uint64_t>{2, 64},
                      std::pair<int, uint64_t>{3, 256},
                      std::pair<int, uint64_t>{8, 1024},
                      std::pair<int, uint64_t>{16, 1 << 18}));

}  // namespace
}  // namespace smm::secagg
