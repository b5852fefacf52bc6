#include "secagg/secure_aggregator.h"

#include <algorithm>
#include <unordered_set>
#include <utility>

#include "common/simd.h"
#include "secagg/modular.h"

namespace smm::secagg {

namespace {

Status ValidateStreamParams(size_t dim, uint64_t m) {
  if (dim == 0) return InvalidArgumentError("dimension must be >= 1");
  if (m < 2) return InvalidArgumentError("modulus must be >= 2");
  return OkStatus();
}

}  // namespace

StatusOr<std::vector<uint64_t>> SecureAggregator::PrepareContribution(
    int participant, const std::vector<uint64_t>& input, uint64_t m,
    ThreadPool* pool) const {
  (void)participant;
  (void)pool;
  if (input.empty()) return InvalidArgumentError("empty input");
  if (m < 2) return InvalidArgumentError("modulus must be >= 2");
  std::vector<uint64_t> out(input.size());
  simd::ModReduceInto(input.data(), input.size(), m, out.data());
  return out;
}

StatusOr<std::unique_ptr<SecureAggregator>>
SecureAggregator::CreateShardAggregator(size_t shard_index,
                                        size_t shard_count) const {
  if (shard_count < 1 || shard_index >= shard_count) {
    return InvalidArgumentError("shard index out of range");
  }
  return std::unique_ptr<SecureAggregator>(nullptr);
}

StatusOr<std::vector<std::unique_ptr<SecureAggregator>>>
CreateShardAggregators(const SecureAggregator& base, size_t shard_count,
                       ThreadPool* pool) {
  if (shard_count < 1) return InvalidArgumentError("shard count must be >= 1");
  std::vector<std::unique_ptr<SecureAggregator>> aggregators(shard_count);
  if (shard_count == 1) return aggregators;
  std::vector<Status> statuses(shard_count);
  const auto derive = [&](size_t begin, size_t end) {
    for (size_t s = begin; s < end; ++s) {
      auto derived = base.CreateShardAggregator(s, shard_count);
      if (derived.ok()) {
        aggregators[s] = std::move(*derived);
      } else {
        statuses[s] = derived.status();
      }
    }
  };
  if (pool != nullptr) {
    pool->ParallelFor(shard_count, [&](int, size_t begin, size_t end) {
      derive(begin, end);
    });
  } else {
    derive(0, shard_count);
  }
  for (const Status& status : statuses) SMM_RETURN_IF_ERROR(status);
  return aggregators;
}

StatusOr<std::unique_ptr<StreamingAggregator>> IdealAggregator::Open(
    size_t dim, uint64_t m, ThreadPool* pool) {
  SMM_RETURN_IF_ERROR(ValidateStreamParams(dim, m));
  return std::unique_ptr<StreamingAggregator>(
      new StreamingAggregator(dim, m, pool));
}

/// The masked protocol's server-side stream: a running sum of masked
/// inputs plus an O(n)-bit record of who contributed. Dropout recovery is
/// deferred to Finalize, where everyone not absorbed counts as dropped.
class MaskedAggregator::Stream final : public StreamingAggregator {
 public:
  Stream(const MaskedAggregator& parent, size_t dim, uint64_t m,
         ThreadPool* pool)
      : StreamingAggregator(dim, m, pool),
        parent_(parent),
        seen_(static_cast<size_t>(parent.options_.num_participants), false) {}

 protected:
  Status AdmitParticipant(int participant_id) override {
    SMM_RETURN_IF_ERROR(ValidateParticipant(participant_id));
    seen_[static_cast<size_t>(participant_id)] = true;
    return OkStatus();
  }

  Status AdmitTile(const std::vector<int>& participant_ids) override {
    // Validate the whole tile (including duplicates *within* it) before
    // recording anyone, so a rejected tile leaves no participant marked
    // absorbed whose input was never accumulated.
    std::vector<bool> in_tile(seen_.size(), false);
    for (int id : participant_ids) {
      SMM_RETURN_IF_ERROR(ValidateParticipant(id));
      if (in_tile[static_cast<size_t>(id)]) {
        return InvalidArgumentError("participant absorbed twice");
      }
      in_tile[static_cast<size_t>(id)] = true;
    }
    for (int id : participant_ids) seen_[static_cast<size_t>(id)] = true;
    return OkStatus();
  }

  Status FinalizeInto(std::vector<uint64_t>& sum) override {
    std::vector<int> survivors;
    for (int i = 0; i < parent_.options_.num_participants; ++i) {
      if (seen_[static_cast<size_t>(i)]) survivors.push_back(i);
    }
    if (static_cast<int>(survivors.size()) < parent_.options_.threshold) {
      return FailedPreconditionError(
          "fewer survivors than the Shamir threshold; cannot unmask");
    }
    return parent_.RecoverDroppedMasks(survivors, modulus(), pool(), sum);
  }

 private:
  Status ValidateParticipant(int participant_id) const {
    if (participant_id < 0 ||
        participant_id >= parent_.options_.num_participants) {
      return InvalidArgumentError("participant index out of range");
    }
    if (seen_[static_cast<size_t>(participant_id)]) {
      return InvalidArgumentError("participant absorbed twice");
    }
    return OkStatus();
  }

  const MaskedAggregator& parent_;
  std::vector<bool> seen_;
};

MaskedAggregator::MaskedAggregator(
    Options options, std::vector<std::vector<uint64_t>> seeds,
    std::vector<std::vector<std::vector<ShamirShare>>> shares)
    : options_(options),
      seeds_(std::move(seeds)),
      shares_(std::move(shares)) {}

StatusOr<std::unique_ptr<MaskedAggregator>> MaskedAggregator::Create(
    const Options& options) {
  const int n = options.num_participants;
  if (n < 2) return InvalidArgumentError("need at least 2 participants");
  if (options.threshold < 1 || options.threshold > n) {
    return InvalidArgumentError("need 1 <= threshold <= num_participants");
  }
  RandomGenerator rng(options.session_seed);
  // Pairwise seed agreement (simulating the DH key exchange of SecAgg
  // round 0): one uniform seed per unordered pair.
  std::vector<std::vector<uint64_t>> seeds(
      n, std::vector<uint64_t>(static_cast<size_t>(n), 0));
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      // Keep seeds in the Shamir field so they can be shared verbatim.
      seeds[i][j] = rng.UniformUint64(kShamirPrime);
    }
  }
  // Each pair seed is Shamir-shared among all n participants so the server
  // can recover masks of dropped participants from any `threshold`
  // survivors.
  std::vector<std::vector<std::vector<ShamirShare>>> shares(
      n, std::vector<std::vector<ShamirShare>>(static_cast<size_t>(n)));
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      SMM_ASSIGN_OR_RETURN(
          shares[i][j], ShamirSplit(seeds[i][j], options.threshold, n, rng));
    }
  }
  return std::unique_ptr<MaskedAggregator>(new MaskedAggregator(
      options, std::move(seeds), std::move(shares)));
}

void MaskedAggregator::AccumulateMask(uint64_t seed, uint64_t m, int sign,
                                      std::vector<uint64_t>& acc) {
  RandomGenerator prg(seed);
  // The PRG expansion is inherently serial (rejection sampling per draw),
  // but the modular accumulate is not: draw one stack tile at a time — in
  // exactly the per-coordinate order the historical fused loop used — and
  // fold it in with the vector kernel.
  constexpr size_t kTile = 256;
  uint64_t draws[kTile];
  const size_t n = acc.size();
  for (size_t base = 0; base < n; base += kTile) {
    const size_t len = n - base < kTile ? n - base : kTile;
    for (size_t k = 0; k < len; ++k) draws[k] = prg.UniformUint64(m);
    if (sign > 0) {
      simd::AddModVec(acc.data() + base, draws, len, m);
    } else {
      simd::SubModVec(acc.data() + base, draws, len, m);
    }
  }
}

uint64_t MaskedAggregator::PairSeed(int i, int j) const {
  return seeds_[std::min(i, j)][std::max(i, j)];
}

StatusOr<std::vector<uint64_t>> MaskedAggregator::MaskInput(
    int participant, const std::vector<uint64_t>& input, uint64_t m,
    ThreadPool* pool) const {
  const int n = options_.num_participants;
  if (participant < 0 || participant >= n) {
    return InvalidArgumentError("participant index out of range");
  }
  if (input.empty()) return InvalidArgumentError("empty input");
  if (m < 2) return InvalidArgumentError("modulus must be >= 2");
  std::vector<uint64_t> out(input.size());
  simd::ModReduceInto(input.data(), input.size(), m, out.data());
  // Participant i adds +PRG(s_ij) for j > i and -PRG(s_ij) for j < i; the
  // contributions cancel pairwise in the full sum. Pair index p enumerates
  // the n - 1 counterparties in increasing j order.
  const size_t num_pairs = static_cast<size_t>(n - 1);
  const auto accumulate_pairs = [&](size_t begin, size_t end,
                                    std::vector<uint64_t>& acc) {
    for (size_t p = begin; p < end; ++p) {
      const int j = static_cast<int>(p) < participant
                        ? static_cast<int>(p)
                        : static_cast<int>(p) + 1;
      AccumulateMask(PairSeed(participant, j), m, j > participant ? 1 : -1,
                     acc);
    }
  };
  SMM_RETURN_IF_ERROR(ShardedModularAccumulate(
      pool, num_pairs, m, out,
      [&](size_t begin, size_t end, std::vector<uint64_t>& acc) {
        accumulate_pairs(begin, end, acc);
        return OkStatus();
      }));
  return out;
}

Status MaskedAggregator::RecoverDroppedMasks(const std::vector<int>& survivors,
                                             uint64_t m, ThreadPool* pool,
                                             std::vector<uint64_t>& sum) const {
  const int n = options_.num_participants;
  // Masks between two survivors cancel. For every (survivor, dropped) pair,
  // reconstruct the pair seed from the survivors' shares and remove the
  // leftover mask term. The pairs are enumerated up front and sharded
  // across the pool; each pair's mask comes from its own PRG stream, so the
  // chunking never changes the result.
  std::unordered_set<int> survivor_set(survivors.begin(), survivors.end());
  std::vector<std::pair<int, int>> recovery_pairs;
  for (int i : survivors) {
    for (int j = 0; j < n; ++j) {
      if (j == i || survivor_set.count(j) > 0) continue;
      recovery_pairs.emplace_back(i, j);
    }
  }
  if (recovery_pairs.empty()) return OkStatus();
  // Every pair seed was split at the same points (participant k holds the
  // share at x = k + 1), so the first `threshold` survivors' points give
  // one Lagrange basis for every pair, and each reconstruction is a
  // threshold-term dot product with that pair's share values.
  const size_t threshold = static_cast<size_t>(options_.threshold);
  const auto share_of = [&](std::pair<int, int> pair, size_t k) {
    const auto [i, j] = pair;
    return shares_[std::min(i, j)][std::max(i, j)]
                  [static_cast<size_t>(survivors[k])];
  };
  std::vector<uint64_t> points(threshold);
  for (size_t k = 0; k < threshold; ++k) {
    points[k] = share_of(recovery_pairs[0], k).x;
  }
  SMM_ASSIGN_OR_RETURN(const std::vector<uint64_t> basis,
                       ShamirBasisAtZero(points, options_.threshold));
  const auto recover_range = [&](size_t begin, size_t end,
                                 std::vector<uint64_t>& acc) -> Status {
    std::vector<uint64_t> ys(threshold);
    for (size_t p = begin; p < end; ++p) {
      for (size_t k = 0; k < threshold; ++k) {
        ys[k] = share_of(recovery_pairs[p], k).y;
      }
      const uint64_t seed = ShamirCombineAtZero(basis, ys);
      // Survivor i added +mask for j > i expecting j to cancel it
      // (subtract); for j < i it added -mask (add back).
      const auto [i, j] = recovery_pairs[p];
      AccumulateMask(seed, m, j > i ? -1 : 1, acc);
    }
    return OkStatus();
  };
  return ShardedModularAccumulate(pool, recovery_pairs.size(), m, sum,
                                  recover_range);
}

StatusOr<std::vector<uint64_t>> MaskedAggregator::PrepareContribution(
    int participant, const std::vector<uint64_t>& input, uint64_t m,
    ThreadPool* pool) const {
  return MaskInput(participant, input, m, pool);
}

StatusOr<std::unique_ptr<StreamingAggregator>> MaskedAggregator::Open(
    size_t dim, uint64_t m, ThreadPool* pool) {
  SMM_RETURN_IF_ERROR(ValidateStreamParams(dim, m));
  return std::unique_ptr<StreamingAggregator>(
      new Stream(*this, dim, m, pool));
}

StatusOr<std::unique_ptr<SecureAggregator>>
MaskedAggregator::CreateShardAggregator(size_t shard_index,
                                        size_t shard_count) const {
  if (shard_count < 1 || shard_index >= shard_count) {
    return InvalidArgumentError("shard index out of range");
  }
  if (shard_count == 1) return std::unique_ptr<SecureAggregator>(nullptr);
  Options shard_options = options_;
  // Each shard runs an independent protocol instance: distinct pairwise
  // seeds per shard (mask streams must not repeat across dimension ranges)
  // and its own Shamir sharing, so dropout recovery is local to the shard.
  shard_options.session_seed = options_.session_seed + shard_index;
  SMM_ASSIGN_OR_RETURN(auto aggregator, Create(shard_options));
  return std::unique_ptr<SecureAggregator>(std::move(aggregator));
}

}  // namespace smm::secagg
