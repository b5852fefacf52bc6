#ifndef SMM_SECAGG_SHARD_PLAN_H_
#define SMM_SECAGG_SHARD_PLAN_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/status.h"
#include "secagg/transport.h"

namespace smm::secagg {

/// Partition of the coordinate range [0, dim) into `shard_count` contiguous
/// dimension ranges — the slicing rule every layer of the sharded tier
/// agrees on. A round's d need not divide by K: the first d % K shards own
/// ceil(d / K) coordinates, the rest floor(d / K), so shard widths differ
/// by at most one and concatenating the ranges in shard order reproduces
/// [0, dim) exactly. Empty shards cannot exist: Create rejects K > d (and
/// K < 1) with kInvalidArgument, so every worker owns at least one
/// coordinate and every sliced ContributionMsg has a non-empty payload.
///
/// The plan is a pure function of (dim, shard_count); clients and servers
/// construct it independently and agree on every ShardSpec byte-for-byte.
class ShardPlan {
 public:
  /// Builds the plan for `dim` coordinates over `shard_count` shards.
  /// kInvalidArgument if dim < 1, shard_count < 1, shard_count > dim, or
  /// dim exceeds the u32 coordinate space of ShardSpec.
  static StatusOr<ShardPlan> Create(size_t dim, size_t shard_count);

  size_t dim() const { return dim_; }
  size_t shard_count() const { return shard_count_; }

  /// First coordinate of `shard` (< shard_count()).
  size_t Offset(size_t shard) const;

  /// Number of coordinates `shard` owns; >= 1 for every valid shard.
  size_t Width(size_t shard) const;

  /// The wire-format spec addressing `shard`, as carried by every sliced
  /// ContributionMsg of the round.
  ShardSpec Spec(size_t shard) const;

  /// Copies `shard`'s coordinate range out of a full d-vector.
  /// kInvalidArgument if full.size() != dim().
  StatusOr<std::vector<uint64_t>> Slice(const std::vector<uint64_t>& full,
                                        size_t shard) const;

 private:
  ShardPlan(size_t dim, size_t shard_count)
      : dim_(dim), shard_count_(shard_count) {}

  size_t dim_ = 0;
  size_t shard_count_ = 0;
};

}  // namespace smm::secagg

#endif  // SMM_SECAGG_SHARD_PLAN_H_
