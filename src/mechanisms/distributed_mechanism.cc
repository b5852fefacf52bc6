#include "mechanisms/distributed_mechanism.h"

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "common/simd.h"
#include "mechanisms/clipping.h"
#include "mechanisms/conditional_rounding.h"
#include "secagg/session.h"
#include "secagg/sharded_coordinator.h"
#include "secagg/transport.h"

namespace smm::mechanisms {

namespace {

/// Block size (in doubles / int64s) for the fused encode sweeps: 2048
/// elements = 16 KiB, matching the Walsh-Hadamard kernel's cache block, so
/// every fused sweep touches one L1-resident block at a time. The block
/// size never affects results — every stage is either per-element or an
/// order-preserving chained reduction, and the RNG-consuming stages visit
/// coordinates in order regardless of blocking.
constexpr size_t kFusedBlockElems = 2048;

}  // namespace

StatusOr<std::vector<uint64_t>> RotatedModularMechanism::EncodeParticipant(
    const std::vector<double>& x, RandomGenerator& rng) {
  EncodeWorkspace workspace;
  EncodeCounters counters;
  std::vector<uint64_t> out;
  SMM_RETURN_IF_ERROR(codec_.RotateScaleInto(x, workspace.real));
  SMM_RETURN_IF_ERROR(PerturbRotatedInto(rng, workspace, counters));
  codec_.WrapInto(workspace.ints, &counters.overflow, out);
  PublishCounters(counters);
  return out;
}

Status RotatedModularMechanism::EncodeBatch(
    const std::vector<std::vector<double>>& inputs, size_t begin, size_t end,
    RandomGenerator* rng_streams, EncodeWorkspace& workspace,
    std::vector<std::vector<uint64_t>>* out) {
  const size_t d = codec_.dim();
  EncodeCounters counters;
  // kTileRowsPerThread participants per batched rotation bound
  // workspace.batch to that many rows of d doubles while still amortizing
  // one batched Walsh-Hadamard dispatch over many rows.
  for (size_t tile = begin; tile < end; tile += kTileRowsPerThread) {
    const size_t tile_end = std::min(end, tile + kTileRowsPerThread);
    // Raw batched rotate (butterflies + sign flips only): normalization and
    // gamma move into FusedEncodeRow's first blocked sweep. Rotation draws
    // no randomness, so tiling never changes the encoding.
    SMM_RETURN_IF_ERROR(codec_.RotateRawBatchInto(inputs, tile, tile_end,
                                                  workspace.batch));
    for (size_t i = tile; i < tile_end; ++i) {
      double* row = workspace.batch.data() + (i - tile) * d;
      SMM_RETURN_IF_ERROR(FusedEncodeRow(row, rng_streams[i], workspace,
                                         counters, (*out)[i]));
    }
  }
  PublishCounters(counters);
  return OkStatus();
}

Status RotatedModularMechanism::FusedEncodeRow(double* row,
                                               RandomGenerator& rng,
                                               EncodeWorkspace& workspace,
                                               EncodeCounters& counters,
                                               std::vector<uint64_t>& out) {
  const FusedPerturbSpec& spec = fused_spec_;
  const size_t d = codec_.dim();
  const double norm_scale = codec_.wht_norm_scale();
  const double gamma = codec_.gamma();
  const uint64_t m = codec_.modulus();

  // Sweep 1 — finish the rotation and reduce the clip statistic, one
  // L1-resident block at a time: Hadamard normalization (skipped when the
  // codec left nothing unapplied) and the gamma scale are the same two IEEE
  // multiplies per element EncodeParticipant performs full-vector, and the
  // chained reduce accumulates contributions in coordinate order, so the
  // statistic matches the full-vector reduction bit-for-bit.
  double reduced = 0.0;
  for (size_t b = 0; b < d; b += kFusedBlockElems) {
    const size_t n = std::min(kFusedBlockElems, d - b);
    double* blk = row + b;
    if (norm_scale != 1.0) simd::ScaleInPlace(blk, n, norm_scale);
    simd::ScaleInPlace(blk, n, gamma);
    reduced = spec.clip == FusedPerturbSpec::Clip::kSmm
                  ? SmmClipReduce(blk, n, reduced)
                  : L2NormSqReduce(blk, n, reduced);
  }

  // Sweep 2 — clip apply + rounding. The apply stage is per-element (it
  // recomputes each coordinate's contribution from the unchanged row, or
  // multiplies by one precomputed scale), so blocking cannot change it; the
  // rounding draws are consumed strictly in coordinate order across blocks,
  // exactly like EncodeParticipant's whole-row rounding. Conditional
  // rounding accepts/rejects on the whole rounded row, so that variant
  // clips blockwise and then rounds in one unblocked call between sweeps.
  workspace.ints.resize(d);
  if (spec.clip == FusedPerturbSpec::Clip::kSmm) {
    const double scale = reduced > spec.smm_c ? spec.smm_c / reduced : 1.0;
    for (size_t b = 0; b < d; b += kFusedBlockElems) {
      const size_t n = std::min(kFusedBlockElems, d - b);
      SmmClipApply(row + b, n, scale, spec.smm_delta_inf);
      simd::ScaleRoundStochasticInto(row + b, n, /*scale=*/1.0, rng,
                                     workspace.ints.data() + b);
    }
  } else {
    const double norm = std::sqrt(reduced);
    const bool clip = norm > spec.l2_threshold && norm > 0.0;
    const double scale = clip ? spec.l2_threshold / norm : 1.0;
    if (spec.conditional_round) {
      for (size_t b = 0; b < d; b += kFusedBlockElems) {
        const size_t n = std::min(kFusedBlockElems, d - b);
        if (clip) simd::ScaleInPlace(row + b, n, scale);
      }
      SMM_RETURN_IF_ERROR(ConditionallyRoundInto(
          row, d, spec.norm_bound, spec.max_retries, rng,
          spec.track_rejections ? &counters.rejections : nullptr,
          workspace.ints));
    } else {
      // The clip multiply folds into the rounding kernel's scale argument:
      // for clipped rows the kernel's g = x * scale is the identical IEEE
      // product the separate apply pass would have stored, and unclipped
      // rows multiply by exactly 1.0 just like EncodeParticipant's
      // StochasticRoundInto. Folding means the row is only *read* here, so
      // its cache lines evict clean instead of costing a write-back.
      for (size_t b = 0; b < d; b += kFusedBlockElems) {
        const size_t n = std::min(kFusedBlockElems, d - b);
        simd::ScaleRoundStochasticInto(row + b, n, scale, rng,
                                       workspace.ints.data() + b);
      }
    }
  }

  // Sweep 3 — noise + add + modular wrap straight into the output row. The
  // sample_block contract (n scalar draws in order) makes blockwise
  // sampling consume the rng identically to one whole-row SampleBlock, and
  // running it only after sweep 2 preserves the historical global order:
  // all rounding draws, then all noise draws.
  out.resize(d);
  for (size_t b = 0; b < d; b += kFusedBlockElems) {
    const size_t n = std::min(kFusedBlockElems, d - b);
    workspace.noise.resize(n);
    spec.sample_block(n, workspace.noise.data(), rng);
    // Accumulate into the block-sized noise buffer (L1-resident across
    // blocks) rather than the row-sized ints buffer: int64 addition
    // commutes, so noise + rounded is the same sum, but the ints row is
    // only read — its lines evict clean — and the dirty lines are the
    // 16 KiB that never leave L1.
    simd::AddI64InPlace(workspace.noise.data(), workspace.ints.data() + b, n);
    counters.overflow += static_cast<int64_t>(simd::WrapCenteredInto(
        workspace.noise.data(), n, m, out.data() + b));
  }
  return OkStatus();
}

StatusOr<std::vector<double>> RotatedModularMechanism::DecodeSum(
    const std::vector<uint64_t>& zm_sum, int num_participants) {
  (void)num_participants;  // The default decode is unbiased for any count.
  return codec_.Decode(zm_sum);
}

namespace {

/// Encodes inputs[begin..end) into (*out)[begin..end), sharding the range
/// across `pool` (nullptr or a 1-thread pool runs inline) — the range core
/// behind EncodeBatchParallel and RunDistributedSum's tile loop. Results
/// are bit-identical to the sequential path because participant i's encode
/// reads only inputs[i] and rng_streams[i].
Status EncodeRangeParallel(DistributedSumMechanism& mechanism,
                           const std::vector<std::vector<double>>& inputs,
                           size_t begin, size_t end,
                           RandomGenerator* rng_streams, ThreadPool* pool,
                           std::vector<std::vector<uint64_t>>* out) {
  if (pool == nullptr || pool->num_threads() == 1) {
    EncodeWorkspace workspace;
    return mechanism.EncodeBatch(inputs, begin, end, rng_streams, workspace,
                                 out);
  }
  // Static contiguous shards, one workspace per shard.
  std::vector<Status> shard_status(static_cast<size_t>(pool->num_threads()));
  pool->ParallelFor(end - begin, [&](int chunk, size_t b, size_t e) {
    EncodeWorkspace workspace;
    shard_status[static_cast<size_t>(chunk)] = mechanism.EncodeBatch(
        inputs, begin + b, begin + e, rng_streams, workspace, out);
  });
  for (const Status& status : shard_status) {
    if (!status.ok()) return status;
  }
  return OkStatus();
}

}  // namespace

StatusOr<std::vector<std::vector<uint64_t>>> EncodeBatchParallel(
    DistributedSumMechanism& mechanism,
    const std::vector<std::vector<double>>& inputs,
    std::vector<RandomGenerator>& rng_streams, ThreadPool* pool) {
  if (inputs.size() != rng_streams.size()) {
    return InvalidArgumentError("one rng stream per input required");
  }
  std::vector<std::vector<uint64_t>> encoded(inputs.size());
  if (inputs.empty()) return encoded;
  SMM_RETURN_IF_ERROR(EncodeRangeParallel(mechanism, inputs, 0, inputs.size(),
                                          rng_streams.data(), pool, &encoded));
  return encoded;
}

StatusOr<std::vector<double>> RunDistributedSum(
    DistributedSumMechanism& mechanism, secagg::SecureAggregator& aggregator,
    const std::vector<std::vector<double>>& inputs, RandomGenerator& rng,
    ThreadPool* pool, size_t shard_count) {
  if (inputs.empty()) return InvalidArgumentError("no inputs");
  const uint64_t m = mechanism.modulus();
  const int threads = pool != nullptr ? pool->num_threads() : 1;
  // One batched-rotation tile's worth of rows per thread stays resident
  // before the frames drain into the aggregation stream. The tile size
  // never affects results (encoding reads only per-participant streams, and
  // absorption is exact mod m).
  const size_t tile_size = DefaultTileRows(threads);

  // The full client -> server message flow: each tile of participants is
  // encoded in place, prepared for the wire (masked, under the masked
  // protocol; sliced per shard when the round is sharded), framed, sent
  // over the loopback transport, and absorbed by the round's worker streams
  // before the next tile is encoded. Resident state is one tile of
  // encodings plus the workers' O(threads·d) running sums, never an
  // O(participants·d) encoded buffer. (The `encoded` vector below has one
  // entry per participant, but only the current tile's entries ever hold a
  // payload; outside the tile they are empty, so its footprint has no d
  // factor — same order as the per-participant rng streams.)
  //
  // The ShardedCoordinator at shard_count == 1 runs exactly one unsharded
  // AggregationSession over version-1 frames, so the single-shard round is
  // byte-identical to the pre-shard pipeline; at K > 1 each worker sums one
  // dimension range and the Finalize merge is bit-identical to it.
  secagg::ShardedCoordinator::Options round_options;
  round_options.dim = mechanism.dim();
  round_options.modulus = m;
  round_options.shard_count = shard_count;
  round_options.pool = pool;
  // Frames come from this very pipeline (trusted, no duplicates), so each
  // worker may buffer a whole tile and absorb it with one sharded
  // fork/join rather than one per frame.
  round_options.tile_rows = tile_size;
  SMM_ASSIGN_OR_RETURN(
      auto round, secagg::ShardedCoordinator::Open(aggregator, round_options));
  // The round runs against the FrameTransport interface; the in-memory
  // backend is just the zero-configuration choice for an in-process round.
  secagg::InMemoryTransport loopback;
  secagg::FrameTransport& transport = loopback;

  std::vector<RandomGenerator> streams =
      MakeParticipantStreams(rng, inputs.size());
  std::vector<std::vector<uint64_t>> encoded(inputs.size());
  for (size_t tile_begin = 0; tile_begin < inputs.size();
       tile_begin += tile_size) {
    const size_t tile_end = std::min(inputs.size(), tile_begin + tile_size);
    SMM_RETURN_IF_ERROR(EncodeRangeParallel(mechanism, inputs, tile_begin,
                                            tile_end, streams.data(), pool,
                                            &encoded));
    for (size_t t = tile_begin; t < tile_end; ++t) {
      const int participant = static_cast<int>(t);
      SMM_ASSIGN_OR_RETURN(
          auto frames, round->EncodeShardedContribution(participant,
                                                        encoded[t]));
      // Release the tile entry before the frames travel: the encoding is
      // done with, and the buffer must not accumulate across tiles.
      std::vector<uint64_t>().swap(encoded[t]);
      for (auto& frame : frames) {
        SMM_RETURN_IF_ERROR(transport.Send(participant, std::move(frame)));
      }
    }
    SMM_RETURN_IF_ERROR(round->DrainTransport(transport));
  }
  SMM_ASSIGN_OR_RETURN(secagg::SumMsg sum, round->Finalize());
  return mechanism.DecodeSum(sum.sum, static_cast<int>(inputs.size()));
}

StatusOr<double> MeanSquaredErrorPerDimension(
    const std::vector<double>& estimate,
    const std::vector<std::vector<double>>& inputs) {
  if (inputs.empty()) return InvalidArgumentError("no inputs");
  const size_t d = inputs[0].size();
  if (d == 0) return InvalidArgumentError("empty input rows");
  for (const auto& x : inputs) {
    if (x.size() != d) {
      return InvalidArgumentError("ragged input rows: dimension mismatch");
    }
  }
  if (estimate.size() != d) {
    return InvalidArgumentError("estimate dimension does not match inputs");
  }
  double sum_sq = 0.0;
  for (size_t j = 0; j < d; ++j) {
    double exact = 0.0;
    for (const auto& x : inputs) exact += x[j];
    const double e = estimate[j] - exact;
    sum_sq += e * e;
  }
  return sum_sq / static_cast<double>(d);
}

}  // namespace smm::mechanisms
