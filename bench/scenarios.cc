// The registered benchmark scenarios, expressed against the Scenario
// interface so bench_matrix can enumerate them. Every scenario seeds its
// generators from fixed constants, so the measured work — and the
// bit-identity cross-checks — are reproducible run to run.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <thread>

#include "common/parallel.h"
#include "common/random.h"
#include "common/simd.h"
#include "common/tuning.h"
#include "mechanisms/baseline_mechanisms.h"
#include "mechanisms/distributed_mechanism.h"
#include "mechanisms/smm_mechanism.h"
#include "net/client.h"
#include "net/retry.h"
#include "net/server.h"
#include "runner.h"
#include "secagg/fault_injection.h"
#include "secagg/secure_aggregator.h"
#include "secagg/session.h"
#include "secagg/sharded_coordinator.h"
#include "secagg/transport.h"
#include "simd_cases.h"
#include "transform/walsh_hadamard.h"

namespace smm::bench {
namespace {

constexpr uint64_t kPrime64 = 18446744073709551557ULL;  // 2^64 - 59.

int Repeats(const RunOptions& options, int fast, int other) {
  if (options.repeats > 0) return options.repeats;
  return options.scale == Scale::kFast ? fast : other;
}

std::vector<std::vector<double>> MakeInputs(size_t n, size_t dim) {
  RandomGenerator rng(17);
  std::vector<std::vector<double>> inputs(n, std::vector<double>(dim));
  for (auto& x : inputs) {
    for (auto& v : x) v = rng.Gaussian(0.0, 0.01);
  }
  return inputs;
}

// ---------------------------------------------------------------------------
// encode: EncodeBatchParallel for SMM and DDG — the batched encode hot path
// with the tiled batched-rotation pre-pass. Mechanism is a real axis.
// ---------------------------------------------------------------------------

class EncodeScenario : public Scenario {
 public:
  const char* name() const override { return "encode"; }
  const char* description() const override {
    return "parallel batched encode (SMM / DDG) across thread counts";
  }

  ScenarioAxes Axes(const RunOptions& options) override {
    ScenarioAxes axes;
    axes.mechanisms = {"smm", "ddg"};
    axes.moduli = {{"pow2_16", uint64_t{1} << 16}};
    axes.dims = {options.scale == Scale::kFast ? size_t{1} << 10
                                               : size_t{1} << 14};
    axes.participants = {options.scale == Scale::kFull ? size_t{64}
                                                       : size_t{32}};
    axes.threads = {1, 2, 4, 8};
    return axes;
  }

  StatusOr<std::vector<PointResult>> RunPoint(
      const ScenarioPoint& point, const RunOptions& options) override {
    SMM_ASSIGN_OR_RETURN(auto mechanism, MakeMechanism(point));
    const auto inputs = MakeInputs(point.participants, point.dim);
    const int repeats = Repeats(options, 2, 3);

    ThreadPool pool(point.threads);
    std::vector<std::vector<uint64_t>> encoded;
    double best_seconds = 1e300;
    for (int r = 0; r < repeats; ++r) {
      RandomGenerator rng(4242);
      std::vector<RandomGenerator> streams =
          MakeParticipantStreams(rng, inputs.size());
      Status status = OkStatus();
      const double seconds = TimeSeconds([&] {
        auto result = mechanisms::EncodeBatchParallel(*mechanism, inputs,
                                                      streams, &pool);
        if (!result.ok()) {
          status = result.status();
          return;
        }
        encoded = std::move(*result);
      });
      SMM_RETURN_IF_ERROR(status);
      best_seconds = std::min(best_seconds, seconds);
    }

    PointResult result;
    result.label = "encode_" + point.mechanism;
    result.seconds = best_seconds;
    result.items = static_cast<double>(point.participants) *
                   static_cast<double>(point.dim);
    if (point.threads == 1) {
      reference_ = std::move(encoded);
    } else {
      result.bit_identical = encoded == reference_;
    }
    return std::vector<PointResult>{std::move(result)};
  }

 private:
  StatusOr<std::unique_ptr<mechanisms::DistributedSumMechanism>>
  MakeMechanism(const ScenarioPoint& point) {
    if (point.mechanism == "smm") {
      mechanisms::SmmMechanism::Options o;
      o.dim = point.dim;
      o.gamma = 64.0;
      o.c = 4096.0;
      o.delta_inf = 64.0;
      o.lambda = 2.0;
      o.modulus = point.modulus;
      o.rotation_seed = 99;
      SMM_ASSIGN_OR_RETURN(auto mech, mechanisms::SmmMechanism::Create(o));
      return std::unique_ptr<mechanisms::DistributedSumMechanism>(
          std::move(mech));
    }
    if (point.mechanism == "ddg") {
      mechanisms::DdgMechanism::Options o;
      o.dim = point.dim;
      o.gamma = 64.0;
      o.l2_bound = 1.0;
      o.sigma = 2.0;
      o.modulus = point.modulus;
      o.rotation_seed = 99;
      SMM_ASSIGN_OR_RETURN(auto mech, mechanisms::DdgMechanism::Create(o));
      return std::unique_ptr<mechanisms::DistributedSumMechanism>(
          std::move(mech));
    }
    return InvalidArgumentError("unknown encode mechanism: " +
                                point.mechanism);
  }

  /// 1-thread reference encodings of the current outer-axis combination.
  std::vector<std::vector<uint64_t>> reference_;
};

// ---------------------------------------------------------------------------
// rotation_batch: the batched Walsh-Hadamard transform on its own.
// ---------------------------------------------------------------------------

class RotationScenario : public Scenario {
 public:
  const char* name() const override { return "rotation_batch"; }
  const char* description() const override {
    return "batched Walsh-Hadamard rotation across thread counts";
  }

  ScenarioAxes Axes(const RunOptions& options) override {
    ScenarioAxes axes;
    axes.dims = {options.scale == Scale::kFast ? size_t{1} << 10
                                               : size_t{1} << 14};
    axes.participants = {options.scale == Scale::kFast ? size_t{64}
                                                       : size_t{256}};
    axes.threads = {1, 2, 4, 8};
    return axes;
  }

  StatusOr<std::vector<PointResult>> RunPoint(
      const ScenarioPoint& point, const RunOptions& options) override {
    const size_t batch = point.participants;
    const size_t dim = point.dim;
    RandomGenerator rng(29);
    std::vector<double> original(batch * dim);
    for (double& v : original) v = rng.Gaussian(0.0, 1.0);

    ThreadPool pool(point.threads);
    std::vector<double> data;
    Status status = OkStatus();
    const double best_seconds = BestOfN(
        Repeats(options, 2, 3),
        [&] {
          auto s =
              transform::FastWalshHadamardBatch(data.data(), batch, dim,
                                                &pool);
          if (!s.ok()) status = s;
        },
        [&] { data = original; });
    SMM_RETURN_IF_ERROR(status);

    PointResult result;
    result.label = "rotation_batch";
    result.seconds = best_seconds;
    result.items = static_cast<double>(batch * dim);
    if (point.threads == 1) {
      reference_ = std::move(data);
    } else {
      result.bit_identical = data == reference_;
    }
    return std::vector<PointResult>{std::move(result)};
  }

 private:
  std::vector<double> reference_;
};

// ---------------------------------------------------------------------------
// streaming_ideal: the streaming aggregation subsystem at participant
// counts 10-100x beyond what the batch-materializing path's O(n·d) buffer
// can hold. The modulus class is a real axis (the prime 2^64 - 59 is the
// wrap-prone default; --wide adds a power-of-two class).
// ---------------------------------------------------------------------------

class StreamingScenario : public Scenario {
 public:
  const char* name() const override { return "streaming_ideal"; }
  const char* description() const override {
    return "streaming ideal aggregation across thread counts and moduli";
  }

  ScenarioAxes Axes(const RunOptions& options) override {
    ScenarioAxes axes;
    axes.moduli = {{"prime64", kPrime64}};
    if (options.wide) {
      axes.moduli.push_back({"pow2_32", uint64_t{1} << 32});
    }
    axes.dims = {options.scale == Scale::kFast ? size_t{1} << 9
                                               : size_t{1} << 10};
    axes.participants = {options.scale == Scale::kFast ? size_t{1} << 14
                                                       : size_t{1} << 17};
    axes.threads = {1, 2, 4, 8};
    return axes;
  }

  StatusOr<std::vector<PointResult>> RunPoint(
      const ScenarioPoint& point, const RunOptions& options) override {
    const uint64_t m = point.modulus;
    constexpr size_t kTileRows = 256;
    const size_t participants =
        point.participants / kTileRows * kTileRows;  // Whole tiles only.
    const size_t dim = point.dim;
    // One pre-generated tile, absorbed over and over under rotating ids:
    // pure streaming-absorb throughput with exactly one tile resident, and
    // every thread count consumes identical data.
    RandomGenerator rng(23);
    std::vector<std::vector<uint64_t>> tile(kTileRows,
                                            std::vector<uint64_t>(dim));
    for (auto& row : tile) {
      for (auto& v : row) v = rng.UniformUint64(m);
    }
    std::vector<int> ids(kTileRows);

    secagg::IdealAggregator aggregator;
    ThreadPool pool(point.threads);
    std::vector<uint64_t> sum;
    Status status = OkStatus();
    const double best_seconds = BestOfN(Repeats(options, 2, 3), [&] {
      auto stream = aggregator.Open(dim, m, &pool);
      if (!stream.ok()) {
        status = stream.status();
        return;
      }
      for (size_t begin = 0; begin < participants; begin += kTileRows) {
        for (size_t i = 0; i < kTileRows; ++i) {
          ids[i] = static_cast<int>((begin + i) % 1000000);
        }
        auto absorb = (*stream)->AbsorbTile(ids, tile);
        if (!absorb.ok()) {
          status = absorb;
          return;
        }
      }
      auto finalized = (*stream)->Finalize();
      if (!finalized.ok()) {
        status = finalized.status();
        return;
      }
      sum = std::move(*finalized);
    });
    SMM_RETURN_IF_ERROR(status);

    PointResult result;
    result.label = "streaming_ideal";
    result.seconds = best_seconds;
    result.items =
        static_cast<double>(participants) * static_cast<double>(dim);
    if (point.threads == 1) {
      reference_ = std::move(sum);
    } else {
      result.bit_identical = sum == reference_;
    }
    return std::vector<PointResult>{std::move(result)};
  }

 private:
  std::vector<uint64_t> reference_;
};

// ---------------------------------------------------------------------------
// masked_secagg: a full Bonawitz-style round — parallel pairwise masking
// across survivors plus UnmaskSum with dropouts. Dropout rate is a real
// axis (the default reproduces the legacy last-2-drop-out round).
// ---------------------------------------------------------------------------

class MaskedSecaggScenario : public Scenario {
 public:
  const char* name() const override { return "masked_secagg"; }
  const char* description() const override {
    return "masked secure-aggregation round with dropouts across threads";
  }

  ScenarioAxes Axes(const RunOptions& options) override {
    ScenarioAxes axes;
    axes.moduli = {{"pow2_16", uint64_t{1} << 16}};
    const size_t participants = options.scale == Scale::kFast ? 16 : 32;
    axes.dims = {options.scale == Scale::kFast ? size_t{1} << 9
                                               : size_t{1} << 11};
    axes.participants = {participants};
    axes.dropout_rates = {2.0 / static_cast<double>(participants)};
    if (options.wide) axes.dropout_rates.push_back(0.25);
    axes.threads = {1, 2, 4, 8};
    return axes;
  }

  StatusOr<std::vector<PointResult>> RunPoint(
      const ScenarioPoint& point, const RunOptions& options) override {
    const int participants = static_cast<int>(point.participants);
    const int dropouts = static_cast<int>(
        point.dropout_rate * static_cast<double>(participants) + 0.5);
    const size_t dim = point.dim;
    const uint64_t m = point.modulus;

    secagg::MaskedAggregator::Options agg_options;
    agg_options.num_participants = participants;
    agg_options.threshold = participants / 2;
    agg_options.session_seed = 77;
    SMM_ASSIGN_OR_RETURN(auto aggregator,
                         secagg::MaskedAggregator::Create(agg_options));
    RandomGenerator rng(31);
    std::vector<std::vector<uint64_t>> inputs(
        static_cast<size_t>(participants), std::vector<uint64_t>(dim));
    for (auto& v : inputs) {
      for (auto& x : v) x = rng.UniformUint64(m);
    }
    // The last `dropouts` participants drop out after masking is
    // configured.
    std::vector<int> survivors;
    for (int i = 0; i < participants - dropouts; ++i) survivors.push_back(i);

    ThreadPool pool(point.threads);
    std::vector<uint64_t> sum;
    Status status = OkStatus();
    const double best_seconds = BestOfN(Repeats(options, 2, 3), [&] {
      // Client side: pairwise masking, sharded across survivors.
      std::vector<std::vector<uint64_t>> masked(survivors.size());
      std::atomic<bool> failed{false};
      pool.ParallelFor(survivors.size(), [&](int, size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) {
          const int p = survivors[i];
          auto mi =
              aggregator->MaskInput(p, inputs[static_cast<size_t>(p)], m);
          if (!mi.ok()) {
            failed.store(true, std::memory_order_relaxed);
            return;
          }
          masked[i] = std::move(*mi);
        }
      });
      // Server side: sum + dropout recovery, sharded on the same pool.
      auto unmasked = failed.load()
                          ? StatusOr<std::vector<uint64_t>>(
                                InternalError("masking failed"))
                          : aggregator->UnmaskSum(masked, survivors, dim, m,
                                                  &pool);
      if (!unmasked.ok()) {
        status = unmasked.status();
        return;
      }
      sum = std::move(*unmasked);
    });
    SMM_RETURN_IF_ERROR(status);

    PointResult result;
    result.label = "masked_secagg";
    result.seconds = best_seconds;
    // One work item = one masked coordinate contribution (n_surv * n * d
    // mask draws dominate).
    result.items = static_cast<double>(survivors.size()) *
                   static_cast<double>(participants) *
                   static_cast<double>(dim);
    if (point.threads == 1) {
      reference_ = std::move(sum);
    } else {
      result.bit_identical = sum == reference_;
    }
    return std::vector<PointResult>{std::move(result)};
  }

 private:
  std::vector<uint64_t> reference_;
};

// ---------------------------------------------------------------------------
// session_masked: the same masked protocol driven over the wire —
// participants mask, frame, and send ContributionMsg bytes through the
// loopback transport into an AggregationSession feeding the masked
// streaming sum. Corrupt-frame rate is a real axis: a corrupted frame is
// rejected at parse (counted, sum untouched) and its sender becomes a
// dropout the session recovers at Finalize.
// ---------------------------------------------------------------------------

class SessionMaskedScenario : public Scenario {
 public:
  const char* name() const override { return "session_masked"; }
  const char* description() const override {
    return "masked aggregation over framed transport across threads and "
           "corrupt-frame rates";
  }

  ScenarioAxes Axes(const RunOptions& options) override {
    ScenarioAxes axes;
    axes.moduli = {{"pow2_16", uint64_t{1} << 16}};
    const size_t participants = options.scale == Scale::kFast ? 16 : 32;
    axes.dims = {options.scale == Scale::kFast ? size_t{1} << 9
                                               : size_t{1} << 11};
    axes.participants = {participants};
    axes.dropout_rates = {2.0 / static_cast<double>(participants)};
    axes.corrupt_frame_rates = {0.0};
    if (options.wide) axes.corrupt_frame_rates.push_back(0.1);
    axes.threads = {1, 2, 4, 8};
    return axes;
  }

  StatusOr<std::vector<PointResult>> RunPoint(
      const ScenarioPoint& point, const RunOptions& options) override {
    const int participants = static_cast<int>(point.participants);
    const int dropouts = static_cast<int>(
        point.dropout_rate * static_cast<double>(participants) + 0.5);
    const size_t dim = point.dim;
    const uint64_t m = point.modulus;

    secagg::MaskedAggregator::Options agg_options;
    agg_options.num_participants = participants;
    agg_options.threshold = participants / 2;
    agg_options.session_seed = 79;
    SMM_ASSIGN_OR_RETURN(auto aggregator,
                         secagg::MaskedAggregator::Create(agg_options));
    RandomGenerator rng(37);
    std::vector<std::vector<uint64_t>> inputs(
        static_cast<size_t>(participants), std::vector<uint64_t>(dim));
    for (auto& v : inputs) {
      for (auto& x : v) x = rng.UniformUint64(m);
    }
    // The last `dropouts` participants never send a frame; the first
    // `corrupted` contributors send a damaged one. Both sets end up as
    // dropouts whose leftover masks the session recovers at Finalize — the
    // difference is that corrupted frames exercise the parse-reject path
    // and are counted by rejected_frames().
    const int contributors = participants - dropouts;
    const int corrupted = static_cast<int>(
        point.corrupt_frame_rate * static_cast<double>(contributors) + 0.5);

    ThreadPool pool(point.threads);
    std::vector<uint64_t> sum;
    size_t rejected = 0;
    Status status = OkStatus();
    const double best_seconds = BestOfN(Repeats(options, 2, 3), [&] {
      secagg::AggregationSession::Options session_options;
      session_options.dim = dim;
      session_options.modulus = m;
      session_options.pool = &pool;
      // Trusted in-process clients: absorb one sharded tile at a time (the
      // calibrated per-thread tile sizing the encode paths share).
      session_options.tile_rows = TunedTileRows(point.threads);
      auto session =
          secagg::AggregationSession::Open(*aggregator, session_options);
      if (!session.ok()) {
        status = session.status();
        return;
      }
      secagg::InMemoryTransport loopback;
      secagg::FrameTransport& transport = loopback;
      for (int p = 0; p < contributors; ++p) {
        secagg::ContributionMsg msg;
        msg.participant_id = p;
        msg.modulus = m;
        auto masked = aggregator->PrepareContribution(
            p, inputs[static_cast<size_t>(p)], m, &pool);
        if (!masked.ok()) {
          status = masked.status();
          return;
        }
        msg.payload = std::move(*masked);
        auto frame = secagg::EncodeFrame(msg);
        if (!frame.ok()) {
          status = frame.status();
          return;
        }
        const bool corrupt = p < corrupted;
        if (corrupt) (*frame)[frame->size() / 2] ^= 0xFF;
        if (!transport.Send(p, std::move(*frame)).ok()) {
          status = InternalError("frame delivery failed");
          return;
        }
        const Status drained = (*session)->DrainTransport(transport);
        // A damaged frame must be rejected; a clean one must land.
        if (drained.ok() == corrupt) {
          status = InternalError(
              corrupt ? "corrupt frame was accepted"
                      : "frame delivery failed: " + drained.ToString());
          return;
        }
      }
      rejected = (*session)->rejected_frames();
      auto finalized = (*session)->Finalize();
      if (!finalized.ok()) {
        status = finalized.status();
        return;
      }
      sum = std::move(finalized->sum);
    });
    SMM_RETURN_IF_ERROR(status);
    if (rejected != static_cast<size_t>(corrupted)) {
      return InternalError("session_masked rejected " +
                           std::to_string(rejected) + " frames, expected " +
                           std::to_string(corrupted));
    }

    PointResult result;
    result.label = "session_masked";
    result.seconds = best_seconds;
    // Work model mirrors masked_secagg: the O(contributors * n * d) mask
    // expansion dominates; framing adds O(contributors * d) byte shuffling.
    result.items = static_cast<double>(contributors) *
                   static_cast<double>(participants) *
                   static_cast<double>(dim);
    result.metrics.push_back(
        {"rejected_frames", static_cast<double>(rejected)});
    if (point.threads == 1) {
      reference_ = std::move(sum);
    } else {
      result.bit_identical = sum == reference_;
    }
    return std::vector<PointResult>{std::move(result)};
  }

 private:
  std::vector<uint64_t> reference_;
};

// ---------------------------------------------------------------------------
// sharded_sum: one logical round run as K shard workers plus the
// coordinator tree reduction, over the framed loopback transport. Shards
// and threads are real axes; the shards=1 / threads=1 point is the
// bit-identity reference, so every sharded point is cross-checked against
// the unsharded sum. Per-worker resident bytes (~dim/K) and the unsharded
// baseline land in the metrics.
// ---------------------------------------------------------------------------

class ShardedSumScenario : public Scenario {
 public:
  const char* name() const override { return "sharded_sum"; }
  const char* description() const override {
    return "sharded coordinator round vs unsharded across shard and thread "
           "counts";
  }

  ScenarioAxes Axes(const RunOptions& options) override {
    ScenarioAxes axes;
    axes.moduli = {{"prime64", kPrime64}};
    axes.dims = {options.scale == Scale::kFast ? size_t{1} << 9
                                               : size_t{1} << 11};
    axes.participants = {options.scale == Scale::kFast ? size_t{64}
                                                       : size_t{128}};
    axes.shards = {1, 2, 3, 8};
    axes.threads = {1, 2, 8};
    return axes;
  }

  StatusOr<std::vector<PointResult>> RunPoint(
      const ScenarioPoint& point, const RunOptions& options) override {
    const size_t dim = point.dim;
    const uint64_t m = point.modulus;
    const size_t participants = point.participants;
    const size_t shards = point.shards;

    RandomGenerator rng(41);
    std::vector<std::vector<uint64_t>> inputs(participants,
                                              std::vector<uint64_t>(dim));
    for (auto& v : inputs) {
      for (auto& x : v) x = rng.UniformUint64(m);
    }

    secagg::IdealAggregator aggregator;
    ThreadPool pool(point.threads);
    std::vector<uint64_t> sum;
    size_t worker_bytes = 0;
    secagg::FaultStats fault_stats;
    Status status = OkStatus();
    const double best_seconds = BestOfN(Repeats(options, 2, 3), [&] {
      secagg::ShardedCoordinator::Options coordinator_options;
      coordinator_options.dim = dim;
      coordinator_options.modulus = m;
      coordinator_options.shard_count = shards;
      coordinator_options.pool = &pool;
      coordinator_options.tile_rows = TunedTileRows(point.threads);
      auto round =
          secagg::ShardedCoordinator::Open(aggregator, coordinator_options);
      if (!round.ok()) {
        status = round.status();
        return;
      }
      // The frames travel through the chaos decorator with duplicate and
      // reorder faults on — the two faults first-wins dedup and commutative
      // modular addition absorb exactly — so every point also proves the
      // sharded sum is chaos-invariant, bit for bit.
      secagg::InMemoryTransport loopback;
      secagg::FaultSchedule schedule;
      schedule.duplicate = 0.10;
      schedule.reorder = 0.10;
      schedule.seed = 23;
      secagg::FaultInjectingTransport chaotic(loopback, schedule);
      for (size_t p = 0; p < participants; ++p) {
        auto frames = (*round)->EncodeShardedContribution(
            static_cast<int>(p), inputs[p]);
        if (!frames.ok()) {
          status = frames.status();
          return;
        }
        for (auto& frame : *frames) {
          if (!chaotic.Send(static_cast<int>(p), std::move(frame)).ok()) {
            status = InternalError("frame delivery failed");
            return;
          }
        }
      }
      if (!chaotic.FinishSending().ok()) {
        status = InternalError("chaos flush failed");
        return;
      }
      const Status drained = (*round)->DrainTransport(chaotic);
      if (!drained.ok()) {
        status = drained;
        return;
      }
      fault_stats = chaotic.stats();
      worker_bytes = 0;
      for (size_t s = 0; s < shards; ++s) {
        worker_bytes = std::max(worker_bytes, (*round)->ShardResidentBytes(s));
      }
      auto finalized = (*round)->Finalize();
      if (!finalized.ok()) {
        status = finalized.status();
        return;
      }
      sum = std::move(finalized->sum);
    });
    SMM_RETURN_IF_ERROR(status);

    PointResult result;
    result.label = "sharded_sum";
    result.seconds = best_seconds;
    // One work item = one aggregated coordinate, whatever the shard layout.
    result.items =
        static_cast<double>(participants) * static_cast<double>(dim);
    result.metrics.push_back(
        {"worker_resident_bytes", static_cast<double>(worker_bytes)});
    result.metrics.push_back(
        {"unsharded_resident_bytes",
         static_cast<double>(dim * sizeof(uint64_t))});
    result.metrics.push_back(
        {"sub_frames", static_cast<double>(participants * shards)});
    result.metrics.push_back(
        {"chaos_duplicated_frames",
         static_cast<double>(fault_stats.duplicated)});
    result.metrics.push_back(
        {"chaos_reordered_frames",
         static_cast<double>(fault_stats.reordered)});
    if (point.shards == 1 && point.threads == 1) {
      reference_ = std::move(sum);
    } else {
      result.bit_identical = sum == reference_;
    }
    return std::vector<PointResult>{std::move(result)};
  }

 private:
  /// shards=1 / threads=1 sum of the current outer-axis combination.
  std::vector<uint64_t> reference_;
};

// ---------------------------------------------------------------------------
// server_sessions: the async TCP aggregation server — many small
// ideal-aggregator rounds driven over real loopback sockets by concurrent
// client threads, swept across event-loop thread counts. Measures the
// service layer (accept + epoll + reassembly + session dispatch +
// broadcast), not the arithmetic. Every broadcast sum is verified against
// the exact modular sum; the threads axis is event loops, not pool threads.
// ---------------------------------------------------------------------------

class ServerSessionsScenario : public Scenario {
 public:
  const char* name() const override { return "server_sessions"; }
  const char* description() const override {
    return "TCP aggregation server ideal rounds across event-loop counts";
  }

  ScenarioAxes Axes(const RunOptions& options) override {
    ScenarioAxes axes;
    // Probe support once: non-Linux builds skip the scenario gracefully.
    auto probe = net::AggregationServer::Start();
    if (!probe.ok()) {
      std::printf("server_sessions: skipped (%s)\n",
                  probe.status().ToString().c_str());
      axes.threads.clear();
      return axes;
    }
    axes.moduli = {{"pow2_32", uint64_t{1} << 32}};
    axes.dims = {64};
    axes.participants = {options.scale == Scale::kFast ? size_t{64}
                                                       : size_t{256}};
    axes.threads = {1, 4, 8};
    return axes;
  }

  StatusOr<std::vector<PointResult>> RunPoint(
      const ScenarioPoint& point, const RunOptions&) override {
    constexpr int kDriverThreads = 4;
    constexpr size_t kContribPerSession = 8;
    const size_t sessions = point.participants;
    const size_t dim = point.dim;
    const uint64_t modulus = point.modulus;
    const int loops = point.threads;

    const auto payload_value = [modulus](size_t session, size_t p, size_t j) {
      return (session * 2654435761ULL + p * 97 + j * 13 + 1) % modulus;
    };

    secagg::IdealAggregator aggregator;
    net::AggregationServer::Options server_options;
    server_options.event_loop_threads = loops;
    // Exercise the failure machinery on the happy path: a generous idle
    // timeout and round deadline that nothing should hit — the counters
    // below prove it.
    server_options.idle_timeout_ms = 30'000;
    SMM_ASSIGN_OR_RETURN(auto server,
                         net::AggregationServer::Start(server_options));

    int mismatch_total = 0;
    std::atomic<int64_t> total_attempts{0};
    const double seconds = TimeSeconds([&] {
      std::vector<net::AggregationServer::SessionInfo> infos(sessions);
      for (size_t s = 0; s < sessions; ++s) {
        net::AggregationServer::SessionOptions session_options;
        session_options.session.dim = dim;
        session_options.session.modulus = modulus;
        session_options.session.min_contributions = kContribPerSession;
        session_options.expected_contributions = kContribPerSession;
        session_options.deadline_ms = 60'000;
        auto info = server->OpenSession(aggregator, session_options);
        if (!info.ok()) {
          ++mismatch_total;
          return;
        }
        infos[s] = *info;
      }
      std::vector<int> mismatches(kDriverThreads, 0);
      std::vector<std::thread> drivers;
      for (int t = 0; t < kDriverThreads; ++t) {
        drivers.emplace_back([&, t] {
          for (size_t s = static_cast<size_t>(t); s < sessions;
               s += kDriverThreads) {
            // Last participant runs the retrying full round (connect, send,
            // half-close, read the broadcast); the others contribute and
            // stay connected through the broadcast. Retries should never
            // fire on loopback — total_attempts proves it.
            std::vector<net::BlockingClient> clients;
            for (size_t p = 0; p + 1 < kContribPerSession; ++p) {
              auto client = net::BlockingClient::Connect(infos[s].port);
              if (!client.ok()) {
                ++mismatches[static_cast<size_t>(t)];
                return;
              }
              secagg::ContributionMsg msg;
              msg.participant_id = static_cast<int>(p);
              msg.modulus = modulus;
              msg.payload.resize(dim);
              for (size_t j = 0; j < dim; ++j) {
                msg.payload[j] = payload_value(s, p, j);
              }
              if (!client->SendContribution(msg).ok() ||
                  !client->FinishSending().ok()) {
                ++mismatches[static_cast<size_t>(t)];
                return;
              }
              clients.push_back(std::move(*client));
            }
            secagg::ContributionMsg last;
            last.participant_id = static_cast<int>(kContribPerSession - 1);
            last.modulus = modulus;
            last.payload.resize(dim);
            for (size_t j = 0; j < dim; ++j) {
              last.payload[j] =
                  payload_value(s, kContribPerSession - 1, j);
            }
            auto frame = secagg::EncodeFrame(last);
            if (!frame.ok()) {
              ++mismatches[static_cast<size_t>(t)];
              return;
            }
            net::RetryPolicy retry;
            retry.max_attempts = 3;
            retry.seed = 11 + s;
            int attempts = 0;
            auto sum = net::RunContributionRound(
                infos[s].port, *frame, net::BlockingClient::Options(), retry,
                &attempts);
            total_attempts.fetch_add(attempts, std::memory_order_relaxed);
            std::vector<uint64_t> expected(dim, 0);
            for (size_t p = 0; p < kContribPerSession; ++p) {
              for (size_t j = 0; j < dim; ++j) {
                expected[j] = (expected[j] + payload_value(s, p, j)) % modulus;
              }
            }
            if (!sum.ok() || sum->sum != expected) {
              ++mismatches[static_cast<size_t>(t)];
            }
          }
        });
      }
      for (auto& driver : drivers) driver.join();
      for (const int m : mismatches) mismatch_total += m;
    });
    const net::ServerStats stats = server->Stats();
    server->Stop();

    PointResult result;
    result.label = "ideal_rounds";
    result.seconds = seconds;
    result.items = static_cast<double>(sessions * kContribPerSession);
    result.bit_identical = mismatch_total == 0;
    result.metrics.push_back(
        {"sessions_per_sec", static_cast<double>(sessions) / seconds});
    result.metrics.push_back(
        {"frames_per_sec",
         static_cast<double>(sessions * kContribPerSession) / seconds});
    result.metrics.push_back(
        {"contributions_per_session",
         static_cast<double>(kContribPerSession)});
    // Failure-path counters: all three should stay zero on the happy path,
    // and retry_attempts should equal the session count (one attempt each).
    result.metrics.push_back(
        {"retry_attempts", static_cast<double>(total_attempts.load())});
    result.metrics.push_back(
        {"sessions_deadline_exceeded",
         static_cast<double>(stats.sessions_deadline_exceeded)});
    result.metrics.push_back(
        {"sessions_quorum_finalized",
         static_cast<double>(stats.sessions_quorum_finalized)});
    result.metrics.push_back(
        {"connections_evicted",
         static_cast<double>(stats.connections_evicted)});
    return std::vector<PointResult>{std::move(result)};
  }
};

// ---------------------------------------------------------------------------
// simd_kernels: single-thread scalar reference vs dispatched table for each
// hot kernel, with a bit-identity cross-check. The stable scenario — these
// loops are short, allocation-free, and best-of-N, so their ratios gate CI.
// ---------------------------------------------------------------------------

class SimdKernelsScenario : public Scenario {
 public:
  const char* name() const override { return "simd_kernels"; }
  const char* description() const override {
    return "scalar-reference vs dispatched throughput per SIMD kernel";
  }
  bool stable() const override { return true; }

  ScenarioAxes Axes(const RunOptions& options) override {
    ScenarioAxes axes;
    axes.moduli = {{"prime64", kPrime64}};
    axes.dims = {options.scale == Scale::kFast ? size_t{1} << 20
                                               : size_t{1} << 22};
    axes.dispatch = {"scalar_vs_active"};
    return axes;
  }

  StatusOr<std::vector<PointResult>> RunPoint(
      const ScenarioPoint& point, const RunOptions& options) override {
    const size_t n = point.dim;
    const int repeats = Repeats(options, 3, 5);
    SimdCaseSet case_set(n);

    std::vector<PointResult> results;
    std::vector<unsigned char> scalar_snapshot;
    for (const SimdCase& c : case_set.cases()) {
      PointResult result;
      result.label = c.name;
      result.items = static_cast<double>(n);

      scalar_snapshot.resize(c.out_bytes);
      if (c.reset) c.reset();
      c.run(simd::ScalarKernels());
      std::memcpy(scalar_snapshot.data(), c.out, c.out_bytes);
      if (c.reset) c.reset();
      c.run(simd::Active());
      result.bit_identical =
          std::memcmp(scalar_snapshot.data(), c.out, c.out_bytes) == 0;

      const double scalar_seconds = BestOfN(
          repeats, [&] { c.run(simd::ScalarKernels()); }, c.reset);
      const double dispatch_seconds =
          BestOfN(repeats, [&] { c.run(simd::Active()); }, c.reset);
      result.seconds = dispatch_seconds;
      result.metrics = {
          {"scalar_seconds", scalar_seconds},
          {"dispatch_seconds", dispatch_seconds},
          {"scalar_eps", static_cast<double>(n) / scalar_seconds},
          {"dispatch_eps", static_cast<double>(n) / dispatch_seconds},
          {"speedup", scalar_seconds / dispatch_seconds},
      };
      results.push_back(std::move(result));
    }
    return results;
  }
};

}  // namespace

void RegisterAllScenarios() {
  static const bool registered = [] {
    auto& registry = ScenarioRegistry::Global();
    registry.Register([] { return std::make_unique<EncodeScenario>(); });
    registry.Register([] { return std::make_unique<RotationScenario>(); });
    registry.Register([] { return std::make_unique<StreamingScenario>(); });
    registry.Register(
        [] { return std::make_unique<MaskedSecaggScenario>(); });
    registry.Register(
        [] { return std::make_unique<SessionMaskedScenario>(); });
    registry.Register(
        [] { return std::make_unique<ShardedSumScenario>(); });
    registry.Register(
        [] { return std::make_unique<ServerSessionsScenario>(); });
    registry.Register(
        [] { return std::make_unique<SimdKernelsScenario>(); });
    return true;
  }();
  (void)registered;
}

}  // namespace smm::bench
