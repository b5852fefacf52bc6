// --calibrate: measures this host's best per-thread tile size and session
// thread count, and returns them as a RuntimeTuning ready to serialize as
// tuning.json. Every knob it tunes is a pure performance parameter — the
// pinned bit-identity invariant means any calibration outcome produces the
// same results, so a noisy sweep can only cost speed, never correctness.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "common/parallel.h"
#include "common/random.h"
#include "common/tuning.h"
#include "mechanisms/baseline_mechanisms.h"
#include "mechanisms/distributed_mechanism.h"
#include "runner.h"
#include "secagg/secure_aggregator.h"

namespace smm::bench {
namespace {

/// Sweeps tile_rows_per_thread over the batched encode pipeline (the
/// heaviest consumer of the tile knob: EncodeBatch's rotation tiles and the
/// per-thread chunking both derive from it). Installs each candidate via
/// SetRuntimeTuning and times a cheap-noise cpSGD encode, so the sweep
/// exercises exactly the code path production rounds run.
StatusOr<size_t> SweepTileRows(Scale scale, int repeats, bool verbose) {
  const size_t dim = scale == Scale::kFast ? (1u << 10) : (1u << 12);
  const size_t participants = scale == Scale::kFast ? 64 : 128;
  const int threads = std::min(4, std::max(1, ThreadPool::HardwareThreads()));

  mechanisms::CpSgdMechanism::Options o;
  o.dim = dim;
  o.gamma = 64.0;
  o.l2_bound = 1.0;
  o.binomial_trials = 8;
  o.modulus = 1 << 16;
  o.rotation_seed = 101;
  SMM_ASSIGN_OR_RETURN(auto mech, mechanisms::CpSgdMechanism::Create(o));
  RandomGenerator input_rng(17);
  std::vector<std::vector<double>> inputs(participants,
                                          std::vector<double>(dim));
  for (auto& x : inputs) {
    for (auto& v : x) v = input_rng.Gaussian(0.0, 0.01);
  }
  ThreadPool pool(threads);

  const size_t candidates[] = {8, 16, 32, 64, 128};
  size_t best_tile = kTileRowsPerThread;
  double best_seconds = 1e300;
  for (const size_t candidate : candidates) {
    RuntimeTuning tuning;
    tuning.tile_rows_per_thread = candidate;
    SetRuntimeTuning(tuning);
    Status status = OkStatus();
    const double seconds = BestOfN(repeats, [&] {
      RandomGenerator rng(4242);
      std::vector<RandomGenerator> streams =
          MakeParticipantStreams(rng, inputs.size());
      auto encoded =
          mechanisms::EncodeBatchParallel(*mech, inputs, streams, &pool);
      if (!encoded.ok()) status = encoded.status();
    });
    SMM_RETURN_IF_ERROR(status);
    if (verbose) {
      std::printf("  calibrate tile_rows_per_thread=%zu seconds=%.3e\n",
                  candidate, seconds);
    }
    if (seconds < best_seconds) {
      best_seconds = seconds;
      best_tile = candidate;
    }
  }
  return best_tile;
}

/// Sweeps the pool size of a streaming aggregation round (the session-side
/// workload AggregateRound runs when FederatedConfig::num_threads is 0)
/// and returns the fastest thread count on this host.
StatusOr<int> SweepSessionThreads(Scale scale, int repeats, bool verbose) {
  const size_t dim = scale == Scale::kFast ? (1u << 9) : (1u << 10);
  constexpr size_t kTileRows = 256;
  const size_t participants =
      scale == Scale::kFast ? (1u << 11) : (1u << 13);
  const uint64_t m = 18446744073709551557ULL;

  RandomGenerator rng(23);
  std::vector<std::vector<uint64_t>> tile(kTileRows,
                                          std::vector<uint64_t>(dim));
  for (auto& row : tile) {
    for (auto& v : row) v = rng.UniformUint64(m);
  }
  std::vector<int> ids(kTileRows);
  secagg::IdealAggregator aggregator;

  std::vector<int> candidates;
  const int hardware = std::max(1, ThreadPool::HardwareThreads());
  for (int t = 1; t <= hardware && t <= 16; t *= 2) candidates.push_back(t);

  int best_threads = 1;
  double best_seconds = 1e300;
  for (const int threads : candidates) {
    ThreadPool pool(threads);
    Status status = OkStatus();
    const double seconds = BestOfN(repeats, [&] {
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
      if (!finalized.ok()) status = finalized.status();
    });
    SMM_RETURN_IF_ERROR(status);
    if (verbose) {
      std::printf("  calibrate threads_per_session=%d seconds=%.3e\n",
                  threads, seconds);
    }
    if (seconds < best_seconds) {
      best_seconds = seconds;
      best_threads = threads;
    }
  }
  return best_threads;
}

}  // namespace

StatusOr<RuntimeTuning> RunCalibration(Scale scale, bool verbose) {
  const RuntimeTuning original = GetRuntimeTuning();
  const int repeats = scale == Scale::kFast ? 2 : 3;

  auto tile = SweepTileRows(scale, repeats, verbose);
  // The tile sweep perturbs the process-wide tuning; put it back before
  // any other consumer runs, whether or not the sweep succeeded.
  SetRuntimeTuning(original);
  SMM_RETURN_IF_ERROR(tile.status());
  SMM_ASSIGN_OR_RETURN(const int session_threads,
                       SweepSessionThreads(scale, repeats, verbose));

  RuntimeTuning tuning;
  tuning.tile_rows_per_thread = *tile;
  tuning.threads_per_session = session_threads;
  tuning.source = "calibrated";
  return tuning;
}

}  // namespace smm::bench
