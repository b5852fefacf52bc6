#ifndef SMM_COMMON_TUNING_H_
#define SMM_COMMON_TUNING_H_

#include <cstddef>
#include <string>

#include "common/parallel.h"
#include "common/status.h"

namespace smm {

/// Measured runtime knobs for the hot aggregation paths, loadable at startup
/// from the JSON file `bench_matrix --calibrate` writes. Every knob is a
/// pure performance dial: the encode/absorb pipelines are bit-identical at
/// any tile size, thread count, and dispatch table (pinned by the
/// determinism property tests), so swapping a calibrated tuning for the
/// built-in defaults can never change results — only wall time.
///
/// The defaults reproduce the historical hardcoded behavior exactly
/// (32-rows-per-thread tiles, hardware-concurrency sessions, unsharded
/// rounds), so a process that never loads a tuning file runs precisely the
/// pre-tuning pipeline.
struct RuntimeTuning {
  /// Serialization schema version of tuning.json; parsers reject others.
  static constexpr int kSchemaVersion = 2;

  /// Participant rows each pool thread keeps resident per pipelined tile in
  /// the encode -> frame -> absorb paths (trainer rounds, RunDistributedSum,
  /// AggregationSession tile buffering) and per batched-rotation tile inside
  /// EncodeBatch. Default: kTileRowsPerThread (32), the historical constant.
  size_t tile_rows_per_thread = kTileRowsPerThread;

  /// Pool threads one in-process aggregation round (one session) uses when
  /// the caller asked for "auto" threading (FlConfig::num_threads == 0).
  /// 0 = uncalibrated: resolve to ThreadPool::HardwareThreads() as before.
  int threads_per_session = 0;

  /// Shard workers one aggregation round splits its dimension range across
  /// when the caller asked for the tuned default (shard_count == 0 in
  /// RunDistributedSum / FlConfig). Default 1 = the unsharded path. Like
  /// every knob here this is a pure performance dial: the sharded round is
  /// bit-identical to the unsharded one at any value.
  size_t shard_count = 1;

  /// Where this tuning came from, for logs and the bench artifact:
  /// "default", or the path it was loaded from.
  std::string source = "default";
};

/// Serializes a tuning to the tuning.json format (schema_version included).
std::string RuntimeTuningToJson(const RuntimeTuning& tuning);

/// Parses a tuning.json document. Strict: rejects (kInvalidArgument)
/// malformed JSON, a missing or unsupported schema_version, unknown fields,
/// and out-of-domain values (tile_rows_per_thread < 1, negative
/// threads_per_session).
StatusOr<RuntimeTuning> ParseRuntimeTuning(const std::string& json);

/// The process-wide tuning. Defaults to RuntimeTuning{}; the first call
/// loads the file named by SMM_TUNING when that variable is set (a load
/// failure is reported once on stderr and the defaults stay in force —
/// startup must not die on a stale tuning file). Thread-safe.
RuntimeTuning GetRuntimeTuning();

/// Installs `tuning` as the process-wide tuning. Thread-safe, but intended
/// for startup / test setup: in-flight encodes pick up the new tile size at
/// their next tile boundary.
void SetRuntimeTuning(const RuntimeTuning& tuning);

/// Reads, parses, and installs a tuning.json file.
Status LoadRuntimeTuningFromFile(const std::string& path);

/// Restores the built-in defaults, including un-latching the SMM_TUNING env
/// load. For tests.
void ResetRuntimeTuningForTest();

/// Participants per pipelined tile for `num_threads` workers under the
/// current tuning: tile_rows_per_thread * num_threads. Falls back to
/// DefaultTileRows (32 * threads) when no calibration was loaded. The hot
/// per-round call — one relaxed atomic load, no lock.
size_t TunedTileRows(int num_threads);

/// tile_rows_per_thread of the current tuning (the per-thread factor of
/// TunedTileRows). Same lock-free cost.
size_t TunedTileRowsPerThread();

/// Pool threads for one "auto"-threaded aggregation session: the calibrated
/// threads_per_session when one was loaded, else
/// ThreadPool::HardwareThreads().
int TunedSessionThreads();

/// Shard workers for a round that asked for the tuned default (>= 1; 1 =
/// unsharded). Same lock-free cost.
size_t TunedShardCount();

}  // namespace smm

#endif  // SMM_COMMON_TUNING_H_
