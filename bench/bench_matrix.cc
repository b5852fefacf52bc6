// bench_matrix: the scenario-matrix benchmark driver.
//
//   bench_matrix [--fast|--full] [--filter SUBSTR] [--repeats N]
//                [--wide] [--json PATH] [--list]
//   bench_matrix --calibrate [--tuning-out PATH] [--fast|--full]
//
// The default mode enumerates every registered scenario's axis matrix
// (optionally name-filtered), prints one line per enumerated point, and
// with --json writes the schema-versioned artifact that
// bench/check_bench_regression.py diffs and bench/validate_bench_artifact.py
// validates. Exit status is 1 if any point's bit-identity verdict failed.
//
// --calibrate measures this host's tile sizing and session thread count,
// and writes them as tuning.json (default ./tuning.json, override with
// --tuning-out). Load the file at startup by
// pointing SMM_TUNING at it, or pass it to LoadRuntimeTuningFromFile.
#include <cstdio>
#include <cstring>
#include <string>

#include "common/parallel.h"
#include "common/simd.h"
#include "common/tuning.h"
#include "runner.h"

namespace smm::bench {
namespace {

const char* ParseFlagValue(int argc, char** argv, const char* flag) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return argv[i + 1];
  }
  return nullptr;
}

bool HasFlag(int argc, char** argv, const char* flag) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return true;
  }
  return false;
}

int ListScenarios() {
  std::printf("registered scenarios:\n");
  for (const auto& scenario : ScenarioRegistry::Global().Instantiate()) {
    std::printf("  %-16s %s%s\n", scenario->name(),
                scenario->description(),
                scenario->stable() ? " [stable: gates CI]" : "");
  }
  return 0;
}

int Calibrate(Scale scale, const char* out_path) {
  std::printf("calibrating runtime tuning (%s)...\n", ScaleName(scale));
  auto tuning = RunCalibration(scale, /*verbose=*/true);
  if (!tuning.ok()) {
    std::printf("calibration failed: %s\n",
                tuning.status().ToString().c_str());
    return 1;
  }
  const std::string json = RuntimeTuningToJson(*tuning);
  std::FILE* f = std::fopen(out_path, "w");
  if (f == nullptr) {
    std::printf("cannot open %s for tuning output\n", out_path);
    return 1;
  }
  std::fputs(json.c_str(), f);
  std::fclose(f);
  std::printf("wrote %s:\n%s", out_path, json.c_str());
  std::printf("load it with SMM_TUNING=%s\n", out_path);
  return 0;
}

int Main(int argc, char** argv) {
  RegisterAllScenarios();
  const Scale scale = ParseScale(argc, argv);

  if (HasFlag(argc, argv, "--list")) return ListScenarios();
  if (HasFlag(argc, argv, "--calibrate")) {
    const char* out = ParseFlagValue(argc, argv, "--tuning-out");
    return Calibrate(scale, out != nullptr ? out : "tuning.json");
  }

  RunOptions options;
  options.scale = scale;
  options.wide = HasFlag(argc, argv, "--wide");
  if (const char* repeats = ParseFlagValue(argc, argv, "--repeats")) {
    options.repeats = std::atoi(repeats);
  }
  const char* filter = ParseFlagValue(argc, argv, "--filter");
  const char* json_path = ParseFlagValue(argc, argv, "--json");

  std::printf("bench_matrix (%s). Hardware threads: %d, dispatch: %s\n",
              ScaleName(scale), ThreadPool::HardwareThreads(),
              simd::Active().name);
  auto report = RunMatrix(filter != nullptr ? filter : "", options);
  if (!report.ok()) {
    std::printf("matrix run failed: %s\n",
                report.status().ToString().c_str());
    return 1;
  }
  if (json_path != nullptr) {
    const Status written = WriteMatrixJson(*report, json_path);
    if (!written.ok()) {
      std::printf("%s\n", written.ToString().c_str());
      return 1;
    }
    std::printf("wrote JSON report to %s\n", json_path);
  }
  size_t points = 0;
  for (const auto& scenario : report->scenarios) {
    points += scenario.runs.size();
  }
  std::printf("matrix complete: %zu scenarios, %zu points, "
              "bit-identity %s\n",
              report->scenarios.size(), points,
              report->AllBitIdentical() ? "clean" : "VIOLATED (bug!)");
  return report->AllBitIdentical() ? 0 : 1;
}

}  // namespace
}  // namespace smm::bench

int main(int argc, char** argv) { return smm::bench::Main(argc, argv); }
