// bench_matrix: the SIMD-kernel gate. For every hot kernel of the dispatch
// table (bench/simd_cases.h) it times the scalar reference against the
// active dispatched table, best of N on one thread, and checks that both
// write the same bytes.
//
//   bench_matrix [--fast|--full] [--json PATH]
//
// Prints one simd_kernels/<kernel> line per kernel and, with --json, writes
// the schema-versioned artifact that bench/check_bench_regression.py diffs
// and bench/validate_bench_artifact.py validates. Exit status is 1 if any
// kernel's dispatched output differs from the scalar reference.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <vector>

#include "bench_util.h"
#include "common/parallel.h"
#include "common/simd.h"
#include "simd_cases.h"

namespace smm::bench {
namespace {

/// Schema version of the --json artifact; bench/bench_matrix_schema.json
/// accepts only this value.
constexpr int kSchemaVersion = 2;

const char* ParseFlagValue(int argc, char** argv, const char* flag) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return argv[i + 1];
  }
  return nullptr;
}

const char* ScaleJsonName(Scale scale) {
  switch (scale) {
    case Scale::kFast:
      return "fast";
    case Scale::kFull:
      return "full";
    case Scale::kDefault:
      break;
  }
  return "default";
}

/// Best (minimum) wall seconds over `repeats` runs of `body`; `reset`, when
/// given, restores the inputs untimed before each run.
double BestOfN(int repeats, const std::function<void()>& body,
               const std::function<void()>& reset) {
  double best = 1e300;
  for (int r = 0; r < repeats; ++r) {
    if (reset) reset();
    const auto start = std::chrono::steady_clock::now();
    body();
    const double seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
    if (seconds < best) best = seconds;
  }
  return best;
}

struct KernelRun {
  const char* name;
  double scalar_seconds;
  double dispatch_seconds;
  bool bit_identical;
};

KernelRun RunCase(const SimdCase& c, int repeats) {
  if (c.reset) c.reset();
  c.run(simd::ScalarKernels());
  const std::vector<unsigned char> scalar_snapshot(c.out,
                                                   c.out + c.out_bytes);
  if (c.reset) c.reset();
  c.run(simd::Active());
  const bool identical =
      std::memcmp(scalar_snapshot.data(), c.out, c.out_bytes) == 0;
  const double scalar_seconds =
      BestOfN(repeats, [&] { c.run(simd::ScalarKernels()); }, c.reset);
  const double dispatch_seconds =
      BestOfN(repeats, [&] { c.run(simd::Active()); }, c.reset);
  return {c.name, scalar_seconds, dispatch_seconds, identical};
}

/// Writes the artifact: one stable "simd_kernels" scenario with one run per
/// kernel. The run params keep the keys of the former scenario matrix, so
/// check_bench_regression.py matches these rows against older artifacts.
bool WriteJson(const char* path, Scale scale, const SimdCaseSet& case_set,
               const std::vector<KernelRun>& runs) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) return false;
  const double n = static_cast<double>(case_set.n());
  std::fprintf(f, "{\n  \"schema_version\": %d,\n", kSchemaVersion);
  std::fprintf(f, "  \"bench\": \"bench_matrix\",\n");
  std::fprintf(f, "  \"scale\": \"%s\",\n", ScaleJsonName(scale));
  std::fprintf(f,
               "  \"host\": {\"hardware_threads\": %d, "
               "\"simd_dispatch\": \"%s\"},\n",
               ThreadPool::HardwareThreads(), simd::Active().name);
  std::fprintf(f, "  \"scenarios\": [\n");
  std::fprintf(f, "    {\"name\": \"simd_kernels\", \"stable\": true,\n");
  std::fprintf(f, "     \"runs\": [\n");
  for (size_t r = 0; r < runs.size(); ++r) {
    const KernelRun& run = runs[r];
    std::fprintf(f, "      {\"label\": \"%s\",\n", run.name);
    std::fprintf(f,
                 "       \"params\": {\"mechanism\": \"\", "
                 "\"modulus_class\": \"prime64\", \"modulus\": %llu,\n",
                 static_cast<unsigned long long>(case_set.modulus()));
    std::fprintf(f,
                 "                  \"dim\": %zu, \"participants\": 0, "
                 "\"dropout_rate\": 0.000000,\n",
                 case_set.n());
    std::fprintf(f,
                 "                  \"corrupt_frame_rate\": 0.000000, "
                 "\"dispatch\": \"scalar_vs_active\", \"shards\": 1, "
                 "\"threads\": 1},\n");
    std::fprintf(f,
                 "       \"seconds\": %.6e, \"items_per_sec\": %.6e, "
                 "\"bit_identical\": %s,\n",
                 run.dispatch_seconds, n / run.dispatch_seconds,
                 run.bit_identical ? "true" : "false");
    std::fprintf(f,
                 "       \"metrics\": {\"scalar_seconds\": %.6e, "
                 "\"dispatch_seconds\": %.6e, \"scalar_eps\": %.6e, "
                 "\"dispatch_eps\": %.6e, \"speedup\": %.6e}}%s\n",
                 run.scalar_seconds, run.dispatch_seconds,
                 n / run.scalar_seconds, n / run.dispatch_seconds,
                 run.scalar_seconds / run.dispatch_seconds,
                 r + 1 < runs.size() ? "," : "");
  }
  std::fprintf(f, "     ]}\n  ]\n}\n");
  return std::fclose(f) == 0;
}

int Main(int argc, char** argv) {
  const Scale scale = ParseScale(argc, argv);
  const char* json_path = ParseFlagValue(argc, argv, "--json");
  const size_t n = scale == Scale::kFast ? size_t{1} << 20 : size_t{1} << 22;
  const int repeats = scale == Scale::kFast ? 3 : 5;

  std::printf("bench_matrix (%s). Hardware threads: %d, dispatch: %s\n",
              ScaleName(scale), ThreadPool::HardwareThreads(),
              simd::Active().name);
  SimdCaseSet case_set(n);
  std::vector<KernelRun> runs;
  bool all_identical = true;
  for (const SimdCase& c : case_set.cases()) {
    const KernelRun run = RunCase(c, repeats);
    std::printf(
        "  simd_kernels/%-16s n=%zu scalar=%.3e el/s dispatch=%.3e el/s "
        "speedup=%.2fx identical=%s\n",
        run.name, n, static_cast<double>(n) / run.scalar_seconds,
        static_cast<double>(n) / run.dispatch_seconds,
        run.scalar_seconds / run.dispatch_seconds,
        run.bit_identical ? "yes" : "NO");
    all_identical = all_identical && run.bit_identical;
    runs.push_back(run);
  }
  if (json_path != nullptr) {
    if (!WriteJson(json_path, scale, case_set, runs)) {
      std::printf("cannot write the JSON report to %s\n", json_path);
      return 1;
    }
    std::printf("wrote JSON report to %s\n", json_path);
  }
  std::printf("%zu kernels, bit-identity %s\n", runs.size(),
              all_identical ? "clean" : "VIOLATED (bug!)");
  return all_identical ? 0 : 1;
}

}  // namespace
}  // namespace smm::bench

int main(int argc, char** argv) { return smm::bench::Main(argc, argv); }
