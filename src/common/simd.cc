#include "common/simd.h"

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>

#include "common/math_util.h"

namespace smm::simd {

namespace {

// ---------------------------------------------------------------------------
// The scalar reference kernels: faithful ports of the per-element loops the
// hot paths historically ran. These define correctness — the AVX2 table must
// match them bit-for-bit — so they stay deliberately simple (`% m`
// reductions, the branchy compare-and-correct AddMod/SubMod) rather than
// micro-optimized.
// ---------------------------------------------------------------------------

void ScalarScaleInPlace(double* v, size_t n, double factor) {
  for (size_t j = 0; j < n; ++j) v[j] *= factor;
}

void ScalarUnscaleInPlace(double* v, size_t n, double factor) {
  for (size_t j = 0; j < n; ++j) v[j] /= factor;
}

void ScalarWhtButterflyPass(double* v, size_t n, size_t h) {
  for (size_t i = 0; i < n; i += h << 1) {
    double* a = v + i;
    double* b = v + i + h;
    for (size_t j = 0; j < h; ++j) {
      const double x = a[j];
      const double y = b[j];
      a[j] = x + y;
      b[j] = x - y;
    }
  }
}

void ScalarFloorFractScaled(const double* x, size_t n, double scale,
                            double* flr, double* frac) {
  for (size_t j = 0; j < n; ++j) {
    const double g = x[j] * scale;
    const double f = std::floor(g);
    flr[j] = f;
    frac[j] = g - f;
  }
}

size_t ScalarWrapCenteredInto(const int64_t* values, size_t n, uint64_t m,
                              uint64_t* out) {
  // The representable centered window is exactly what CenterLift inverts:
  // {-floor(m/2), ..., ceil(m/2) - 1}. Both bounds fit int64_t for every
  // m < 2^64.
  const int64_t lo = -static_cast<int64_t>(m / 2);
  const int64_t hi = static_cast<int64_t>((m - 1) / 2);
  size_t overflow = 0;
  for (size_t j = 0; j < n; ++j) {
    const int64_t v = values[j];
    if (v < lo || v > hi) ++overflow;
    out[j] = ModReduceScalarI64(v, m);
  }
  return overflow;
}

void ScalarCenterLiftInto(const uint64_t* values, size_t n, uint64_t m,
                          int64_t* out) {
  // Negative representatives start at ceil(m/2): value > (m-1)/2 is exactly
  // value >= ceil(m/2) for both parities, and the magnitude m - value is at
  // most floor(m/2) <= INT64_MAX, so the negation never overflows.
  const uint64_t threshold = (m - 1) / 2;
  for (size_t j = 0; j < n; ++j) {
    const uint64_t v = values[j];
    out[j] = v > threshold ? -static_cast<int64_t>(m - v)
                           : static_cast<int64_t>(v);
  }
}

void ScalarModReduceInto(const uint64_t* values, size_t n, uint64_t m,
                         uint64_t* out) {
  for (size_t j = 0; j < n; ++j) out[j] = values[j] % m;
}

void ScalarAddModVec(uint64_t* acc, const uint64_t* b, size_t n, uint64_t m) {
  for (size_t j = 0; j < n; ++j) {
    acc[j] = smm::AddMod(acc[j], b[j] % m, m);
  }
}

void ScalarSubModVec(uint64_t* acc, const uint64_t* b, size_t n, uint64_t m) {
  for (size_t j = 0; j < n; ++j) {
    acc[j] = smm::SubMod(acc[j], b[j] % m, m);
  }
}

void ScalarAddI64InPlace(int64_t* v, const int64_t* delta, size_t n) {
  for (size_t j = 0; j < n; ++j) v[j] += delta[j];
}

constexpr Kernels kScalarKernels = {
    "scalar",
    ScalarScaleInPlace,
    ScalarUnscaleInPlace,
    ScalarWhtButterflyPass,
    ScalarFloorFractScaled,
    ScalarWrapCenteredInto,
    ScalarCenterLiftInto,
    ScalarModReduceInto,
    ScalarAddModVec,
    ScalarSubModVec,
    ScalarAddI64InPlace,
};

// ---------------------------------------------------------------------------
// Dispatch. Resolution happens once (first Active() call): the test
// override, then the SMM_FORCE_SCALAR / SMM_FORCE_AVX2 environment
// overrides, then the cpuid probes (widest table first). The cached pointer
// is atomic so concurrent first calls are safe; resolution is idempotent,
// so a benign double-resolve stores the same table.
// ---------------------------------------------------------------------------

std::atomic<const Kernels*> g_active{nullptr};
std::atomic<int> g_mode{static_cast<int>(DispatchMode::kAuto)};

bool EnvFlagSet(const char* name) {
  const char* env = std::getenv(name);
  return env != nullptr && std::strcmp(env, "1") == 0;
}

const Kernels* Resolve() {
  const int mode = g_mode.load(std::memory_order_acquire);
  if (mode == static_cast<int>(DispatchMode::kForceScalar)) {
    return &kScalarKernels;
  }
  if (mode == static_cast<int>(DispatchMode::kForceAvx2)) {
    const Kernels* avx2 = Avx2KernelsIfSupported();
    return avx2 != nullptr ? avx2 : &kScalarKernels;
  }
  if (EnvFlagSet("SMM_FORCE_SCALAR")) return &kScalarKernels;
  if (!EnvFlagSet("SMM_FORCE_AVX2")) {
    if (const Kernels* avx512 = Avx512KernelsIfSupported()) return avx512;
  }
  if (const Kernels* avx2 = Avx2KernelsIfSupported()) return avx2;
  return &kScalarKernels;
}

}  // namespace

/// Defined in simd_avx2.cc; returns nullptr when that translation unit was
/// compiled without AVX2 support (non-x86 target or a compiler without
/// -mavx2). The cpuid gate lives in Avx2KernelsIfSupported.
const Kernels* Avx2KernelTableForBuild();

/// Defined in simd_avx512.cc; returns nullptr when that translation unit
/// was compiled without AVX-512 support. The cpuid gate lives in
/// Avx512KernelsIfSupported.
const Kernels* Avx512KernelTableForBuild();

const Kernels& ScalarKernels() { return kScalarKernels; }

const Kernels* Avx2KernelsIfSupported() {
#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
  const Kernels* table = Avx2KernelTableForBuild();
  if (table != nullptr && __builtin_cpu_supports("avx2")) return table;
#endif
  return nullptr;
}

const Kernels* Avx512KernelsIfSupported() {
#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
  const Kernels* table = Avx512KernelTableForBuild();
  if (table != nullptr && __builtin_cpu_supports("avx512f") &&
      __builtin_cpu_supports("avx512dq")) {
    return table;
  }
#endif
  return nullptr;
}

const Kernels& Active() {
  const Kernels* k = g_active.load(std::memory_order_acquire);
  if (k == nullptr) {
    k = Resolve();
    g_active.store(k, std::memory_order_release);
  }
  return *k;
}

void SetDispatchModeForTest(DispatchMode mode) {
  g_mode.store(static_cast<int>(mode), std::memory_order_release);
  g_active.store(nullptr, std::memory_order_release);
}

void ScaleRoundStochasticInto(const double* x, size_t n, double scale,
                              RandomGenerator& rng, int64_t* out) {
  const Kernels& k = Active();
  // Tile the vectorizable floor/fract phase through stack scratch; the
  // Bernoulli phase is inherently serial (one rng draw per nonzero
  // fraction, in coordinate order — the exact consumption pattern of the
  // historical rng.Bernoulli(frac) loop, including the quirk that a NaN
  // fraction draws and never rounds up).
  constexpr size_t kTile = 256;
  double flr[kTile];
  double frac[kTile];
  for (size_t base = 0; base < n; base += kTile) {
    const size_t len = n - base < kTile ? n - base : kTile;
    k.floor_fract_scaled(x + base, len, scale, flr, frac);
    for (size_t j = 0; j < len; ++j) {
      int64_t v = static_cast<int64_t>(flr[j]);
      if (frac[j] >= 1.0) {
        // g - floor(g) can round up to exactly 1.0 for g a hair below an
        // integer (e.g. -1e-300). Bernoulli's p >= 1 short-circuit rounds
        // up *without* drawing; doing anything else desynchronizes the
        // stream for every later coordinate.
        v += 1;
      } else if (!(frac[j] <= 0.0) && rng.UniformDouble() < frac[j]) {
        v += 1;
      }
      out[base + j] = v;
    }
  }
}

}  // namespace smm::simd
