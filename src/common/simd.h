#ifndef SMM_COMMON_SIMD_H_
#define SMM_COMMON_SIMD_H_

#include <cstddef>
#include <cstdint>

#include "common/random.h"

namespace smm::simd {

/// Runtime-dispatched kernels for the dense inner loops that dominate the
/// encode/aggregate cost at large d: rotate/scale/round, the modular wrap
/// and centered lift, the Walsh-Hadamard butterfly, and modular
/// accumulation. Three implementations exist behind one function-pointer
/// table:
///
///  - the *scalar reference* (`ScalarKernels()`): a faithful port of the
///    historical per-element loops — `% m` reductions, the branchy
///    compare-and-correct AddMod/SubMod — whose output defines correctness;
///  - the AVX2 path (`Avx2KernelsIfSupported()`): 4-lane vector kernels
///    that take a division-free fast path on in-range lanes and fall back
///    to the scalar arithmetic on the rare out-of-range lane;
///  - the AVX-512 path (`Avx512KernelsIfSupported()`): the same kernels at
///    8 lanes, using native unsigned 64-bit compares (no sign-flip trick)
///    and mask registers, with the same masked scalar spill for
///    out-of-range lanes.
///
/// The contract is *bit-identity*: for every kernel, every input, and every
/// thread count, the vector paths produce exactly the scalar reference's
/// output (the integer kernels compute the same residues; the double
/// kernels use only IEEE-exact add/sub/mul/div/floor, which vector and
/// scalar units round identically). simd_kernel_test pins this across
/// moduli up to 2^64 - 59, odd/even lengths, and unaligned offsets, and the
/// PR-1 determinism suite pins it end-to-end through the encode pipeline.
///
/// Dispatch: `Active()` resolves once per process — the AVX-512 table when
/// the build has an AVX-512 translation unit and cpuid reports
/// AVX-512F + AVX-512DQ, else the AVX2 table under the analogous probe,
/// else the scalar table. Environment overrides (read before first use):
/// SMM_FORCE_SCALAR=1 pins the scalar reference, SMM_FORCE_AVX2=1 caps
/// resolution at AVX2 (useful for comparing paths on AVX-512 hosts). Tests
/// flip paths in-process with SetDispatchModeForTest.
struct Kernels {
  /// Human-readable path name ("scalar", "avx2" or "avx512") for logs and
  /// the bench JSON artifact.
  const char* name;

  /// v[j] *= factor for j in [0, n).
  void (*scale_inplace)(double* v, size_t n, double factor);

  /// v[j] /= factor for j in [0, n). Kept as a true division (not a
  /// reciprocal multiply): IEEE division rounds identically in scalar and
  /// vector units, so decode stays bit-identical across paths.
  void (*unscale_inplace)(double* v, size_t n, double factor);

  /// One radix-2 Walsh-Hadamard butterfly stage with half-span h over
  /// v[0, n): for every pair block, (a, b) <- (a + b, a - b). Requires h to
  /// divide n/2 in the usual power-of-two transform layout.
  void (*wht_butterfly_pass)(double* v, size_t n, size_t h);

  /// The vectorizable half of stochastic rounding: for j in [0, n),
  /// flr[j] = floor(x[j] * scale) and frac[j] = x[j] * scale - flr[j].
  /// The serial Bernoulli draws happen in ScaleRoundStochasticInto below.
  void (*floor_fract_scaled)(const double* x, size_t n, double scale,
                             double* flr, double* frac);

  /// out[j] = values[j] mod m in {0, ..., m-1} (the centered-representative
  /// wrap ModReduce computes), returning how many values fell outside the
  /// representable centered window {-floor(m/2), ..., ceil(m/2) - 1} — the
  /// irrecoverable wrap-around events RotationCodec accounts.
  size_t (*wrap_centered_into)(const int64_t* values, size_t n, uint64_t m,
                               uint64_t* out);

  /// out[j] = the centered representative of values[j] in
  /// {-floor(m/2), ..., ceil(m/2) - 1}. Requires values[j] < m.
  void (*center_lift_into)(const uint64_t* values, size_t n, uint64_t m,
                           int64_t* out);

  /// out[j] = values[j] % m. out may alias values exactly (in-place).
  void (*mod_reduce_into)(const uint64_t* values, size_t n, uint64_t m,
                          uint64_t* out);

  /// acc[j] = (acc[j] + b[j] % m) mod m. Requires acc[j] < m (the running
  /// accumulator invariant every secagg sum maintains); b is arbitrary.
  /// Exact for every m in [2, 2^64): the AVX2 path never forms a possibly
  /// truncated a + b — it selects between a + b and a - (m - b) with an
  /// unsigned compare, and the lane that would wrap is the lane the blend
  /// discards.
  void (*add_mod_vec)(uint64_t* acc, const uint64_t* b, size_t n, uint64_t m);

  /// acc[j] = (acc[j] - b[j] % m) mod m. Same contract as add_mod_vec.
  void (*sub_mod_vec)(uint64_t* acc, const uint64_t* b, size_t n, uint64_t m);

  /// v[j] += delta[j] (the post-rounding noise-injection add).
  void (*add_i64_inplace)(int64_t* v, const int64_t* delta, size_t n);
};

/// The scalar reference table. Always available; defines correctness.
const Kernels& ScalarKernels();

/// The AVX2 table, or nullptr when the build lacks an AVX2 translation unit
/// or the CPU lacks AVX2. Exposed (rather than private to dispatch) so the
/// property tests and the bench harness can compare paths in one process
/// regardless of how dispatch resolved.
const Kernels* Avx2KernelsIfSupported();

/// The AVX-512 table, or nullptr when the build lacks an AVX-512
/// translation unit or the CPU lacks AVX-512F / AVX-512DQ. Exposed for the
/// same reason as Avx2KernelsIfSupported.
const Kernels* Avx512KernelsIfSupported();

/// The dispatched table: resolved once per process (cpuid probe +
/// SMM_FORCE_SCALAR / SMM_FORCE_AVX2 env overrides + test override), then
/// cached.
const Kernels& Active();

/// In-process dispatch override for tests and benches. kAuto restores the
/// cpuid/env resolution; kForceScalar pins the scalar reference;
/// kForceAvx2 caps resolution at the AVX2 table (falling back to scalar
/// when AVX2 is unavailable), which lets tests pin the AVX2 path on
/// AVX-512 hosts. Resets the cached resolution, so the next Active() call
/// re-resolves. Not thread-safe against concurrent Active() users — flip
/// it only from single-threaded test setup.
enum class DispatchMode { kAuto, kForceScalar, kForceAvx2 };
void SetDispatchModeForTest(DispatchMode mode);

/// Reduces a signed value into {0, ..., m-1} — the same arithmetic as
/// secagg::ModReduce, re-stated here because common/ sits below secagg/ in
/// the layering. Shared by the scalar reference kernels and the AVX2
/// rare-lane spill paths, so the two can never drift apart. ~value computes
/// -value - 1 without the INT64_MIN negation overflow; the +1 cannot wrap
/// because the magnitude is at most 2^63.
inline uint64_t ModReduceScalarI64(int64_t value, uint64_t m) {
  if (value >= 0) return static_cast<uint64_t>(value) % m;
  const uint64_t magnitude = (static_cast<uint64_t>(~value) + 1) % m;
  return magnitude == 0 ? 0 : m - magnitude;
}

// ---------------------------------------------------------------------------
// Convenience wrappers over the dispatched table. These are the entry
// points the hot paths call; each is a thin forward through Active() except
// ScaleRoundStochasticInto, which tiles the vectorizable floor/fract phase
// against the inherently serial Bernoulli draws.
// ---------------------------------------------------------------------------

inline void ScaleInPlace(double* v, size_t n, double factor) {
  Active().scale_inplace(v, n, factor);
}

inline void UnscaleInPlace(double* v, size_t n, double factor) {
  Active().unscale_inplace(v, n, factor);
}

inline void WhtButterflyPass(double* v, size_t n, size_t h) {
  Active().wht_butterfly_pass(v, n, h);
}

inline size_t WrapCenteredInto(const int64_t* values, size_t n, uint64_t m,
                               uint64_t* out) {
  return Active().wrap_centered_into(values, n, m, out);
}

inline void CenterLiftInto(const uint64_t* values, size_t n, uint64_t m,
                           int64_t* out) {
  Active().center_lift_into(values, n, m, out);
}

inline void ModReduceInto(const uint64_t* values, size_t n, uint64_t m,
                          uint64_t* out) {
  Active().mod_reduce_into(values, n, m, out);
}

inline void AddModVec(uint64_t* acc, const uint64_t* b, size_t n,
                      uint64_t m) {
  Active().add_mod_vec(acc, b, n, m);
}

inline void SubModVec(uint64_t* acc, const uint64_t* b, size_t n,
                      uint64_t m) {
  Active().sub_mod_vec(acc, b, n, m);
}

inline void AddI64InPlace(int64_t* v, const int64_t* delta, size_t n) {
  Active().add_i64_inplace(v, delta, n);
}

/// Stochastic rounding of scale * x into out: each coordinate rounds to
/// floor + 1 with probability equal to its fractional part. Consumes `rng`
/// exactly like the historical floor + Bernoulli loop: one UniformDouble
/// per coordinate whose fractional part is in (0, 1) — or NaN — in
/// coordinate order, and *no* draw when the fraction is 0 or rounds to
/// exactly 1.0 (Bernoulli's p <= 0 / p >= 1 short-circuits; the latter
/// happens for inputs a hair below an integer, e.g. -1e-300). The encoding
/// is therefore bit-identical across dispatch paths and thread counts.
/// Pass scale = 1.0 for plain stochastic rounding; multiplying by 1.0 is
/// an IEEE identity, so the scaled and plain forms agree bitwise.
void ScaleRoundStochasticInto(const double* x, size_t n, double scale,
                              RandomGenerator& rng, int64_t* out);

}  // namespace smm::simd

#endif  // SMM_COMMON_SIMD_H_
