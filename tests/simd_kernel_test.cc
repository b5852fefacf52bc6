// Property suite for the runtime-dispatched SIMD kernel layer: every vector
// table the build carries (AVX2 and AVX-512, whichever the host supports)
// must be bit-identical to the scalar reference for all ten kernels across
// the full modulus range — including the wrap-prone m > 2^63 regime — odd
// and even lengths, and unaligned offsets into the input/output buffers
// (the vector loops use unaligned loads, so a misaligned view must not
// change results). The scalar reference itself is pinned against the
// canonical single-element helpers (secagg::ModReduce / CenterLift,
// smm::AddMod / SubMod), so the whole tower grounds out in the arithmetic
// the rest of the library already tests.
#include "common/simd.h"

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/math_util.h"
#include "common/random.h"
#include "secagg/modular.h"
#include "transform/walsh_hadamard.h"

namespace smm::simd {
namespace {

constexpr uint64_t kModuli[] = {
    1ull << 16,
    1ull << 32,
    (1ull << 63) + 1,            // Odd, just past the int64 boundary.
    18446744073709551557ull,     // 2^64 - 59: the largest prime modulus used.
};

/// Odd and even lengths, including sub-vector-width ones and a few that
/// leave every possible 4-lane tail.
constexpr size_t kLengths[] = {0, 1, 2, 3, 4, 5, 7, 8, 13, 16, 31, 64, 257};

/// Extra leading elements so tests can run every kernel at a deliberately
/// misaligned offset into the same allocation.
constexpr size_t kOffsets[] = {0, 1, 3};

/// Signed test values stressing the wrap fast path's boundaries for modulus
/// m: in-window values, the window edges, +-m and beyond, and the int64
/// extremes.
std::vector<int64_t> SignedValues(uint64_t m, size_t n, uint64_t seed) {
  RandomGenerator rng(seed);
  const int64_t lo = -static_cast<int64_t>(m / 2);
  const int64_t hi = static_cast<int64_t>((m - 1) / 2);
  std::vector<int64_t> fixed = {0, 1, -1, lo, hi, INT64_MIN, INT64_MAX};
  if (m <= static_cast<uint64_t>(INT64_MAX) / 2) {
    const int64_t sm = static_cast<int64_t>(m);
    fixed.insert(fixed.end(), {sm, -sm, sm - 1, -(sm - 1), sm + 1, 2 * sm});
  }
  std::vector<int64_t> out(n);
  for (size_t j = 0; j < n; ++j) {
    if (j < fixed.size()) {
      out[j] = fixed[j];
    } else if (j % 3 == 0) {
      out[j] = static_cast<int64_t>(rng.NextBits());  // Full-range.
    } else {
      // In-window: v - floor(m/2), formed without signed overflow or
      // unsigned wrap (v may exceed INT64_MAX when m is near 2^64).
      const uint64_t v = rng.UniformUint64(m);
      const uint64_t half = m / 2;
      out[j] = v >= half ? static_cast<int64_t>(v - half)
                         : -static_cast<int64_t>(half - v);
    }
  }
  return out;
}

/// Unsigned test values: mostly reduced residues, with a sprinkle of
/// unreduced values (>= m) to exercise the rare-lane `% m` spill.
std::vector<uint64_t> UnsignedValues(uint64_t m, size_t n, uint64_t seed,
                                     bool reduced_only) {
  RandomGenerator rng(seed);
  std::vector<uint64_t> fixed = {0, 1, m - 1, m / 2, (m - 1) / 2,
                                 (m - 1) / 2 + 1};
  std::vector<uint64_t> out(n);
  for (size_t j = 0; j < n; ++j) {
    if (j < fixed.size()) {
      out[j] = fixed[j];
    } else if (!reduced_only && j % 5 == 0) {
      out[j] = rng.NextBits();  // Possibly >= m.
    } else {
      out[j] = rng.UniformUint64(m);
    }
  }
  if (reduced_only) {
    for (auto& v : out) v %= m;
  }
  return out;
}

/// Every vector table the host supports — each must match the scalar
/// reference bit-for-bit in every test below.
std::vector<const Kernels*> VectorTables() {
  std::vector<const Kernels*> tables;
  if (const Kernels* t = Avx2KernelsIfSupported()) tables.push_back(t);
  if (const Kernels* t = Avx512KernelsIfSupported()) tables.push_back(t);
  return tables;
}

/// Runs `fn(kernels, data_view)` for the scalar table and every available
/// vector table, each on its own copy, and compares the copies
/// bit-for-bit.
template <typename T, typename Fn>
void ExpectPathsAgree(const std::vector<T>& input, size_t offset, Fn fn,
                      const char* what) {
  std::vector<T> scalar_copy = input;
  fn(ScalarKernels(), scalar_copy.data() + offset);
  for (const Kernels* vec : VectorTables()) {
    std::vector<T> vec_copy = input;
    fn(*vec, vec_copy.data() + offset);
    EXPECT_EQ(scalar_copy, vec_copy) << what << " path=" << vec->name;
  }
}

TEST(SimdDispatchTest, ActiveResolvesToARealTable) {
  const Kernels& active = Active();
  EXPECT_TRUE(std::string(active.name) == "scalar" ||
              std::string(active.name) == "avx2" ||
              std::string(active.name) == "avx512");
  // Forcing scalar must stick until reset.
  SetDispatchModeForTest(DispatchMode::kForceScalar);
  EXPECT_STREQ(Active().name, "scalar");
  // kForceAvx2 caps resolution at the AVX2 table (scalar when AVX2 is
  // unavailable) — it must never resolve to the AVX-512 table.
  SetDispatchModeForTest(DispatchMode::kForceAvx2);
  if (Avx2KernelsIfSupported() != nullptr) {
    EXPECT_STREQ(Active().name, "avx2");
  } else {
    EXPECT_STREQ(Active().name, "scalar");
  }
  SetDispatchModeForTest(DispatchMode::kAuto);
  EXPECT_STREQ(Active().name, active.name);
}

TEST(SimdKernelTest, WrapCenteredMatchesScalarAndModReduce) {
  for (uint64_t m : kModuli) {
    for (size_t n : kLengths) {
      for (size_t offset : kOffsets) {
        const auto values = SignedValues(m, n + offset, 17 * m + n);
        std::vector<uint64_t> scalar_out(n + offset, 0xabababab);
        const size_t scalar_count = ScalarKernels().wrap_centered_into(
            values.data() + offset, n, m, scalar_out.data() + offset);
        // Ground truth: the canonical per-element helper and window.
        const int64_t lo = -static_cast<int64_t>(m / 2);
        const int64_t hi = static_cast<int64_t>((m - 1) / 2);
        size_t expected_count = 0;
        for (size_t j = 0; j < n; ++j) {
          const int64_t v = values[offset + j];
          if (v < lo || v > hi) ++expected_count;
          ASSERT_EQ(scalar_out[offset + j], secagg::ModReduce(v, m))
              << "m=" << m << " v=" << v;
        }
        EXPECT_EQ(scalar_count, expected_count) << "m=" << m << " n=" << n;
        for (const Kernels* vec : VectorTables()) {
          std::vector<uint64_t> vec_out(n + offset, 0xcdcdcdcd);
          const size_t vec_count = vec->wrap_centered_into(
              values.data() + offset, n, m, vec_out.data() + offset);
          EXPECT_EQ(vec_count, scalar_count)
              << "m=" << m << " n=" << n << " path=" << vec->name;
          for (size_t j = 0; j < n; ++j) {
            ASSERT_EQ(vec_out[offset + j], scalar_out[offset + j])
                << "m=" << m << " v=" << values[offset + j]
                << " path=" << vec->name;
          }
        }
      }
    }
  }
}

TEST(SimdKernelTest, CenterLiftMatchesScalarAndCanonicalLift) {
  for (uint64_t m : kModuli) {
    for (size_t n : kLengths) {
      for (size_t offset : kOffsets) {
        const auto values =
            UnsignedValues(m, n + offset, 23 * m + n, /*reduced_only=*/true);
        std::vector<int64_t> scalar_out(n + offset, -7);
        ScalarKernels().center_lift_into(values.data() + offset, n, m,
                                         scalar_out.data() + offset);
        for (size_t j = 0; j < n; ++j) {
          ASSERT_EQ(scalar_out[offset + j],
                    secagg::CenterLift(values[offset + j], m))
              << "m=" << m << " v=" << values[offset + j];
        }
        for (const Kernels* vec : VectorTables()) {
          std::vector<int64_t> vec_out(n + offset, -9);
          vec->center_lift_into(values.data() + offset, n, m,
                                vec_out.data() + offset);
          for (size_t j = 0; j < n; ++j) {
            ASSERT_EQ(vec_out[offset + j], scalar_out[offset + j])
                << "m=" << m << " v=" << values[offset + j]
                << " path=" << vec->name;
          }
        }
      }
    }
  }
}

TEST(SimdKernelTest, AddSubModMatchScalarHelpers) {
  for (uint64_t m : kModuli) {
    for (size_t n : kLengths) {
      for (size_t offset : kOffsets) {
        const auto acc0 =
            UnsignedValues(m, n + offset, 31 * m + n, /*reduced_only=*/true);
        const auto b = UnsignedValues(m, n + offset, 37 * m + n,
                                      /*reduced_only=*/false);
        for (bool subtract : {false, true}) {
          std::vector<uint64_t> scalar_acc = acc0;
          if (subtract) {
            ScalarKernels().sub_mod_vec(scalar_acc.data() + offset,
                                        b.data() + offset, n, m);
          } else {
            ScalarKernels().add_mod_vec(scalar_acc.data() + offset,
                                        b.data() + offset, n, m);
          }
          for (size_t j = 0; j < n; ++j) {
            const uint64_t expected =
                subtract
                    ? smm::SubMod(acc0[offset + j], b[offset + j] % m, m)
                    : smm::AddMod(acc0[offset + j], b[offset + j] % m, m);
            ASSERT_EQ(scalar_acc[offset + j], expected)
                << "m=" << m << " a=" << acc0[offset + j]
                << " b=" << b[offset + j] << " sub=" << subtract;
          }
          for (const Kernels* vec : VectorTables()) {
            std::vector<uint64_t> vec_acc = acc0;
            if (subtract) {
              vec->sub_mod_vec(vec_acc.data() + offset, b.data() + offset, n,
                               m);
            } else {
              vec->add_mod_vec(vec_acc.data() + offset, b.data() + offset, n,
                               m);
            }
            EXPECT_EQ(vec_acc, scalar_acc)
                << "m=" << m << " n=" << n << " sub=" << subtract
                << " path=" << vec->name;
          }
        }
      }
    }
  }
}

TEST(SimdKernelTest, ModReduceIntoMatchesScalarIncludingAliasing) {
  for (uint64_t m : kModuli) {
    for (size_t n : kLengths) {
      for (size_t offset : kOffsets) {
        const auto values = UnsignedValues(m, n + offset, 41 * m + n,
                                           /*reduced_only=*/false);
        std::vector<uint64_t> scalar_out(n + offset, 1);
        ScalarKernels().mod_reduce_into(values.data() + offset, n, m,
                                        scalar_out.data() + offset);
        for (size_t j = 0; j < n; ++j) {
          ASSERT_EQ(scalar_out[offset + j], values[offset + j] % m);
        }
        for (const Kernels* vec : VectorTables()) {
          // Exact-aliased in-place reduction must match the out-of-place
          // result.
          std::vector<uint64_t> in_place = values;
          vec->mod_reduce_into(in_place.data() + offset, n, m,
                               in_place.data() + offset);
          for (size_t j = 0; j < n; ++j) {
            ASSERT_EQ(in_place[offset + j], scalar_out[offset + j])
                << "path=" << vec->name;
          }
        }
      }
    }
  }
}

TEST(SimdKernelTest, DoubleKernelsAreBitIdenticalAcrossPaths) {
  RandomGenerator rng(51);
  for (size_t n : kLengths) {
    for (size_t offset : kOffsets) {
      std::vector<double> data(n + offset);
      for (auto& v : data) v = rng.Gaussian(0.0, 100.0);
      ExpectPathsAgree(data, offset,
                       [n](const Kernels& k, double* p) {
                         k.scale_inplace(p, n, 1.0 / 3.0);
                       },
                       "scale_inplace");
      ExpectPathsAgree(data, offset,
                       [n](const Kernels& k, double* p) {
                         k.unscale_inplace(p, n, 7.0);
                       },
                       "unscale_inplace");
      std::vector<int64_t> delta(n + offset);
      for (auto& v : delta) v = static_cast<int64_t>(rng.NextBits() >> 8);
      ExpectPathsAgree(delta, offset,
                       [n, &delta](const Kernels& k, int64_t* p) {
                         k.add_i64_inplace(p, delta.data(), n);
                       },
                       "add_i64_inplace");
    }
  }
}

TEST(SimdKernelTest, FloorFractScaledMatchesScalarFloor) {
  RandomGenerator rng(53);
  for (size_t n : kLengths) {
    for (size_t offset : kOffsets) {
      std::vector<double> x(n + offset);
      for (size_t j = 0; j < x.size(); ++j) {
        // Mix negatives, integers, and huge magnitudes (frac == 0 there).
        x[j] = j % 4 == 0 ? std::floor(rng.Gaussian(0.0, 10.0))
                          : rng.Gaussian(0.0, 1e6);
      }
      for (double scale : {1.0, 0.125, 3.7}) {
        std::vector<double> scalar_flr(n), scalar_frac(n);
        ScalarKernels().floor_fract_scaled(x.data() + offset, n, scale,
                                           scalar_flr.data(),
                                           scalar_frac.data());
        for (size_t j = 0; j < n; ++j) {
          const double g = x[offset + j] * scale;
          ASSERT_EQ(scalar_flr[j], std::floor(g));
          ASSERT_EQ(scalar_frac[j], g - std::floor(g));
        }
        for (const Kernels* vec : VectorTables()) {
          std::vector<double> vec_flr(n), vec_frac(n);
          vec->floor_fract_scaled(x.data() + offset, n, scale,
                                  vec_flr.data(), vec_frac.data());
          EXPECT_EQ(vec_flr, scalar_flr)
              << "n=" << n << " s=" << scale << " path=" << vec->name;
          EXPECT_EQ(vec_frac, scalar_frac)
              << "n=" << n << " s=" << scale << " path=" << vec->name;
        }
      }
    }
  }
}

TEST(SimdKernelTest, WhtButterflyPassMatchesAcrossPaths) {
  RandomGenerator rng(59);
  for (size_t d : {2u, 4u, 8u, 64u, 1024u, 4096u}) {
    std::vector<double> data(d);
    for (auto& v : data) v = rng.Gaussian(0.0, 1.0);
    for (size_t h = 1; h < d; h <<= 1) {
      ExpectPathsAgree(data, 0,
                       [d, h](const Kernels& k, double* p) {
                         k.wht_butterfly_pass(p, d, h);
                       },
                       "wht_butterfly_pass");
    }
  }
}

TEST(SimdKernelTest, FullWalshHadamardIsDispatchInvariant) {
  RandomGenerator rng(61);
  for (size_t d : {1u << 4, 1u << 11, 1u << 13}) {  // Below and above the
                                                    // 2048-double block.
    std::vector<double> original(d);
    for (auto& v : original) v = rng.Gaussian(0.0, 1.0);
    SetDispatchModeForTest(DispatchMode::kForceScalar);
    std::vector<double> scalar_run = original;
    ASSERT_TRUE(transform::FastWalshHadamard(scalar_run).ok());
    SetDispatchModeForTest(DispatchMode::kForceAvx2);
    std::vector<double> avx2_run = original;
    ASSERT_TRUE(transform::FastWalshHadamard(avx2_run).ok());
    SetDispatchModeForTest(DispatchMode::kAuto);
    std::vector<double> auto_run = original;
    ASSERT_TRUE(transform::FastWalshHadamard(auto_run).ok());
    EXPECT_EQ(scalar_run, avx2_run) << "d=" << d;
    EXPECT_EQ(scalar_run, auto_run) << "d=" << d;
  }
}

TEST(SimdKernelTest, ScaleRoundStochasticConsumesRngIdenticallyAcrossPaths) {
  RandomGenerator input_rng(67);
  for (size_t n : kLengths) {
    std::vector<double> x(n);
    for (size_t j = 0; j < n; ++j) {
      // Integers every fourth coordinate: zero fraction must skip the draw
      // on both paths or the streams desynchronize. A near-integer-from-
      // below every seventh: its fraction rounds to exactly 1.0, which must
      // round up draw-free (Bernoulli's p >= 1 short-circuit).
      x[j] = j % 4 == 0   ? std::floor(input_rng.Gaussian(0.0, 8.0))
             : j % 7 == 0 ? -1e-300
                          : input_rng.Gaussian(0.0, 8.0);
    }
    for (double scale : {1.0, 2.5}) {
      SetDispatchModeForTest(DispatchMode::kForceScalar);
      RandomGenerator scalar_rng(4242);
      std::vector<int64_t> scalar_out(n);
      ScaleRoundStochasticInto(x.data(), n, scale, scalar_rng,
                               scalar_out.data());
      SetDispatchModeForTest(DispatchMode::kAuto);
      RandomGenerator auto_rng(4242);
      std::vector<int64_t> auto_out(n);
      ScaleRoundStochasticInto(x.data(), n, scale, auto_rng,
                               auto_out.data());
      EXPECT_EQ(scalar_out, auto_out) << "n=" << n << " scale=" << scale;
      // The decisive check: both paths must leave the stream at the same
      // position, or everything encoded after this vector diverges.
      EXPECT_EQ(scalar_rng.NextBits(), auto_rng.NextBits())
          << "n=" << n << " scale=" << scale;
    }
  }
  SetDispatchModeForTest(DispatchMode::kAuto);
}

TEST(SimdKernelTest, VectorModularOpsAreDispatchInvariantThroughPublicApi) {
  // End-to-end through secagg::AddMod/SubMod/ReduceVector/LiftVector — the
  // public entry points the aggregation paths call.
  for (uint64_t m : kModuli) {
    const size_t n = 100;
    const auto a = UnsignedValues(m, n, m + 1, /*reduced_only=*/false);
    const auto b = UnsignedValues(m, n, m + 2, /*reduced_only=*/false);
    const auto s = SignedValues(m, n, m + 3);
    SetDispatchModeForTest(DispatchMode::kForceScalar);
    const auto sum_scalar = secagg::AddMod(a, b, m).value();
    const auto diff_scalar = secagg::SubMod(a, b, m).value();
    const auto reduced_scalar = secagg::ReduceVector(s, m);
    const auto lifted_scalar = secagg::LiftVector(reduced_scalar, m);
    SetDispatchModeForTest(DispatchMode::kAuto);
    EXPECT_EQ(sum_scalar, secagg::AddMod(a, b, m).value()) << "m=" << m;
    EXPECT_EQ(diff_scalar, secagg::SubMod(a, b, m).value()) << "m=" << m;
    EXPECT_EQ(reduced_scalar, secagg::ReduceVector(s, m)) << "m=" << m;
    EXPECT_EQ(lifted_scalar, secagg::LiftVector(reduced_scalar, m))
        << "m=" << m;
  }
}

}  // namespace
}  // namespace smm::simd
