#ifndef SMM_BENCH_SIMD_CASES_H_
#define SMM_BENCH_SIMD_CASES_H_

// The per-kernel benchmark cases of the SIMD layer, run by bench_matrix
// (scalar-reference vs dispatched throughput with a bit-identity
// cross-check). One SimdCaseSet owns every input and output buffer for a
// given element count, so a case can be re-run without reallocating.

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <vector>

#include "common/random.h"
#include "common/simd.h"

namespace smm::bench {

struct SimdCase {
  /// Case name ("scale_round_prep" for the floor_fract kernel).
  const char* name;
  /// Untimed per-repeat input restore (empty = none needed).
  std::function<void()> reset;
  /// One pass of the kernel over the case's buffers through `kernels`.
  std::function<void(const simd::Kernels&)> run;
  /// Output window for the bit-identity cross-check.
  const unsigned char* out;
  size_t out_bytes;
};

class SimdCaseSet {
 public:
  /// Builds the case set over `n` elements (n >= 2; the butterfly case
  /// spans min(1024, n/2) so any even n works). Inputs are deterministic
  /// (fixed seed), so two case sets of equal n hold identical data.
  explicit SimdCaseSet(size_t n)
      : n_(n),
        m_(18446744073709551557ULL),  // 2^64 - 59: wrap-prone.
        signed_vals_(n),
        residues_(n),
        residues_b_(n),
        reals_(n),
        u64_out_(n),
        i64_out_(n),
        acc_(n),
        real_work_(n),
        flr_(n),
        frac_(n) {
    RandomGenerator rng(43);
    const uint64_t half = m_ / 2;
    for (auto& v : signed_vals_) {
      // u - floor(m/2), formed without signed overflow (u may exceed
      // INT64_MAX).
      const uint64_t u = rng.UniformUint64(m_);
      v = u >= half ? static_cast<int64_t>(u - half)
                    : -static_cast<int64_t>(half - u);
    }
    for (auto& v : residues_) v = rng.UniformUint64(m_);
    for (auto& v : residues_b_) v = rng.UniformUint64(m_);
    for (auto& v : reals_) v = rng.Gaussian(0.0, 100.0);
    BuildCases();
  }

  size_t n() const { return n_; }
  uint64_t modulus() const { return m_; }
  const std::vector<SimdCase>& cases() const { return cases_; }

 private:
  void BuildCases() {
    const size_t n = n_;
    const uint64_t m = m_;
    const auto out = [](const auto& v) {
      return reinterpret_cast<const unsigned char*>(v.data());
    };
    cases_.push_back(
        {"wrap_centered", {},
         [this, n, m](const simd::Kernels& k) {
           k.wrap_centered_into(signed_vals_.data(), n, m, u64_out_.data());
         },
         out(u64_out_), n * sizeof(uint64_t)});
    cases_.push_back(
        {"center_lift", {},
         [this, n, m](const simd::Kernels& k) {
           k.center_lift_into(residues_.data(), n, m, i64_out_.data());
         },
         out(i64_out_), n * sizeof(int64_t)});
    cases_.push_back(
        {"add_mod",
         [this, n] {
           std::memcpy(acc_.data(), residues_.data(), n * sizeof(uint64_t));
         },
         [this, n, m](const simd::Kernels& k) {
           k.add_mod_vec(acc_.data(), residues_b_.data(), n, m);
         },
         out(acc_), n * sizeof(uint64_t)});
    cases_.push_back(
        {"sub_mod",
         [this, n] {
           std::memcpy(acc_.data(), residues_.data(), n * sizeof(uint64_t));
         },
         [this, n, m](const simd::Kernels& k) {
           k.sub_mod_vec(acc_.data(), residues_b_.data(), n, m);
         },
         out(acc_), n * sizeof(uint64_t)});
    cases_.push_back(
        {"mod_reduce", {},
         [this, n, m](const simd::Kernels& k) {
           k.mod_reduce_into(residues_.data(), n, m, u64_out_.data());
         },
         out(u64_out_), n * sizeof(uint64_t)});
    cases_.push_back(
        {"scale_round_prep", {},
         [this, n](const simd::Kernels& k) {
           k.floor_fract_scaled(reals_.data(), n, 64.0, flr_.data(),
                                frac_.data());
         },
         out(frac_), n * sizeof(double)});
    // One full stage at the cache-block span the transform's phase-1 stages
    // use (clamped so short lengths still form one butterfly).
    const size_t h = n / 2 < size_t{1024} ? n / 2 : size_t{1024};
    cases_.push_back(
        {"wht_butterfly",
         [this, n] {
           std::memcpy(real_work_.data(), reals_.data(), n * sizeof(double));
         },
         [this, n, h](const simd::Kernels& k) {
           k.wht_butterfly_pass(real_work_.data(), n, h);
         },
         out(real_work_), n * sizeof(double)});
    cases_.push_back(
        {"scale",
         [this, n] {
           std::memcpy(real_work_.data(), reals_.data(), n * sizeof(double));
         },
         [this, n](const simd::Kernels& k) {
           k.scale_inplace(real_work_.data(), n, 1.00000001);
         },
         out(real_work_), n * sizeof(double)});
  }

  size_t n_;
  uint64_t m_;
  std::vector<int64_t> signed_vals_;
  std::vector<uint64_t> residues_;
  std::vector<uint64_t> residues_b_;
  std::vector<double> reals_;
  std::vector<uint64_t> u64_out_;
  std::vector<int64_t> i64_out_;
  std::vector<uint64_t> acc_;
  std::vector<double> real_work_;
  std::vector<double> flr_;
  std::vector<double> frac_;

  std::vector<SimdCase> cases_;
};

}  // namespace smm::bench

#endif  // SMM_BENCH_SIMD_CASES_H_
