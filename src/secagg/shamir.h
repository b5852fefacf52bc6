#ifndef SMM_SECAGG_SHAMIR_H_
#define SMM_SECAGG_SHAMIR_H_

#include <cstdint>
#include <vector>

#include "common/random.h"
#include "common/span.h"
#include "common/status.h"

namespace smm::secagg {

/// Shamir secret sharing over the Mersenne prime field GF(2^61 - 1), used by
/// the masked aggregation protocol to recover the pairwise-mask seeds of
/// dropped participants (the dropout-resilience ingredient of Bonawitz et
/// al.'s SecAgg).

/// The field prime 2^61 - 1.
inline constexpr uint64_t kShamirPrime = (1ULL << 61) - 1;

/// One share: the evaluation point x (> 0) and the polynomial value y.
struct ShamirShare {
  uint64_t x = 0;
  uint64_t y = 0;
};

/// Splits `secret` (< kShamirPrime) into `num_shares` shares such that any
/// `threshold` of them reconstruct it and fewer reveal nothing. Shares are
/// issued at evaluation points x = 1..num_shares.
/// Requires 1 <= threshold <= num_shares < kShamirPrime.
StatusOr<std::vector<ShamirShare>> ShamirSplit(uint64_t secret, int threshold,
                                               int num_shares,
                                               RandomGenerator& rng);

/// Reconstructs the secret from >= threshold shares by Lagrange
/// interpolation at x = 0 over the first `threshold` shares: the basis of
/// their points (ShamirBasisAtZero, which validates them) combined with
/// their values (ShamirCombineAtZero). The caller must supply shares from
/// the same split.
StatusOr<uint64_t> ShamirReconstruct(const std::vector<ShamirShare>& shares,
                                     int threshold);

/// The Lagrange basis at x = 0 of the first `threshold` evaluation points:
/// l_i = prod_{j != i} x_j / (x_j - x_i) (mod p), so that any polynomial of
/// degree < threshold with values y_i at those points has constant term
/// sum_i l_i * y_i. It depends on the points only, so one basis serves every
/// secret shared at the same points. kInvalidArgument if threshold < 1, or
/// any of those points is outside [1, p) or repeated (x and x + p are the
/// same field point, so both checks are needed for the denominators to be
/// nonzero); kFailedPrecondition if fewer than `threshold` points are given.
StatusOr<std::vector<uint64_t>> ShamirBasisAtZero(
    const std::vector<uint64_t>& points, int threshold);

/// sum_i basis[i] * ys[i] (mod p) over the basis entries: the secret whose
/// shares have values `ys` at the basis's points. Any uint64 y is reduced
/// into the field. Requires ys.size() >= basis.size().
uint64_t ShamirCombineAtZero(const std::vector<uint64_t>& basis,
                             ConstSpan<uint64_t> ys);

}  // namespace smm::secagg

#endif  // SMM_SECAGG_SHAMIR_H_
