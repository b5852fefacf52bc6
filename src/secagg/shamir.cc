#include "secagg/shamir.h"

#include <unordered_set>

namespace smm::secagg {

namespace {

using uint128 = unsigned __int128;

// Arithmetic mod the Mersenne prime p = 2^61 - 1. Since 2^61 ≡ 1 (mod p),
// a value v reduces as (v & p) + (v >> 61): the high part folds onto the
// low 61 bits, with no division.

/// Any uint64 into [0, p): one fold leaves at most p + 7, one conditional
/// subtract finishes.
uint64_t ReduceModP(uint64_t a) {
  a = (a & kShamirPrime) + (a >> 61);
  return a >= kShamirPrime ? a - kShamirPrime : a;
}

/// (a * b) mod p for a, b < 2^61. The product is below 2^122, so its low 61
/// bits are at most p, its high part is below p, and their sum is below 2p:
/// one fold and one conditional subtract.
uint64_t MulModReduced(uint64_t a, uint64_t b) {
  const uint128 product = static_cast<uint128>(a) * b;
  const uint64_t folded = (static_cast<uint64_t>(product) & kShamirPrime) +
                          static_cast<uint64_t>(product >> 61);
  return folded >= kShamirPrime ? folded - kShamirPrime : folded;
}

/// (a * b) mod p for any uint64 a, b: operands at or above 2^61 are folded
/// into the field first.
uint64_t MulMod(uint64_t a, uint64_t b) {
  return MulModReduced(ReduceModP(a), ReduceModP(b));
}

uint64_t AddModP(uint64_t a, uint64_t b) {
  uint64_t s = a + b;  // < 2^62, no overflow.
  if (s >= kShamirPrime) s -= kShamirPrime;
  return s;
}

uint64_t SubModP(uint64_t a, uint64_t b) {
  return a >= b ? a - b : a + kShamirPrime - b;
}

uint64_t PowMod(uint64_t base, uint64_t exp) {
  uint64_t result = 1;
  base = ReduceModP(base);
  while (exp > 0) {
    if (exp & 1) result = MulModReduced(result, base);
    base = MulModReduced(base, base);
    exp >>= 1;
  }
  return result;
}

// Fermat inverse: a^(p-2) mod p.
uint64_t InvMod(uint64_t a) { return PowMod(a, kShamirPrime - 2); }

}  // namespace

StatusOr<std::vector<ShamirShare>> ShamirSplit(uint64_t secret, int threshold,
                                               int num_shares,
                                               RandomGenerator& rng) {
  if (secret >= kShamirPrime) {
    return InvalidArgumentError("secret must be < 2^61 - 1");
  }
  if (threshold < 1 || threshold > num_shares) {
    return InvalidArgumentError("need 1 <= threshold <= num_shares");
  }
  // Random polynomial of degree threshold-1 with constant term = secret.
  std::vector<uint64_t> coeffs(threshold);
  coeffs[0] = secret;
  for (int i = 1; i < threshold; ++i) {
    coeffs[i] = rng.UniformUint64(kShamirPrime);
  }
  // Horner evaluation at every point x = i + 1, coefficient-major: each
  // step advances all num_shares independent chains, so their multiplies
  // overlap instead of waiting on one chain's previous step. Every y stays
  // below p and every x below 2^31, within MulModReduced's domain.
  std::vector<ShamirShare> shares(num_shares);
  for (int i = 0; i < num_shares; ++i) {
    shares[i] =
        ShamirShare{static_cast<uint64_t>(i) + 1, coeffs[threshold - 1]};
  }
  for (int j = threshold - 2; j >= 0; --j) {
    for (ShamirShare& share : shares) {
      share.y = AddModP(MulModReduced(share.y, share.x), coeffs[j]);
    }
  }
  return shares;
}

StatusOr<std::vector<uint64_t>> ShamirBasisAtZero(
    const std::vector<uint64_t>& points, int threshold) {
  if (threshold < 1) return InvalidArgumentError("threshold must be >= 1");
  if (static_cast<int>(points.size()) < threshold) {
    return FailedPreconditionError("not enough shares to reconstruct");
  }
  std::unordered_set<uint64_t> seen;
  for (int i = 0; i < threshold; ++i) {
    if (points[i] == 0 || points[i] >= kShamirPrime) {
      return InvalidArgumentError(
          "share evaluation point must be in [1, 2^61 - 1)");
    }
    if (!seen.insert(points[i]).second) {
      return InvalidArgumentError("duplicate share evaluation point");
    }
  }
  // l_i = prod_{j != i} x_j / (x_j - x_i)  (mod p).
  std::vector<uint64_t> basis(threshold);
  for (int i = 0; i < threshold; ++i) {
    uint64_t num = 1, den = 1;
    for (int j = 0; j < threshold; ++j) {
      if (j == i) continue;
      num = MulModReduced(num, points[j]);
      den = MulModReduced(den, SubModP(points[j], points[i]));
    }
    basis[i] = MulModReduced(num, InvMod(den));
  }
  return basis;
}

uint64_t ShamirCombineAtZero(const std::vector<uint64_t>& basis,
                             ConstSpan<uint64_t> ys) {
  uint64_t secret = 0;
  for (size_t i = 0; i < basis.size(); ++i) {
    secret = AddModP(secret, MulMod(ys[i], basis[i]));
  }
  return secret;
}

StatusOr<uint64_t> ShamirReconstruct(const std::vector<ShamirShare>& shares,
                                     int threshold) {
  std::vector<uint64_t> points(shares.size());
  std::vector<uint64_t> ys(shares.size());
  for (size_t i = 0; i < shares.size(); ++i) {
    points[i] = shares[i].x;
    ys[i] = shares[i].y;
  }
  SMM_ASSIGN_OR_RETURN(const std::vector<uint64_t> basis,
                       ShamirBasisAtZero(points, threshold));
  return ShamirCombineAtZero(basis, ys);
}

}  // namespace smm::secagg
