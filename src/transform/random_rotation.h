#ifndef SMM_TRANSFORM_RANDOM_ROTATION_H_
#define SMM_TRANSFORM_RANDOM_ROTATION_H_

#include <cstdint>
#include <vector>

#include "common/parallel.h"
#include "common/status.h"

namespace smm::transform {

/// The randomized rotation of Algorithms 4 and 6: y = H D_xi x, where H is
/// the normalized Walsh-Hadamard matrix and D_xi a diagonal of i.i.d.
/// uniform signs derived from *public* randomness shared by all participants
/// and the server. The rotation flattens the input (each output coordinate
/// is sub-Gaussian with variance O(||x||_2^2 / d)), limiting modular
/// overflow when noisy values are reduced into Z_m.
class RandomRotation {
 public:
  /// Creates a rotation for power-of-two dimension `dim`; the sign vector is
  /// derived deterministically from `public_seed`.
  static StatusOr<RandomRotation> Create(size_t dim, uint64_t public_seed);

  /// Applies y = H D_xi x. x must have size dim().
  StatusOr<std::vector<double>> Apply(const std::vector<double>& x) const;

  /// Allocation-free variant of Apply for hot encode loops: writes into y,
  /// reusing its capacity (y is resized to dim()). x and y must not alias.
  Status ApplyInto(const std::vector<double>& x, std::vector<double>& y) const;

  /// Batched Apply without the Hadamard normalization: rotates rows
  /// xs[begin..end) into `flat` (row-major, (end - begin) x dim(), resized
  /// as needed), sharding rows across `pool` when given; row r holds
  /// sqrt(d) * H D_xi x (the sign flip and the raw butterfly stages only).
  /// The fused encode pipeline folds the 1/sqrt(d) factor into its first
  /// blocked sweep; scaling each element by 1/sqrt(d) afterwards is the
  /// identical IEEE multiply, so row r is then bit-identical to
  /// Apply(xs[begin + r]) for any thread count.
  Status ApplyRawBatchInto(const std::vector<std::vector<double>>& xs,
                           size_t begin, size_t end,
                           std::vector<double>& flat,
                           ThreadPool* pool = nullptr) const;

  /// Applies the inverse x = D_xi H^T y = D_xi H y (H is symmetric).
  StatusOr<std::vector<double>> Inverse(const std::vector<double>& y) const;

  size_t dim() const { return signs_.size(); }
  const std::vector<int8_t>& signs() const { return signs_; }

 private:
  explicit RandomRotation(std::vector<int8_t> signs)
      : signs_(std::move(signs)) {}

  std::vector<int8_t> signs_;
};

}  // namespace smm::transform

#endif  // SMM_TRANSFORM_RANDOM_ROTATION_H_
