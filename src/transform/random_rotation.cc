#include "transform/random_rotation.h"

#include "common/bit_util.h"
#include "common/random.h"
#include "transform/walsh_hadamard.h"

namespace smm::transform {

StatusOr<RandomRotation> RandomRotation::Create(size_t dim,
                                                uint64_t public_seed) {
  if (dim == 0 || !IsPowerOfTwo(dim)) {
    return InvalidArgumentError(
        "RandomRotation requires a power-of-two dimension");
  }
  RandomGenerator rng(public_seed);
  std::vector<int8_t> signs(dim);
  for (auto& s : signs) s = static_cast<int8_t>(rng.Sign());
  return RandomRotation(std::move(signs));
}

StatusOr<std::vector<double>> RandomRotation::Apply(
    const std::vector<double>& x) const {
  std::vector<double> y;
  SMM_RETURN_IF_ERROR(ApplyInto(x, y));
  return y;
}

Status RandomRotation::ApplyInto(const std::vector<double>& x,
                                 std::vector<double>& y) const {
  if (x.size() != signs_.size()) {
    return InvalidArgumentError("input dimension mismatch");
  }
  y.resize(x.size());
  for (size_t i = 0; i < x.size(); ++i) y[i] = signs_[i] * x[i];
  return FastWalshHadamard(y);
}

Status RandomRotation::ApplyRawBatchInto(
    const std::vector<std::vector<double>>& xs, size_t begin, size_t end,
    std::vector<double>& flat, ThreadPool* pool) const {
  const size_t d = signs_.size();
  if (begin > end || end > xs.size()) {
    return InvalidArgumentError("batch range out of bounds");
  }
  for (size_t i = begin; i < end; ++i) {
    if (xs[i].size() != d) {
      return InvalidArgumentError("input dimension mismatch");
    }
  }
  const size_t rows = end - begin;
  flat.resize(rows * d);
  const auto rotate_rows = [&](size_t row_begin, size_t row_end) {
    for (size_t r = row_begin; r < row_end; ++r) {
      const std::vector<double>& x = xs[begin + r];
      double* row = flat.data() + r * d;
      for (size_t k = 0; k < d; ++k) row[k] = signs_[k] * x[k];
      FastWalshHadamardKernelUnnormalized(row, d);
    }
  };
  if (pool == nullptr || pool->num_threads() == 1 || rows < 2) {
    rotate_rows(0, rows);
  } else {
    pool->ParallelFor(rows, [&](int /*chunk*/, size_t row_begin,
                                size_t row_end) {
      rotate_rows(row_begin, row_end);
    });
  }
  return OkStatus();
}

StatusOr<std::vector<double>> RandomRotation::Inverse(
    const std::vector<double>& y) const {
  if (y.size() != signs_.size()) {
    return InvalidArgumentError("input dimension mismatch");
  }
  std::vector<double> x = y;
  SMM_RETURN_IF_ERROR(FastWalshHadamard(x));
  for (size_t i = 0; i < x.size(); ++i) x[i] *= signs_[i];
  return x;
}

}  // namespace smm::transform
