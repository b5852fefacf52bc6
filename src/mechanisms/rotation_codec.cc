#include "mechanisms/rotation_codec.h"

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "common/bit_util.h"
#include "common/simd.h"
#include "secagg/modular.h"

namespace smm::mechanisms {

namespace {

/// The one gamma-scaling loop behind RotateScale{,Batch}Into and Decode
/// (formerly three scattered copies): forward multiplies by gamma, inverse
/// divides by it. Division is kept a true division (not a reciprocal
/// multiply) so decode output is bit-identical to the historical loop; both
/// directions run on the dispatched SIMD kernels.
enum class GammaDir { kForward, kInverse };

void ApplyGamma(std::vector<double>& v, double gamma, GammaDir dir) {
  if (dir == GammaDir::kForward) {
    simd::ScaleInPlace(v.data(), v.size(), gamma);
  } else {
    simd::UnscaleInPlace(v.data(), v.size(), gamma);
  }
}

}  // namespace

StatusOr<RotationCodec> RotationCodec::Create(const Options& options) {
  if (options.dim == 0 || !IsPowerOfTwo(options.dim)) {
    return InvalidArgumentError("codec dimension must be a power of two");
  }
  if (!(options.gamma > 0.0)) {
    return InvalidArgumentError("gamma must be > 0");
  }
  if (options.modulus < 2) {
    return InvalidArgumentError("modulus must be >= 2");
  }
  std::optional<transform::RandomRotation> rotation;
  if (options.apply_rotation) {
    SMM_ASSIGN_OR_RETURN(auto r, transform::RandomRotation::Create(
                                     options.dim, options.rotation_seed));
    rotation = std::move(r);
  }
  return RotationCodec(options, std::move(rotation));
}

StatusOr<std::vector<double>> RotationCodec::RotateScale(
    const std::vector<double>& x) const {
  std::vector<double> g;
  SMM_RETURN_IF_ERROR(RotateScaleInto(x, g));
  return g;
}

Status RotationCodec::RotateScaleInto(const std::vector<double>& x,
                                      std::vector<double>& g) const {
  if (x.size() != options_.dim) {
    return InvalidArgumentError("input dimension mismatch");
  }
  if (rotation_.has_value()) {
    SMM_RETURN_IF_ERROR(rotation_->ApplyInto(x, g));
  } else {
    g.assign(x.begin(), x.end());
  }
  ApplyGamma(g, options_.gamma, GammaDir::kForward);
  return OkStatus();
}

Status RotationCodec::RotateRawBatchInto(
    const std::vector<std::vector<double>>& inputs, size_t begin, size_t end,
    std::vector<double>& flat, ThreadPool* pool) const {
  const size_t d = options_.dim;
  if (rotation_.has_value()) {
    return rotation_->ApplyRawBatchInto(inputs, begin, end, flat, pool);
  }
  if (begin > end || end > inputs.size()) {
    return InvalidArgumentError("batch range out of bounds");
  }
  flat.resize((end - begin) * d);
  for (size_t i = begin; i < end; ++i) {
    if (inputs[i].size() != d) {
      return InvalidArgumentError("input dimension mismatch");
    }
    std::copy(inputs[i].begin(), inputs[i].end(),
              flat.begin() + static_cast<ptrdiff_t>((i - begin) * d));
  }
  return OkStatus();
}

double RotationCodec::wht_norm_scale() const {
  return rotation_.has_value()
             ? 1.0 / std::sqrt(static_cast<double>(options_.dim))
             : 1.0;
}

std::vector<uint64_t> RotationCodec::Wrap(const std::vector<int64_t>& values,
                                          int64_t* overflow_count) const {
  std::vector<uint64_t> out;
  WrapInto(values, overflow_count, out);
  return out;
}

void RotationCodec::WrapInto(const std::vector<int64_t>& values,
                             int64_t* overflow_count,
                             std::vector<uint64_t>& out) const {
  out.resize(values.size());
  // The kernel reduces into Z_m and counts coordinates outside the
  // representable centered window {-floor(m/2), ..., ceil(m/2) - 1} —
  // exactly what CenterLift inverts, for either modulus parity.
  const size_t overflowed = simd::WrapCenteredInto(
      values.data(), values.size(), options_.modulus, out.data());
  if (overflow_count != nullptr) {
    *overflow_count += static_cast<int64_t>(overflowed);
  }
}

StatusOr<std::vector<double>> RotationCodec::Decode(
    const std::vector<uint64_t>& zm_sum) const {
  if (zm_sum.size() != options_.dim) {
    return InvalidArgumentError("aggregated sum dimension mismatch");
  }
  const std::vector<int64_t> lifted =
      secagg::LiftVector(zm_sum, options_.modulus);
  std::vector<double> y(lifted.size());
  for (size_t j = 0; j < y.size(); ++j) {
    y[j] = static_cast<double>(lifted[j]);
  }
  std::vector<double> out;
  if (rotation_.has_value()) {
    SMM_ASSIGN_OR_RETURN(out, rotation_->Inverse(y));
  } else {
    out = std::move(y);
  }
  ApplyGamma(out, options_.gamma, GammaDir::kInverse);
  return out;
}

}  // namespace smm::mechanisms
