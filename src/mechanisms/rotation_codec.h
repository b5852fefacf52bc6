#ifndef SMM_MECHANISMS_ROTATION_CODEC_H_
#define SMM_MECHANISMS_ROTATION_CODEC_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "common/parallel.h"
#include "common/status.h"
#include "transform/random_rotation.h"

namespace smm::mechanisms {

/// The shared scaffold of Algorithms 4 and 6 used by every integer
/// mechanism: participant-side random rotation (H D_xi) and scaling by
/// gamma, and server-side modular unwrap, inverse rotation and rescale.
/// Rotation can be disabled (for the ablation study); scaling and the
/// modular wrap always apply.
class RotationCodec {
 public:
  struct Options {
    size_t dim = 0;          ///< Power-of-two operating dimension.
    double gamma = 1.0;      ///< Scale parameter (Line 2 of Algorithm 4).
    uint64_t modulus = 256;  ///< m: the per-dimension SecAgg modulus.
    uint64_t rotation_seed = 0;  ///< Public randomness for the sign vector.
    bool apply_rotation = true;  ///< Disable for the rotation ablation.
  };

  static StatusOr<RotationCodec> Create(const Options& options);

  /// Participant side: returns gamma * H D_xi x (or gamma * x when rotation
  /// is disabled). x must have length dim().
  StatusOr<std::vector<double>> RotateScale(const std::vector<double>& x) const;

  /// Allocation-free RotateScale for the batched encode path: writes into g,
  /// reusing its capacity. x and g must not alias.
  Status RotateScaleInto(const std::vector<double>& x,
                         std::vector<double>& g) const;

  /// The batched front half of RotateScaleInto for the fused encode
  /// pipeline: rotates rows inputs[begin..end) into `flat` (row-major,
  /// (end - begin) x dim(), resized as needed), sharding rows across `pool`
  /// when given, WITHOUT the Hadamard 1/sqrt(d) normalization and WITHOUT
  /// the gamma scale (plain copy when rotation is disabled). The caller
  /// finishes each row by multiplying every element first by
  /// wht_norm_scale() and then by gamma() — per-element IEEE multiplies it
  /// can fold into its own blocked sweep — after which row r is
  /// bit-identical to RotateScaleInto(inputs[begin + r]) for any thread
  /// count.
  Status RotateRawBatchInto(const std::vector<std::vector<double>>& inputs,
                            size_t begin, size_t end,
                            std::vector<double>& flat,
                            ThreadPool* pool = nullptr) const;

  /// The normalization factor RotateRawBatchInto leaves unapplied:
  /// 1/sqrt(dim) when rotation is enabled, exactly 1.0 when disabled (the
  /// raw batch is then already the full rotate output).
  double wht_norm_scale() const;

  /// Reduces integer values into Z_m, counting coordinates that fall outside
  /// the representable centered range {-floor(m/2), ..., ceil(m/2) - 1} —
  /// exactly the window secagg::CenterLift inverts, for either modulus
  /// parity — into *overflow_count if non-null (irrecoverable wrap-around
  /// events).
  std::vector<uint64_t> Wrap(const std::vector<int64_t>& values,
                             int64_t* overflow_count) const;

  /// Allocation-free Wrap: writes into out, reusing its capacity.
  void WrapInto(const std::vector<int64_t>& values, int64_t* overflow_count,
                std::vector<uint64_t>& out) const;

  /// Server side (Algorithm 6): centered unwrap of the aggregated Z_m sum,
  /// inverse rotation and division by gamma.
  StatusOr<std::vector<double>> Decode(
      const std::vector<uint64_t>& zm_sum) const;

  uint64_t modulus() const { return options_.modulus; }
  size_t dim() const { return options_.dim; }
  double gamma() const { return options_.gamma; }

 private:
  RotationCodec(Options options,
                std::optional<transform::RandomRotation> rotation)
      : options_(options), rotation_(std::move(rotation)) {}

  Options options_;
  std::optional<transform::RandomRotation> rotation_;
};

}  // namespace smm::mechanisms

#endif  // SMM_MECHANISMS_ROTATION_CODEC_H_
