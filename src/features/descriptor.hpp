#pragma once

#include <span>
#include <vector>

#include "features/fast.hpp"
#include "features/mim.hpp"

namespace bba {

/// How descriptors achieve rotation invariance.
enum class RotationMode {
  /// No normalization: descriptors match only between images with ~zero
  /// relative rotation (ablation).
  None,
  /// Rotate each patch to its dominant MIM orientation (the ORB-like
  /// per-keypoint normalization of ref. [27]). Noisy for blob features
  /// whose dominant orientation is ill-defined (kept for the ablation).
  PerKeypoint,
  /// Rotate every patch by one externally supplied angle. BB-Align's
  /// default: a V2V frame pair has a single global relative yaw, estimated
  /// up-front from the images' orientation histograms, so per-keypoint
  /// orientation jitter never enters the descriptor.
  FixedAngle,
};

/// BVFT-style descriptor parameters (paper defaults: J = 96, l = 6;
/// this implementation defaults to a tighter patch, which is more robust
/// to the occlusion differences between two moving viewpoints).
struct DescriptorParams {
  int patchSize = 48;  ///< J: square patch side, pixels
  int grid = 4;        ///< l: histogram grid per side
  RotationMode rotationMode = RotationMode::FixedAngle;
  /// Pixels vote only when their peak amplitude exceeds this fraction of
  /// the image's maximum — the MIM is argmax noise where there is no
  /// structure, and such pixels must not vote.
  double amplitudeMaskFraction = 0.05;
};

/// A set of keypoints with their descriptors, stored as one row-major
/// block of size() x dimension() floats.
///
/// Because the MIM is pi-periodic, the dominant-orientation normalization
/// leaves a 180-degree ambiguity. `flippedBlock()` returns every
/// descriptor of the set rotated an extra 180 degrees (a cheap
/// deterministic permutation of the primary); matchers take the min
/// distance over both.
class DescriptorSet {
 public:
  DescriptorSet() = default;
  /// `descriptors` holds keypoints.size() rows of grid * grid *
  /// numOrientations floats, row i describing keypoint i.
  DescriptorSet(std::vector<Keypoint> keypoints,
                std::vector<float> descriptors, int grid,
                int numOrientations);

  [[nodiscard]] std::size_t size() const { return keypoints_.size(); }
  [[nodiscard]] bool empty() const { return keypoints_.empty(); }
  [[nodiscard]] const Keypoint& keypoint(std::size_t i) const {
    return keypoints_[i];
  }
  [[nodiscard]] const std::vector<Keypoint>& keypoints() const {
    return keypoints_;
  }
  [[nodiscard]] std::span<const float> descriptor(std::size_t i) const {
    const auto dim = static_cast<std::size_t>(dimension());
    return {data_.data() + i * dim, dim};
  }
  /// Every descriptor rotated 180 degrees (see class comment), one block
  /// laid out like the set's own.
  [[nodiscard]] std::vector<float> flippedBlock() const;

  [[nodiscard]] int dimension() const {
    return grid_ * grid_ * numOrientations_;
  }

 private:
  std::vector<Keypoint> keypoints_;
  std::vector<float> data_;
  int grid_ = 0;
  int numOrientations_ = 0;
};

/// Record on each keypoint its dominant MIM orientation, an angle in
/// [0, pi): the amplitude-weighted mode of the MIM indices in a disc of
/// half a patch around it, refined to sub-bin precision. Only keypoints
/// whose rotated patch fits in the image (the only ones computeDescriptors
/// can keep) are oriented; the others keep their value. The orientation does
/// not depend on a pass's angle, so the feature recipe runs this once per
/// image, before any pass.
void orientKeypoints(const MimResult& mim, std::vector<Keypoint>& keypoints,
                     const DescriptorParams& params = {});

/// Compute BVFT descriptors for the given keypoints over a MIM.
/// Keypoints whose patch would leave the image are dropped, and so are
/// those whose patch holds no structure. Each kept keypoint carries the
/// orientation orientKeypoints() gave it; `fixedAngle` is the patch
/// rotation (radians) when params.rotationMode == FixedAngle, and the
/// other modes ignore it.
[[nodiscard]] DescriptorSet computeDescriptors(
    const MimResult& mim, std::vector<Keypoint> keypoints,
    double fixedAngle = 0.0, const DescriptorParams& params = {});

/// Squared Euclidean distance between two descriptors of equal length.
[[nodiscard]] float descriptorDistance2(std::span<const float> a,
                                        std::span<const float> b);

/// Squared distances of one source row `a` and of its flipped copy
/// `aFlipped` to the 4 destination rows at `b`, `b + n`, `b + 2n` and
/// `b + 3n` (all rows n floats): out[k] and out[4 + k] equal
/// descriptorDistance2 of `a` and of `aFlipped` with row k, bit for bit.
/// One sweep over the elements feeds the 8 pairs' accumulators.
void descriptorDistance2x4(const float* a, const float* aFlipped,
                           const float* b, std::size_t n, float out[8]);

}  // namespace bba
