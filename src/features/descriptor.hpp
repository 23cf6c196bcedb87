#pragma once

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

/// A set of keypoints with their descriptors.
///
/// Because the MIM is pi-periodic, the dominant-orientation normalization
/// leaves a 180-degree ambiguity. `flipped(i)` returns the descriptor of
/// the same patch rotated an extra 180 degrees (a cheap deterministic
/// permutation of the primary); matchers take the min distance over both.
class DescriptorSet {
 public:
  DescriptorSet() = default;
  DescriptorSet(std::vector<Keypoint> keypoints,
                std::vector<std::vector<float>> descriptors, int grid,
                int numOrientations);

  [[nodiscard]] std::size_t size() const { return keypoints_.size(); }
  [[nodiscard]] bool empty() const { return keypoints_.empty(); }
  [[nodiscard]] const Keypoint& keypoint(std::size_t i) const {
    return keypoints_[i];
  }
  [[nodiscard]] const std::vector<Keypoint>& keypoints() const {
    return keypoints_;
  }
  [[nodiscard]] const std::vector<float>& descriptor(std::size_t i) const {
    return descriptors_[i];
  }
  /// 180-degree-rotated variant of descriptor i (see class comment).
  [[nodiscard]] std::vector<float> flipped(std::size_t i) const;

  [[nodiscard]] int dimension() const {
    return grid_ * grid_ * numOrientations_;
  }

 private:
  std::vector<Keypoint> keypoints_;
  std::vector<std::vector<float>> descriptors_;
  int grid_ = 0;
  int numOrientations_ = 0;
};

/// Compute BVFT descriptors for the given keypoints over a MIM.
/// Keypoints whose patch would leave the image are dropped. `fixedAngle`
/// is the patch rotation (radians) when params.rotationMode ==
/// FixedAngle; the other modes ignore it.
[[nodiscard]] DescriptorSet computeDescriptors(
    const MimResult& mim, std::vector<Keypoint> keypoints,
    double fixedAngle = 0.0, const DescriptorParams& params = {});

/// Squared Euclidean distance between two descriptors of equal length.
[[nodiscard]] float descriptorDistance2(const std::vector<float>& a,
                                        const std::vector<float>& b);

}  // namespace bba
