#pragma once

#include "geom/pose2.hpp"
#include "pointcloud/point_cloud.hpp"
#include "spatial/kdtree.hpp"

namespace bba {

/// Classical 2-D point-to-point ICP (related-work comparator, §II). Runs
/// on BV-projected clouds; needs a reasonable initial guess — exactly the
/// property that makes it unsuitable as a stand-alone V2V pose-recovery
/// method and that the ablation bench quantifies.
struct IcpParams {
  int maxIterations = 50;
  /// Reject correspondences farther than this (meters).
  double maxCorrespondenceDistance = 5.0;
  /// Voxel size for pre-downsampling (0 disables).
  double downsampleCell = 0.8;
  /// Ignore near-ground returns (they carry no registration signal).
  double minZ = 0.3;
};

/// Align `src` to `dst` starting from `initialGuess` (icpToTree() over the
/// planar points, at least 3 pairs per iteration).
[[nodiscard]] IcpResult icp2d(const PointCloud& src, const PointCloud& dst,
                              const Pose2& initialGuess,
                              const IcpParams& params = {});

}  // namespace bba
