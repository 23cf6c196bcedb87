#pragma once

#include "detect/detection.hpp"
#include "geom/pose2.hpp"
#include "pointcloud/point_cloud.hpp"

namespace bba {

/// The cooperative-perception fusion families compared in Table I (Fig. 2
/// of the paper). `FCooper` and `CoBEVT` are the intermediate (feature-
/// level) methods, emulated with BEV feature grids: F-Cooper fuses by
/// maxout over a coarse grid, coBEVT by confidence-weighted (attention-
/// like) blending over a finer grid. See DESIGN.md for the substitution
/// argument.
enum class FusionMethod { Early, Late, FCooper, CoBEVT };

[[nodiscard]] const char* toString(FusionMethod m);

/// Per-car constant-twist odometry, used to deskew each car's own cloud
/// before fusion (standard single-car preprocessing; independent of the
/// inter-vehicle pose problem).
struct EgoMotion {
  double speed = 0.0;    ///< m/s
  double yawRate = 0.0;  ///< rad/s
};

/// Run one cooperative detection pipeline. `otherToEgo` is the pose the
/// ego car *believes* (ground truth, noisy, or recovered); detections come
/// out in the ego frame.
[[nodiscard]] Detections cooperativeDetect(FusionMethod method,
                                           const PointCloud& egoCloud,
                                           const PointCloud& otherCloud,
                                           const Pose2& otherToEgo,
                                           const EgoMotion& egoMotion = {},
                                           const EgoMotion& otherMotion = {});

}  // namespace bba
