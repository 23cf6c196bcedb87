#pragma once

#include <span>

#include "geom/pose2.hpp"
#include "geom/vec.hpp"

namespace bba {

/// Least-squares rigid 2-D transform (rotation + translation, no scale)
/// mapping src[i] -> dst[i]: the closed-form 2-D Kabsch/Umeyama solution.
///
/// Requires at least 2 correspondences (throws ComputationError otherwise).
/// This is the "estimate transformation from matched keypoints" primitive
/// of Algorithm 1 (lines 11 and 14), also used to refine RANSAC inlier sets.
[[nodiscard]] Pose2 estimateRigid2D(std::span<const Vec2> src,
                                    std::span<const Vec2> dst);

}  // namespace bba
