#pragma once

#include "detect/detection.hpp"
#include "geom/pose2.hpp"

namespace bba {

struct VipsResult {
  Pose2 transform;  ///< other -> ego
  int matchedObjects = 0;
  bool ok = false;
};

/// Estimate the relative pose from the other car's detections to the ego
/// car's detections by spectral graph matching over object centers: the
/// VIPS-style baseline (ref. [28] of the paper). Nodes are detected-object
/// centers; edges carry pairwise distances; spectral relaxation of the
/// pairwise-consistency matching is solved by power iteration and greedily
/// discretized.
[[nodiscard]] VipsResult vipsEstimate(const Detections& other,
                                      const Detections& ego);

}  // namespace bba
