#pragma once

#include <vector>

#include "geom/pose3.hpp"
#include "geom/vec.hpp"

namespace bba {

/// One lidar return: position in the sensor/vehicle frame plus the time
/// offset (seconds) within the sweep at which it was captured. The time
/// stamp is what makes self-motion distortion representable.
struct LidarPoint {
  Vec3 p{};
  float time = 0.0f;
};

/// A lidar scan: the set of returns from one full sweep (the paper's
/// footnote 1). Points are expressed in the frame of the vehicle at the
/// *end* of the sweep, uncompensated for motion during the sweep — exactly
/// the raw, self-motion-distorted data real sensors deliver.
struct PointCloud {
  std::vector<LidarPoint> points;

  [[nodiscard]] std::size_t size() const { return points.size(); }
  [[nodiscard]] bool empty() const { return points.empty(); }
  void clear() { points.clear(); }
  void reserve(std::size_t n) { points.reserve(n); }
  void push(const Vec3& p, float time = 0.0f) {
    points.push_back(LidarPoint{p, time});
  }
};

/// Rigidly transform every point of a cloud (time stamps preserved).
[[nodiscard]] PointCloud transformed(const PointCloud& cloud, const Pose3& T);

/// Undo self-motion distortion using the vehicle's own constant-twist
/// odometry (forward speed m/s, yaw rate rad/s): each point, recorded in
/// the instantaneous frame at its stamp, is re-expressed in the scan-end
/// frame. This is the standard single-car deskewing every lidar stack
/// runs; it does NOT require the other car's pose, so the V2V pose-error
/// problem BB-Align solves is untouched by it.
[[nodiscard]] PointCloud deskewed(const PointCloud& cloud, double speed,
                                  double yawRate);

/// Merge two clouds (concatenation) — the "early fusion" primitive.
[[nodiscard]] PointCloud merged(const PointCloud& a, const PointCloud& b);

}  // namespace bba
