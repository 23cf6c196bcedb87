#include "pointcloud/point_cloud.hpp"

#include <cmath>

namespace bba {

PointCloud transformed(const PointCloud& cloud, const Pose3& T) {
  PointCloud out;
  out.points.reserve(cloud.size());
  for (const auto& lp : cloud.points) {
    out.points.push_back(LidarPoint{T.apply(lp.p), lp.time});
  }
  return out;
}

PointCloud deskewed(const PointCloud& cloud, double speed, double yawRate) {
  PointCloud out;
  out.points.reserve(cloud.size());
  for (const auto& lp : cloud.points) {
    const double dt = lp.time;  // <= 0: seconds before scan end
    // Relative pose Delta(dt) = P(t_end)^-1 * P(t_end + dt) under a
    // constant body twist (v, omega).
    const double theta = yawRate * dt;
    Vec2 t;
    if (std::abs(yawRate) < 1e-9) {
      t = {speed * dt, 0.0};
    } else {
      t = {speed / yawRate * std::sin(theta),
           speed / yawRate * (1.0 - std::cos(theta))};
    }
    const Pose2 delta{t, theta};
    const Vec2 corrected = delta.apply(lp.p.xy());
    out.push(Vec3{corrected.x, corrected.y, lp.p.z}, 0.0f);
  }
  return out;
}

PointCloud merged(const PointCloud& a, const PointCloud& b) {
  PointCloud out;
  out.points.reserve(a.size() + b.size());
  out.points.insert(out.points.end(), a.points.begin(), a.points.end());
  out.points.insert(out.points.end(), b.points.begin(), b.points.end());
  return out;
}

}  // namespace bba
