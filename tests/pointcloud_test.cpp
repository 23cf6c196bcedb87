// pointcloud module: transforms, merging, deskewing.
#include <gtest/gtest.h>

#include "pointcloud/point_cloud.hpp"

namespace bba {
namespace {

TEST(PointCloud, TransformPreservesTimesAndGeometry) {
  PointCloud c;
  c.push({1, 0, 0}, -0.05f);
  c.push({0, 2, 1}, -0.01f);
  const Pose3 T = Pose3::planar(10, 0, M_PI / 2.0);
  const PointCloud t = transformed(c, T);
  ASSERT_EQ(t.size(), 2u);
  EXPECT_NEAR(t.points[0].p.x, 10.0, 1e-12);
  EXPECT_NEAR(t.points[0].p.y, 1.0, 1e-12);
  EXPECT_FLOAT_EQ(t.points[0].time, -0.05f);
  EXPECT_NEAR(t.points[1].p.z, 1.0, 1e-12);
}

TEST(PointCloud, MergeConcatenates) {
  PointCloud a, b;
  a.push({1, 1, 1});
  b.push({2, 2, 2});
  b.push({3, 3, 3});
  const PointCloud m = merged(a, b);
  EXPECT_EQ(m.size(), 3u);
}

TEST(Deskew, StraightMotionExactCorrection) {
  // A point captured dt seconds before scan end, from a vehicle moving
  // straight at v: recorded in the instantaneous frame, the scan-end-frame
  // coordinate is the recorded one shifted by v*dt backwards.
  const double v = 10.0;
  const double dt = -0.08;
  // World point X seen from pose P(t_k) = (v*dt, 0, 0):
  const Vec2 X{20.0, 5.0};
  const Vec2 recorded = X - Vec2{v * dt, 0.0};  // instantaneous frame
  PointCloud c;
  c.push({recorded.x, recorded.y, 1.0}, static_cast<float>(dt));
  const PointCloud fixed = deskewed(c, v, 0.0);
  // float time stamps bound the attainable precision
  EXPECT_NEAR(fixed.points[0].p.x, X.x, 1e-5);
  EXPECT_NEAR(fixed.points[0].p.y, X.y, 1e-5);
  EXPECT_FLOAT_EQ(fixed.points[0].time, 0.0f);
}

TEST(Deskew, ArcMotionConsistentWithTrajectoryDelta) {
  const double v = 12.0, w = 0.5;
  const double dt = -0.1;
  // Delta = P(end)^-1 P(end+dt) for constant twist.
  const double theta = w * dt;
  const Vec2 tExpected{v / w * std::sin(theta),
                       v / w * (1.0 - std::cos(theta))};
  PointCloud c;
  c.push({3.0, -1.0, 0.5}, static_cast<float>(dt));
  const PointCloud fixed = deskewed(c, v, w);
  const Pose2 delta{tExpected, theta};
  const Vec2 expect = delta.apply({3.0, -1.0});
  // float time stamps bound the attainable precision
  EXPECT_NEAR(fixed.points[0].p.x, expect.x, 1e-5);
  EXPECT_NEAR(fixed.points[0].p.y, expect.y, 1e-5);
  EXPECT_NEAR(fixed.points[0].p.z, 0.5, 1e-12);
}

TEST(Deskew, NoMotionIsIdentity) {
  PointCloud c;
  c.push({1, 2, 3}, -0.07f);
  const PointCloud fixed = deskewed(c, 0.0, 0.0);
  EXPECT_NEAR((fixed.points[0].p - Vec3{1, 2, 3}).norm(), 0.0, 1e-12);
}

}  // namespace
}  // namespace bba
