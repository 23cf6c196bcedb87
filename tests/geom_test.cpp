// Geometry substrate tests: vectors, poses, boxes, polygon clipping,
// rotated IoU, Kabsch.
#include <gtest/gtest.h>

#include <cmath>

#include "common/assert.hpp"
#include "common/rng.hpp"
#include "geom/iou.hpp"
#include "geom/kabsch.hpp"
#include "geom/obb.hpp"
#include "geom/polygon.hpp"
#include "geom/pose2.hpp"
#include "geom/pose3.hpp"

namespace bba {
namespace {

constexpr double kTol = 1e-9;

TEST(Vec2, BasicOps) {
  const Vec2 a{3.0, 4.0};
  EXPECT_DOUBLE_EQ(a.norm(), 5.0);
  EXPECT_DOUBLE_EQ(a.dot({1.0, 0.0}), 3.0);
  EXPECT_DOUBLE_EQ(a.cross({1.0, 0.0}), -4.0);
  const Vec2 r = Vec2{1.0, 0.0}.rotated(M_PI / 2.0);
  EXPECT_NEAR(r.x, 0.0, kTol);
  EXPECT_NEAR(r.y, 1.0, kTol);
  EXPECT_NEAR(a.normalized().norm(), 1.0, kTol);
  EXPECT_DOUBLE_EQ(Vec2{}.normalized().norm(), 0.0);
}

TEST(Vec2, PerpIsCcwRotation) {
  const Vec2 a{2.0, 1.0};
  const Vec2 p = a.perp();
  EXPECT_DOUBLE_EQ(a.dot(p), 0.0);
  EXPECT_GT(a.cross(p), 0.0);  // +90 degrees is CCW
}

TEST(WrapAngle, Range) {
  EXPECT_NEAR(wrapAngle(3.0 * M_PI), M_PI, 1e-12);
  EXPECT_NEAR(wrapAngle(-3.0 * M_PI), M_PI, 1e-12);
  EXPECT_NEAR(wrapAngle(0.5), 0.5, 1e-12);
  EXPECT_NEAR(angularDistance(0.1, -0.1), 0.2, 1e-12);
  EXPECT_NEAR(angularDistance(M_PI - 0.05, -M_PI + 0.05), 0.1, 1e-12);
}

TEST(Pose2, ComposeInverse) {
  const Pose2 a{Vec2{1.0, 2.0}, 0.3};
  const Pose2 b{Vec2{-0.5, 4.0}, -1.2};
  const Pose2 ab = a.compose(b);
  const Vec2 p{2.0, -3.0};
  const Vec2 viaCompose = ab.apply(p);
  const Vec2 viaSteps = a.apply(b.apply(p));
  EXPECT_NEAR(viaCompose.x, viaSteps.x, kTol);
  EXPECT_NEAR(viaCompose.y, viaSteps.y, kTol);

  const Pose2 id = a.compose(a.inverse());
  EXPECT_NEAR(id.t.norm(), 0.0, kTol);
  EXPECT_NEAR(id.theta, 0.0, kTol);
}

TEST(Pose2, MatrixRoundTrip) {
  const Pose2 a{Vec2{5.0, -7.0}, 2.1};
  const Pose2 b = Pose2::fromMatrix(a.toMatrix());
  EXPECT_NEAR(a.t.x, b.t.x, kTol);
  EXPECT_NEAR(a.t.y, b.t.y, kTol);
  EXPECT_NEAR(a.theta, b.theta, kTol);
}

TEST(Pose3, Eq2RotationMatchesPlanarYaw) {
  // With roll = pitch = 0 Eq. 2 reduces to a plain z-rotation.
  const double yaw = 0.73;
  const Mat3 R = Pose3::rotationFromYawRollPitch(yaw, 0.0, 0.0);
  EXPECT_NEAR(R(0, 0), std::cos(yaw), kTol);
  EXPECT_NEAR(R(1, 0), std::sin(yaw), kTol);
  EXPECT_NEAR(R(2, 2), 1.0, kTol);
  EXPECT_NEAR(R.det(), 1.0, kTol);
}

TEST(Pose3, RotationIsOrthonormalForAnyAngles) {
  Rng rng(7);
  for (int i = 0; i < 50; ++i) {
    const Mat3 R = Pose3::rotationFromYawRollPitch(
        rng.angle(), rng.angle() / 4.0, rng.angle() / 4.0);
    const Mat3 I = R * R.transposed();
    for (int r = 0; r < 3; ++r)
      for (int c = 0; c < 3; ++c)
        EXPECT_NEAR(I(r, c), r == c ? 1.0 : 0.0, 1e-9);
    EXPECT_NEAR(R.det(), 1.0, 1e-9);
  }
}

TEST(Pose3, ComposeInverseAndPose2Consistency) {
  const Pose3 a = Pose3::planar(3.0, -1.0, 0.4);
  const Pose3 b = Pose3::planar(-2.0, 5.0, -2.2);
  const Pose3 ab = a.compose(b);
  const Vec3 p{1.0, 2.0, 3.0};
  const Vec3 v1 = ab.apply(p);
  const Vec3 v2 = a.apply(b.apply(p));
  EXPECT_NEAR((v1 - v2).norm(), 0.0, kTol);

  const Pose3 id = ab.compose(ab.inverse());
  EXPECT_NEAR(id.t.norm(), 0.0, kTol);

  // Planar poses round-trip through Pose2.
  const Pose2 p2 = ab.toPose2();
  const Pose2 expected =
      Pose2{Vec2{3.0, -1.0}, 0.4}.compose(Pose2{Vec2{-2.0, 5.0}, -2.2});
  EXPECT_NEAR(p2.t.x, expected.t.x, kTol);
  EXPECT_NEAR(p2.theta, expected.theta, kTol);
}

TEST(Pose3, Eq1LiftMatchesPose2) {
  const Pose2 p{Vec2{4.0, 5.0}, 1.1};
  const Pose3 T = Pose3::fromPose2(p);
  const Vec3 q{2.0, -1.0, 0.5};
  const Vec3 lifted = T.apply(q);
  const Vec2 planar = p.apply(q.xy());
  EXPECT_NEAR(lifted.x, planar.x, kTol);
  EXPECT_NEAR(lifted.y, planar.y, kTol);
  EXPECT_NEAR(lifted.z, q.z, kTol);  // t_z = 0, roll = pitch = 0

  // Mat4 transformPoint agrees.
  const Vec3 viaMat = T.toMatrix().transformPoint(q);
  EXPECT_NEAR((viaMat - lifted).norm(), 0.0, kTol);
}

TEST(Polygon, AreaAndClip) {
  const Polygon square{{0, 0}, {2, 0}, {2, 2}, {0, 2}};
  EXPECT_DOUBLE_EQ(polygonArea(square), 4.0);

  const Polygon shifted{{1, 1}, {3, 1}, {3, 3}, {1, 3}};
  const Polygon inter = clipConvex(square, shifted);
  EXPECT_NEAR(polygonArea(inter), 1.0, kTol);

  const Polygon far{{10, 10}, {11, 10}, {11, 11}, {10, 11}};
  EXPECT_TRUE(clipConvex(square, far).empty() ||
              polygonArea(clipConvex(square, far)) < 1e-12);
}

TEST(Obb, CornersAreCcwAndConsistent) {
  Rng rng(3);
  for (int i = 0; i < 100; ++i) {
    OrientedBox2 b;
    b.center = {rng.uniform(-50, 50), rng.uniform(-50, 50)};
    b.halfExtent = {rng.uniform(0.5, 5.0), rng.uniform(0.5, 5.0)};
    b.yaw = rng.angle();
    const auto c = b.corners();
    const Polygon poly(c.begin(), c.end());
    EXPECT_NEAR(polygonArea(poly), b.area(), 1e-9);  // positive => CCW
    // Canonicalized boxes cover the same footprint.
    const auto cc = b.canonicalized();
    EXPECT_NEAR(rotatedIoU(b, cc), 1.0, 1e-9);
    EXPECT_GE(cc.yaw, -M_PI / 2.0 - 1e-12);
    EXPECT_LT(cc.yaw, M_PI / 2.0 + 1e-12);
  }
}

TEST(Iou, IdentityAndDisjoint) {
  OrientedBox2 a;
  a.halfExtent = {2.3, 1.0};
  a.yaw = 0.7;
  EXPECT_NEAR(rotatedIoU(a, a), 1.0, 1e-9);

  OrientedBox2 b = a;
  b.center = {100.0, 0.0};
  EXPECT_DOUBLE_EQ(rotatedIoU(a, b), 0.0);
}

TEST(Iou, AxisAlignedAnalytic) {
  OrientedBox2 a;
  a.center = {0, 0};
  a.halfExtent = {2, 1};
  OrientedBox2 b;
  b.center = {2, 0};  // overlap region: x in [0,2] -> 2x2 area
  b.halfExtent = {2, 1};
  const double inter = 2.0 * 2.0;
  const double uni = 8.0 + 8.0 - inter;
  EXPECT_NEAR(rotatedIoU(a, b), inter / uni, 1e-9);
}

TEST(Iou, NeverExceedsOneProperty) {
  Rng rng(11);
  for (int i = 0; i < 2000; ++i) {
    OrientedBox2 a, b;
    a.center = {rng.uniform(-5, 5), rng.uniform(-5, 5)};
    b.center = {rng.uniform(-5, 5), rng.uniform(-5, 5)};
    a.halfExtent = {rng.uniform(0.3, 4), rng.uniform(0.3, 4)};
    b.halfExtent = {rng.uniform(0.3, 4), rng.uniform(0.3, 4)};
    a.yaw = rng.angle();
    b.yaw = rng.angle();
    const double iou = rotatedIoU(a, b);
    ASSERT_GE(iou, 0.0) << "i=" << i;
    ASSERT_LE(iou, 1.0 + 1e-9) << "i=" << i;
    // Symmetry.
    ASSERT_NEAR(iou, rotatedIoU(b, a), 1e-9);
  }
}

TEST(Iou, ContainedBox) {
  OrientedBox2 outer;
  outer.halfExtent = {4, 4};
  OrientedBox2 inner;
  inner.halfExtent = {1, 1};
  inner.yaw = 0.5;
  EXPECT_NEAR(rotatedIoU(outer, inner), inner.area() / outer.area(), 1e-9);
}

TEST(Kabsch, RecoversExactTransform) {
  Rng rng(5);
  for (int trial = 0; trial < 50; ++trial) {
    const Pose2 truth{Vec2{rng.uniform(-20, 20), rng.uniform(-20, 20)},
                      rng.angle()};
    std::vector<Vec2> src, dst;
    for (int i = 0; i < 10; ++i) {
      const Vec2 p{rng.uniform(-30, 30), rng.uniform(-30, 30)};
      src.push_back(p);
      dst.push_back(truth.apply(p));
    }
    const Pose2 est = estimateRigid2D(src, dst);
    EXPECT_NEAR((est.t - truth.t).norm(), 0.0, 1e-9);
    EXPECT_NEAR(angularDistance(est.theta, truth.theta), 0.0, 1e-9);
    double sumSq = 0.0;  // RMS residual of dst[i] - est(src[i])
    for (std::size_t i = 0; i < src.size(); ++i)
      sumSq += (dst[i] - est.apply(src[i])).squaredNorm();
    EXPECT_NEAR(std::sqrt(sumSq / static_cast<double>(src.size())), 0.0,
                1e-9);
  }
}

TEST(Kabsch, LeastSquaresUnderNoise) {
  Rng rng(6);
  const Pose2 truth{Vec2{3, -2}, 0.8};
  std::vector<Vec2> src, dst;
  for (int i = 0; i < 400; ++i) {
    const Vec2 p{rng.uniform(-30, 30), rng.uniform(-30, 30)};
    src.push_back(p);
    dst.push_back(truth.apply(p) +
                  Vec2{rng.normal(0, 0.05), rng.normal(0, 0.05)});
  }
  const Pose2 est = estimateRigid2D(src, dst);
  EXPECT_LT((est.t - truth.t).norm(), 0.02);
  EXPECT_LT(angularDistance(est.theta, truth.theta), 0.002);
}

TEST(Kabsch, ThrowsOnDegenerateInput) {
  std::vector<Vec2> one{{1, 2}};
  EXPECT_THROW((void)estimateRigid2D(one, one), ComputationError);
  std::vector<Vec2> a{{1, 2}, {3, 4}};
  std::vector<Vec2> b{{1, 2}};
  EXPECT_THROW((void)estimateRigid2D(a, b), ComputationError);
}

}  // namespace
}  // namespace bba
