// baselines: VIPS spectral graph matching, 2-D ICP.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>

#include "baselines/icp.hpp"
#include "baselines/vips.hpp"
#include "common/rng.hpp"

namespace bba {
namespace {

Detections objectsAt(const std::vector<Vec2>& centers, const Pose2& frame,
                     Rng& rng, double noise = 0.05) {
  Detections out;
  int id = 0;
  for (const Vec2& c : centers) {
    Detection d;
    const Vec2 local = frame.inverse().apply(c);
    d.box.center = {local.x + rng.normal(0, noise),
                    local.y + rng.normal(0, noise), 0.8};
    d.box.size = {4.5, 2.0, 1.6};
    d.truthId = id++;
    out.push_back(d);
  }
  return out;
}

TEST(Vips, RecoversPoseFromRichObjectSet) {
  Rng rng(1);
  // An asymmetric constellation of 8 cars in world coordinates.
  std::vector<Vec2> cars;
  for (int i = 0; i < 8; ++i)
    cars.push_back({rng.uniform(-40, 40), rng.uniform(-15, 15)});
  const Pose2 egoPose{Vec2{0, 0}, 0.1};
  const Pose2 otherPose{Vec2{30, 4}, -0.3};
  Rng n1(2), n2(3);
  const Detections egoDets = objectsAt(cars, egoPose, n1);
  const Detections otherDets = objectsAt(cars, otherPose, n2);

  const VipsResult r = vipsEstimate(otherDets, egoDets);
  ASSERT_TRUE(r.ok);
  const Pose2 truth = egoPose.inverse().compose(otherPose);
  EXPECT_LT((r.transform.t - truth.t).norm(), 0.5);
  EXPECT_LT(angularDistance(r.transform.theta, truth.theta), 0.05);
  EXPECT_GE(r.matchedObjects, 6);
}

TEST(Vips, FailsOnTooFewObjects) {
  Rng rng(4);
  const std::vector<Vec2> cars{{5, 0}};
  Rng n1(5), n2(6);
  const Detections a = objectsAt(cars, Pose2::identity(), n1);
  const Detections b = objectsAt(cars, Pose2{Vec2{10, 0}, 0.0}, n2);
  EXPECT_FALSE(vipsEstimate(a, b).ok);
  EXPECT_FALSE(vipsEstimate({}, b).ok);
}

TEST(Vips, SurvivesPartialOverlapAndClutter) {
  Rng rng(7);
  std::vector<Vec2> cars;
  for (int i = 0; i < 10; ++i)
    cars.push_back({rng.uniform(-40, 40), rng.uniform(-15, 15)});
  const Pose2 egoPose{Vec2{0, 0}, 0.0};
  const Pose2 otherPose{Vec2{25, -3}, 0.2};
  Rng n1(8), n2(9);
  Detections egoDets = objectsAt(cars, egoPose, n1);
  Detections otherDets = objectsAt(
      std::vector<Vec2>(cars.begin(), cars.begin() + 7), otherPose, n2);
  // Clutter detections unique to each car.
  Detection clutter;
  clutter.box.center = {50, 20, 0.8};
  clutter.truthId = -1;
  egoDets.push_back(clutter);
  otherDets.push_back(clutter);

  const VipsResult r = vipsEstimate(otherDets, egoDets);
  ASSERT_TRUE(r.ok);
  const Pose2 truth = egoPose.inverse().compose(otherPose);
  EXPECT_LT((r.transform.t - truth.t).norm(), 0.8);
}

PointCloud gridCloud(Rng& rng, int n = 300) {
  PointCloud c;
  for (int i = 0; i < n; ++i) {
    c.push({rng.uniform(-30, 30), rng.uniform(-30, 30),
            rng.uniform(0.5, 6.0)});
  }
  return c;
}

std::uint64_t bitsOf(double v) {
  std::uint64_t u = 0;
  std::memcpy(&u, &v, sizeof u);
  return u;
}

TEST(Icp, ConvergesFromGoodInitialGuess) {
  Rng rng(10);
  const PointCloud dst = gridCloud(rng);
  const Pose2 truth{Vec2{2.0, -1.5}, 0.08};
  const PointCloud src =
      transformed(dst, Pose3::fromPose2(truth).inverse());
  IcpParams prm;
  prm.downsampleCell = 0.0;
  const IcpResult r = icp2d(src, dst, Pose2::identity(), prm);
  EXPECT_TRUE(r.converged);
  EXPECT_LT((r.transform.t - truth.t).norm(), 0.15);
  EXPECT_LT(angularDistance(r.transform.theta, truth.theta), 0.02);
  EXPECT_LT(r.rmse, 0.2);
  // icp2d and the BV polish run one loop (icpToTree); these bits were
  // captured from icp2d's own loop at 22c3ca5, before it was shared.
  EXPECT_EQ(bitsOf(r.transform.t.x), 0x3fffffffffffffffULL);
  EXPECT_EQ(bitsOf(r.transform.t.y), 0xbff8000000000000ULL);
  EXPECT_EQ(bitsOf(r.transform.theta), 0x3fb47ae147ae147aULL);
  EXPECT_EQ(bitsOf(r.rmse), 0x3cf03d69b6616ccfULL);
  EXPECT_EQ(r.iterations, 8);
  EXPECT_EQ(r.correspondences, 300);
}

TEST(Icp, FailsFromFarInitialGuess) {
  // Starting 30 m off with a 5 m correspondence gate: ICP cannot recover —
  // the property that disqualifies it as a no-prior V2V method (§II).
  Rng rng(11);
  const PointCloud dst = gridCloud(rng);
  const Pose2 truth{Vec2{30.0, 10.0}, 0.4};
  const PointCloud src =
      transformed(dst, Pose3::fromPose2(truth).inverse());
  IcpParams prm;
  prm.downsampleCell = 0.0;
  const IcpResult r = icp2d(src, dst, Pose2::identity(), prm);
  EXPECT_GT((r.transform.t - truth.t).norm(), 5.0);
}

TEST(Icp, HandlesDegenerateInputs) {
  PointCloud tiny;
  tiny.push({0, 0, 1});
  const IcpResult r = icp2d(tiny, tiny, Pose2::identity());
  EXPECT_FALSE(r.converged);
  EXPECT_EQ(r.iterations, 0);
}

}  // namespace
}  // namespace bba
