// spatial module: k-d tree nearest neighbour vs brute force, voxel filter.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/assert.hpp"
#include "common/rng.hpp"
#include "spatial/kdtree.hpp"
#include "spatial/voxel.hpp"

namespace bba {
namespace {

TEST(KdTree, EmptyAndSingle) {
  KdTree2 empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_THROW((void)empty.nearest({0, 0}), ComputationError);

  KdTree2 one(std::vector<KdTree2::Point>{{1.0, 2.0}});
  const auto nn = one.nearest({0, 0});
  EXPECT_EQ(nn.index, 0u);
  EXPECT_DOUBLE_EQ(nn.squaredDistance, 5.0);
}

class KdTreeSizes : public ::testing::TestWithParam<int> {};

TEST_P(KdTreeSizes, NearestMatchesBruteForce2D) {
  const int n = GetParam();
  Rng rng(static_cast<std::uint64_t>(n));
  std::vector<KdTree2::Point> pts;
  for (int i = 0; i < n; ++i)
    pts.push_back({rng.uniform(-100, 100), rng.uniform(-100, 100)});
  const KdTree2 tree(pts);

  for (int q = 0; q < 50; ++q) {
    const KdTree2::Point query{rng.uniform(-120, 120),
                               rng.uniform(-120, 120)};
    const auto nn = tree.nearest(query);
    double best = 1e18;
    for (const auto& p : pts) {
      const double d = (p[0] - query[0]) * (p[0] - query[0]) +
                       (p[1] - query[1]) * (p[1] - query[1]);
      best = std::min(best, d);
    }
    ASSERT_NEAR(nn.squaredDistance, best, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, KdTreeSizes,
                         ::testing::Values(1, 2, 7, 64, 333, 2000));

TEST(Voxel, DownsamplesToCellCentroids) {
  PointCloud cloud;
  // Two clusters of 4 points each, in distinct 1 m voxels.
  cloud.push({0.1, 0.1, 0.1});
  cloud.push({0.2, 0.2, 0.2});
  cloud.push({0.3, 0.1, 0.3});
  cloud.push({0.2, 0.3, 0.2});
  cloud.push({5.1, 5.1, 0.1});
  cloud.push({5.3, 5.2, 0.2});
  const PointCloud ds = voxelDownsample(cloud, 1.0);
  EXPECT_EQ(ds.size(), 2u);
  // Centroids are the means.
  bool foundA = false, foundB = false;
  for (const auto& lp : ds.points) {
    if ((lp.p - Vec3{0.2, 0.175, 0.2}).norm() < 1e-9) foundA = true;
    if ((lp.p - Vec3{5.2, 5.15, 0.15}).norm() < 1e-9) foundB = true;
  }
  EXPECT_TRUE(foundA);
  EXPECT_TRUE(foundB);
}

TEST(Voxel, HandlesNegativeCoordinatesAndValidatesCell) {
  PointCloud cloud;
  cloud.push({-0.4, -0.4, 0.0});
  cloud.push({0.4, 0.4, 0.0});
  // Cells [-1,0) and [0,1) must stay distinct.
  EXPECT_EQ(voxelDownsample(cloud, 1.0).size(), 2u);
  EXPECT_THROW((void)voxelDownsample(cloud, 0.0), AssertionError);
}

TEST(Voxel, ReducesCountOnDenseCloud) {
  Rng rng(8);
  PointCloud cloud;
  for (int i = 0; i < 5000; ++i) {
    cloud.push({rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(0, 2)});
  }
  const PointCloud ds = voxelDownsample(cloud, 1.0);
  EXPECT_LT(ds.size(), 300u);  // at most 10*10*2 cells
  EXPECT_GT(ds.size(), 50u);
}

}  // namespace
}  // namespace bba
