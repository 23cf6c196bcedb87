#include "baselines/icp.hpp"

#include <vector>

#include "spatial/voxel.hpp"

namespace bba {

namespace {
std::vector<Vec2> toPlanar(const PointCloud& cloud, double minZ,
                           double cell) {
  const PointCloud ds =
      cell > 0.0 ? voxelDownsample(cloud, cell) : cloud;
  std::vector<Vec2> out;
  out.reserve(ds.size());
  for (const auto& lp : ds.points) {
    if (lp.p.z < minZ) continue;
    out.push_back(lp.p.xy());
  }
  return out;
}
}  // namespace

IcpResult icp2d(const PointCloud& src, const PointCloud& dst,
                const Pose2& initialGuess, const IcpParams& prm) {
  const std::vector<Vec2> srcPts =
      toPlanar(src, prm.minZ, prm.downsampleCell);
  std::vector<KdTree2::Point> dstPts;
  for (const Vec2& p : toPlanar(dst, prm.minZ, prm.downsampleCell))
    dstPts.push_back({p.x, p.y});
  if (srcPts.size() < 8 || dstPts.size() < 8)
    return IcpResult{.transform = initialGuess};
  return icpToTree(srcPts, KdTree2(std::move(dstPts)), initialGuess,
                   {.maxIterations = prm.maxIterations,
                    .maxPairDistance = prm.maxCorrespondenceDistance,
                    .minPairs = 3});
}

}  // namespace bba
