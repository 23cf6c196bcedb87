#include "fusion/fusion.hpp"

#include <algorithm>
#include <cmath>

#include "common/assert.hpp"
#include "detect/cluster_detector.hpp"
#include "fusion/nms.hpp"
#include "geom/pose3.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "signal/image.hpp"

namespace bba {

const char* toString(FusionMethod m) {
  switch (m) {
    case FusionMethod::Early:
      return "Early Fusion";
    case FusionMethod::Late:
      return "Late Fusion";
    case FusionMethod::FCooper:
      return "F-Cooper";
    case FusionMethod::CoBEVT:
      return "coBEVT";
  }
  return "?";
}

namespace {

/// The clustering detector every pipeline's detection head runs.
constexpr ClusterDetectorParams kDetector{};
constexpr double kLateNmsIou = 0.25;
/// Intermediate-fusion grid resolutions (meters per cell; PointPillar-class
/// models use ~0.4 m pillars).
constexpr double kFCooperCellM = 0.4;
constexpr double kCoBevtCellM = 0.4;
/// Occupancy threshold for the grid detection head.
constexpr double kGridThreshold = 0.3;

/// BEV feature grid: the emulated "intermediate feature map" one car
/// would transmit. Besides car-band occupancy and a tall-structure mask,
/// each cell keeps the mean position of its returns — the sub-cell offset
/// information PointPillar-class features carry — so the detection head
/// downstream of fusion keeps L-shape-fitting precision.
struct FeatureGrid {
  ImageF occupancy;
  ImageF tall;
  ImageF meanX;  ///< metric mean x of the cell's band returns
  ImageF meanY;
  double cell = 0.4;
  double range = 100.0;

  [[nodiscard]] int size() const { return occupancy.width(); }
};

FeatureGrid makeGrid(const PointCloud& cloud, double cell, double range,
                     const ClusterDetectorParams& det) {
  FeatureGrid g;
  g.cell = cell;
  g.range = range;
  const int n = static_cast<int>(2.0 * range / cell);
  g.occupancy = ImageF(n, n, 0.0f);
  g.tall = ImageF(n, n, 0.0f);
  g.meanX = ImageF(n, n, 0.0f);
  g.meanY = ImageF(n, n, 0.0f);
  ImageF count(n, n, 0.0f);
  for (const auto& lp : cloud.points) {
    const Vec3& p = lp.p;
    if (p.x < -range || p.x >= range || p.y < -range || p.y >= range)
      continue;
    const int u = static_cast<int>((p.x + range) / cell);
    const int v = static_cast<int>((p.y + range) / cell);
    if (u < 0 || u >= n || v < 0 || v >= n) continue;
    if (p.z > det.tallZ) {
      g.tall(u, v) = 1.0f;
    } else if (p.z >= det.bandZMin && p.z <= det.bandZMax) {
      // One return is already evidence; saturation at ~3 returns.
      g.occupancy(u, v) = std::min(1.0f, g.occupancy(u, v) + 0.34f);
      count(u, v) += 1.0f;
      g.meanX(u, v) += static_cast<float>(p.x);
      g.meanY(u, v) += static_cast<float>(p.y);
    }
  }
  const int n2 = n * n;
  for (int i = 0; i < n2; ++i) {
    const float c = count.data()[static_cast<std::size_t>(i)];
    if (c > 0.0f) {
      g.meanX.data()[static_cast<std::size_t>(i)] /= c;
      g.meanY.data()[static_cast<std::size_t>(i)] /= c;
    }
  }
  return g;
}

/// How two cells' evidence is combined when fused onto the same location.
enum class FuseOp {
  Maxout,    ///< F-Cooper: keep the stronger view's feature verbatim
  Weighted,  ///< coBEVT: confidence-weighted (attention-like) blending
};

/// Fuse the other car's grid into (a copy of) the ego grid using the
/// believed pose: forward-splat each occupied source cell's mean position
/// through the transform (the spatial-warp step every intermediate-fusion
/// model runs).
FeatureGrid fuseGrids(const FeatureGrid& ego, const FeatureGrid& other,
                      const Pose2& otherToEgo, FuseOp op,
                      double otherWeight) {
  FeatureGrid out = ego;
  const int n = other.size();
  for (int v = 0; v < n; ++v) {
    for (int u = 0; u < n; ++u) {
      // Tall mask: splat the cell center.
      if (other.tall(u, v) > 0.5f) {
        const Vec2 c{(u + 0.5) * other.cell - other.range,
                     (v + 0.5) * other.cell - other.range};
        const Vec2 w = otherToEgo.apply(c);
        const int du = static_cast<int>((w.x + out.range) / out.cell);
        const int dv = static_cast<int>((w.y + out.range) / out.cell);
        if (out.tall.inBounds(du, dv)) out.tall(du, dv) = 1.0f;
      }
      // Both published models learn to trust their own view more than a
      // potentially misregistered remote one; the trust factor discounts
      // the received features.
      const float occ =
          other.occupancy(u, v) * static_cast<float>(otherWeight);
      if (occ <= 0.0f) continue;
      const Vec2 m{other.meanX(u, v), other.meanY(u, v)};
      const Vec2 w = otherToEgo.apply(m);
      const int du = static_cast<int>((w.x + out.range) / out.cell);
      const int dv = static_cast<int>((w.y + out.range) / out.cell);
      if (!out.occupancy.inBounds(du, dv)) continue;
      const float prev = out.occupancy(du, dv);
      if (op == FuseOp::Maxout) {
        if (occ > prev) {
          out.occupancy(du, dv) = occ;
          out.meanX(du, dv) = static_cast<float>(w.x);
          out.meanY(du, dv) = static_cast<float>(w.y);
        }
      } else {
        const float sum = prev + occ;
        out.meanX(du, dv) = (out.meanX(du, dv) * prev +
                             static_cast<float>(w.x) * occ) /
                            sum;
        out.meanY(du, dv) = (out.meanY(du, dv) * prev +
                             static_cast<float>(w.y) * occ) /
                            sum;
        out.occupancy(du, dv) = std::min(1.0f, (prev * prev + occ * occ) /
                                                   std::max(sum, 1e-6f));
      }
    }
  }
  return out;
}

/// Detection head on a fused grid: one pseudo-point per occupied cell at
/// the cell's (fused) mean position; tall cells become tall pseudo-points
/// so wall suppression still applies; then the clustering detector runs.
Detections detectOnGrid(const FeatureGrid& grid, double threshold,
                        const ClusterDetectorParams& base) {
  PointCloud pseudo;
  const int n = grid.size();
  for (int v = 0; v < n; ++v) {
    for (int u = 0; u < n; ++u) {
      if (grid.tall(u, v) > 0.5f) {
        const Vec2 c{(u + 0.5) * grid.cell - grid.range,
                     (v + 0.5) * grid.cell - grid.range};
        pseudo.push(Vec3{c.x, c.y, base.tallZ + 1.0});
      } else if (grid.occupancy(u, v) >= static_cast<float>(threshold)) {
        pseudo.push(Vec3{grid.meanX(u, v), grid.meanY(u, v), 1.0});
        // Feature confidence feeds the head: saturated (own-view) cells
        // count double, so when duplicates of one object compete, the
        // ego view's cluster wins the suppression.
        if (grid.occupancy(u, v) >= 0.9f) {
          pseudo.push(
              Vec3{grid.meanX(u, v) + 0.01, grid.meanY(u, v), 1.0});
        }
      }
    }
  }
  ClusterDetectorParams prm = base;
  // Clustering at ~1.5x the feature cell gives the head the spatial
  // tolerance real convolutional heads have: slightly misaligned copies of
  // one object merge into a single cluster instead of duplicating.
  prm.cellSize = std::max(grid.cell * 1.5, 0.45);
  prm.range = grid.range;
  prm.minPoints = std::max(
      3, static_cast<int>(1.2 / (grid.cell * grid.cell)));
  prm.scoreSaturationPoints = prm.minPoints * 4;
  return distanceSuppression(detectByClustering(pseudo, prm), 3.0);
}

}  // namespace

Detections cooperativeDetect(FusionMethod method, const PointCloud& rawEgo,
                             const PointCloud& rawOther,
                             const Pose2& otherToEgo,
                             const EgoMotion& egoMotion,
                             const EgoMotion& otherMotion) {
  BBA_SPAN("fusion");
  BBA_COUNTER_ADD("fusion.calls", 1);
  const Pose3 T = Pose3::fromPose2(otherToEgo);
  // Standard single-car preprocessing: each stack deskews its own sweep
  // with its onboard odometry before any sharing happens.
  const PointCloud egoCloud =
      deskewed(rawEgo, egoMotion.speed, egoMotion.yawRate);
  const PointCloud otherCloud =
      deskewed(rawOther, otherMotion.speed, otherMotion.yawRate);

  switch (method) {
    case FusionMethod::Early: {
      // NMS collapses the duplicate boxes that arise when the two views of
      // one object fail to merge into a single cluster (misalignment or
      // per-view smear).
      const PointCloud fused = merged(egoCloud, transformed(otherCloud, T));
      return nonMaximumSuppression(detectByClustering(fused, kDetector),
                                   kLateNmsIou);
    }
    case FusionMethod::Late: {
      // Each car's detector runs in its own frame, sensor at the origin.
      Detections ego = detectByClustering(egoCloud, kDetector);
      const Detections other = detectByClustering(otherCloud, kDetector);
      for (const Detection& d : other) {
        Detection moved = d;
        moved.box = d.box.transformed(T);
        ego.push_back(moved);
      }
      return nonMaximumSuppression(std::move(ego), kLateNmsIou);
    }
    case FusionMethod::FCooper: {
      // Maxout feature fusion over a pillar grid (ref. [12]).
      const FeatureGrid egoGrid =
          makeGrid(egoCloud, kFCooperCellM, kDetector.range, kDetector);
      const FeatureGrid otherGrid =
          makeGrid(otherCloud, kFCooperCellM, kDetector.range, kDetector);
      const FeatureGrid fused =
          fuseGrids(egoGrid, otherGrid, otherToEgo, FuseOp::Maxout, 0.8);
      return detectOnGrid(fused, kGridThreshold, kDetector);
    }
    case FusionMethod::CoBEVT: {
      // Confidence-weighted (attention-like) blending (ref. [1]): each
      // cell trusts whichever view is more confident, which degrades more
      // gracefully under misalignment than maxout.
      const FeatureGrid egoGrid =
          makeGrid(egoCloud, kCoBevtCellM, kDetector.range, kDetector);
      const FeatureGrid otherGrid =
          makeGrid(otherCloud, kCoBevtCellM, kDetector.range, kDetector);
      const FeatureGrid fused =
          fuseGrids(egoGrid, otherGrid, otherToEgo, FuseOp::Weighted, 0.6);
      return detectOnGrid(fused, kGridThreshold, kDetector);
    }
  }
  throw ComputationError("cooperativeDetect: unknown fusion method");
}

}  // namespace bba
