#pragma once

#include <array>
#include <cstddef>
#include <limits>
#include <vector>

#include "geom/pose2.hpp"

namespace bba {

/// Static 2-D k-d tree over a fixed set of points. Built once, then
/// answers nearest-neighbour queries. Used by the one ICP loop below.
class KdTree2 {
 public:
  using Point = std::array<double, 2>;

  KdTree2() = default;
  /// Build from a point set (copied). O(n log n).
  explicit KdTree2(std::vector<Point> points);

  [[nodiscard]] std::size_t size() const { return points_.size(); }
  [[nodiscard]] bool empty() const { return points_.empty(); }
  [[nodiscard]] const Point& point(std::size_t i) const { return points_[i]; }

  struct Neighbor {
    std::size_t index = 0;
    double squaredDistance = std::numeric_limits<double>::infinity();
  };

  /// Index and squared distance of the nearest stored point; of equally
  /// near points, the first one the traversal visits. Throws
  /// ComputationError on an empty tree.
  [[nodiscard]] Neighbor nearest(const Point& query) const;

 private:
  struct Node {
    std::size_t pointIndex = 0;
    int splitDim = 0;
    int left = -1;
    int right = -1;
  };

  int build(std::vector<std::size_t>& idx, std::size_t lo, std::size_t hi,
            int depth);
  void nearestRec(int node, const Point& query, Neighbor& best) const;

  std::vector<Point> points_;
  std::vector<Node> nodes_;
  int root_ = -1;
};

/// Settings of one icpToTree() run.
struct IcpLoopParams {
  int maxIterations = 50;
  /// Pairs farther apart than this are dropped (meters).
  double maxPairDistance = 5.0;
  /// An iteration left with fewer pairs ends the run without an update.
  std::size_t minPairs = 3;
};

struct IcpResult {
  Pose2 transform;  ///< src -> tree points
  int iterations = 0;  ///< iterations started
  double rmse = 0.0;  ///< RMS pair distance of the last updating iteration
  int correspondences = 0;  ///< pairs of the last iteration
  bool converged = false;
};

/// 2-D point-to-point ICP of `src` onto `dst`'s points from `init`. Each
/// iteration moves every source point by the current transform, pairs it
/// with its nearest tree point, drops the pairs beyond maxPairDistance and
/// composes the rigid fit of the rest (estimateRigid2D) onto the transform.
/// The run has converged once an update is under 1e-3 m and 1e-4 rad.
/// Used by the ICP baseline (icp2d) and by BB-Align's BV polish, each with
/// its own settings.
[[nodiscard]] IcpResult icpToTree(const std::vector<Vec2>& src,
                                  const KdTree2& dst, const Pose2& init,
                                  const IcpLoopParams& params);

}  // namespace bba
