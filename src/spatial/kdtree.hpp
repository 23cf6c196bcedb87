#pragma once

#include <array>
#include <cstddef>
#include <limits>
#include <vector>

namespace bba {

/// Static 2-D k-d tree over a fixed set of points. Built once, then
/// answers nearest-neighbour queries. Used by the ICP baseline and by
/// BB-Align's BV ICP polish.
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

}  // namespace bba
