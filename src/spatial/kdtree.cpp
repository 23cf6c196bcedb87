#include "spatial/kdtree.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/assert.hpp"
#include "geom/kabsch.hpp"

namespace bba {

namespace {
double sqDist(const KdTree2::Point& a, const KdTree2::Point& b) {
  double s = 0.0;
  for (std::size_t d = 0; d < a.size(); ++d) {
    const double diff = a[d] - b[d];
    s += diff * diff;
  }
  return s;
}
}  // namespace

KdTree2::KdTree2(std::vector<Point> points) : points_(std::move(points)) {
  if (points_.empty()) return;
  std::vector<std::size_t> idx(points_.size());
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  nodes_.reserve(points_.size());
  root_ = build(idx, 0, points_.size(), 0);
}

int KdTree2::build(std::vector<std::size_t>& idx, std::size_t lo,
                   std::size_t hi, int depth) {
  if (lo >= hi) return -1;
  const int dim = depth % 2;
  const std::size_t mid = (lo + hi) / 2;
  std::nth_element(idx.begin() + static_cast<std::ptrdiff_t>(lo),
                   idx.begin() + static_cast<std::ptrdiff_t>(mid),
                   idx.begin() + static_cast<std::ptrdiff_t>(hi),
                   [&](std::size_t a, std::size_t b) {
                     return points_[a][static_cast<std::size_t>(dim)] <
                            points_[b][static_cast<std::size_t>(dim)];
                   });
  const int nodeId = static_cast<int>(nodes_.size());
  nodes_.push_back(Node{idx[mid], dim, -1, -1});
  const int left = build(idx, lo, mid, depth + 1);
  const int right = build(idx, mid + 1, hi, depth + 1);
  nodes_[static_cast<std::size_t>(nodeId)].left = left;
  nodes_[static_cast<std::size_t>(nodeId)].right = right;
  return nodeId;
}

KdTree2::Neighbor KdTree2::nearest(const Point& query) const {
  if (empty()) throw ComputationError("KdTree2::nearest on empty tree");
  Neighbor best;
  nearestRec(root_, query, best);
  return best;
}

void KdTree2::nearestRec(int node, const Point& query, Neighbor& best) const {
  if (node < 0) return;
  const Node& n = nodes_[static_cast<std::size_t>(node)];
  const Point& p = points_[n.pointIndex];
  const double d2 = sqDist(p, query);
  if (d2 < best.squaredDistance) {
    best.squaredDistance = d2;
    best.index = n.pointIndex;
  }
  const double delta = query[static_cast<std::size_t>(n.splitDim)] -
                       p[static_cast<std::size_t>(n.splitDim)];
  const int near = delta < 0.0 ? n.left : n.right;
  const int far = delta < 0.0 ? n.right : n.left;
  nearestRec(near, query, best);
  if (delta * delta < best.squaredDistance) nearestRec(far, query, best);
}

IcpResult icpToTree(const std::vector<Vec2>& src, const KdTree2& dst,
                    const Pose2& init, const IcpLoopParams& prm) {
  IcpResult result;
  result.transform = init;
  const double maxD2 = prm.maxPairDistance * prm.maxPairDistance;
  for (int it = 0; it < prm.maxIterations; ++it) {
    result.iterations = it + 1;
    std::vector<Vec2> pairedSrc, pairedDst;
    double sq = 0.0;
    for (const Vec2& p : src) {
      const Vec2 tp = result.transform.apply(p);
      const auto nn = dst.nearest({tp.x, tp.y});
      if (nn.squaredDistance > maxD2) continue;
      const KdTree2::Point& q = dst.point(nn.index);
      pairedSrc.push_back(tp);
      pairedDst.push_back(Vec2{q[0], q[1]});
      sq += nn.squaredDistance;
    }
    result.correspondences = static_cast<int>(pairedSrc.size());
    if (pairedSrc.size() < prm.minPairs) break;
    result.rmse = std::sqrt(sq / static_cast<double>(pairedSrc.size()));

    const Pose2 delta = estimateRigid2D(pairedSrc, pairedDst);
    result.transform = delta.compose(result.transform);
    if (delta.t.norm() < 1e-3 && std::abs(delta.theta) < 1e-4) {
      result.converged = true;
      break;
    }
  }
  return result;
}

}  // namespace bba
