#include "geom/kabsch.hpp"

#include <cmath>

#include "common/assert.hpp"

namespace bba {

Pose2 estimateRigid2D(std::span<const Vec2> src, std::span<const Vec2> dst) {
  if (src.size() < 2 || src.size() != dst.size()) {
    throw ComputationError(
        "estimateRigid2D: need >= 2 correspondences of equal count");
  }
  const double n = static_cast<double>(src.size());
  Vec2 cs{}, cd{};
  for (std::size_t i = 0; i < src.size(); ++i) {
    cs += src[i];
    cd += dst[i];
  }
  cs = cs / n;
  cd = cd / n;

  // Cross-covariance of the centered sets; the optimal rotation angle is
  // atan2 of its antisymmetric/symmetric parts.
  double sxx = 0, sxy = 0, syx = 0, syy = 0;
  for (std::size_t i = 0; i < src.size(); ++i) {
    const Vec2 a = src[i] - cs;
    const Vec2 b = dst[i] - cd;
    sxx += a.x * b.x;
    sxy += a.x * b.y;
    syx += a.y * b.x;
    syy += a.y * b.y;
  }
  const double theta = std::atan2(sxy - syx, sxx + syy);
  const Vec2 t = cd - cs.rotated(theta);
  return Pose2{t, theta};
}

}  // namespace bba
