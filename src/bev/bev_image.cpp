#include "bev/bev_image.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "obs/trace.hpp"

namespace bba {

namespace {
bool toCell(const BevParams& p, const Vec3& pt, int& u, int& v) {
  if (pt.x < -p.range || pt.x >= p.range || pt.y < -p.range ||
      pt.y >= p.range)
    return false;
  u = static_cast<int>((pt.x + p.range) / p.cellSize);
  v = static_cast<int>((pt.y + p.range) / p.cellSize);
  const int h = p.imageSize();
  return u >= 0 && u < h && v >= 0 && v < h;
}
}  // namespace

ImageF makeHeightBV(const PointCloud& cloud, const BevParams& params) {
  BBA_SPAN("bev");
  BBA_ASSERT(params.range > 0.0 && params.cellSize > 0.0);
  const int h = params.imageSize();
  ImageF img(h, h, 0.0f);
  for (const auto& lp : cloud.points) {
    int u = 0, v = 0;
    if (!toCell(params, lp.p, u, v)) continue;
    const double z =
        std::clamp(lp.p.z, 0.0, params.heightClamp) / params.heightClamp;
    img(u, v) = std::max(img(u, v), static_cast<float>(z));
  }
  return img;
}

ImageF boxBlur3(const ImageF& img) {
  ImageF out(img.width(), img.height());
  for (int y = 0; y < img.height(); ++y) {
    for (int x = 0; x < img.width(); ++x) {
      float s = 0.0f;
      for (int dy = -1; dy <= 1; ++dy)
        for (int dx = -1; dx <= 1; ++dx) s += img.clampedAt(x + dx, y + dy);
      out(x, y) = s / 9.0f;
    }
  }
  return out;
}

}  // namespace bba
