#pragma once

#include "pointcloud/point_cloud.hpp"
#include "signal/image.hpp"

namespace bba {

/// BV rasterization parameters. With the defaults the image is 256x256
/// (power of two, as required by the FFT-based Log-Gabor bank) covering
/// [-64 m, 64 m) around the vehicle at 0.5 m/cell.
struct BevParams {
  /// R in Eq. 4: cells span [-R, R) on both axes. Defaults cover the full
  /// lidar range — cropping the BV below the sensor range directly shrinks
  /// the co-visible region two separated cars can match on.
  double range = 100.0;
  double cellSize = 0.78125;  ///< c in Eq. 4 (meters per pixel; 256 px)
  /// Height normalization ceiling (meters): pixel intensity is
  /// clamp(maxZ, 0, heightClamp) / heightClamp. 10 m keeps cars and
  /// bushes (the omnidirectional landmarks) clearly above the noise floor
  /// while walls saturate.
  double heightClamp = 10.0;

  /// H = 2R / c.
  [[nodiscard]] int imageSize() const {
    return static_cast<int>(2.0 * range / cellSize + 0.5);
  }

  /// Continuous pixel coordinates of a metric point (vehicle frame).
  [[nodiscard]] Vec2 toPixel(const Vec2& meters) const {
    return {(meters.x + range) / cellSize - 0.5,
            (meters.y + range) / cellSize - 0.5};
  }

  /// Metric (vehicle-frame) coordinates of a continuous pixel position.
  [[nodiscard]] Vec2 toMeters(const Vec2& pixel) const {
    return {(pixel.x + 0.5) * cellSize - range,
            (pixel.y + 0.5) * cellSize - range};
  }
};

/// Height-map BV image (Eq. 4): per-cell maximum z, normalized to [0, 1].
/// Tall landmarks (buildings, tree crowns) dominate; ground returns map to
/// ~0 intensity, which is exactly why the paper picks this encoding.
[[nodiscard]] ImageF makeHeightBV(const PointCloud& cloud,
                                  const BevParams& params);

/// 3x3 box blur; stabilizes keypoint detection on sparse BV images.
[[nodiscard]] ImageF boxBlur3(const ImageF& img);

}  // namespace bba
