#pragma once

#include "geom/vec.hpp"

namespace bba {

/// Sensor position in the vehicle frame, the same on every car.
inline constexpr Vec3 kLidarMountOffset{0.0, 0.0, 1.9};

/// Spinning-lidar sensor model. The defaults approximate a 32-channel
/// mid-range unit; the factory presets give the heterogeneous sensor
/// configurations (different vendors on each car) that the paper calls out
/// as a hurdle for classical 3-D registration.
struct LidarConfig {
  int channels = 32;
  double verticalFovUpDeg = 10.0;
  double verticalFovDownDeg = -30.0;
  double maxRange = 100.0;           ///< meters
  double sweepDuration = 0.1;        ///< seconds per full revolution
  int azimuthSteps = 1100;           ///< horizontal firings per revolution
  double rangeNoiseSigma = 0.02;     ///< meters, Gaussian per return

  /// 16-channel compact unit (sparser vertical sampling).
  static LidarConfig vlp16() {
    LidarConfig c;
    c.channels = 16;
    c.verticalFovUpDeg = 15.0;
    c.verticalFovDownDeg = -15.0;
    c.azimuthSteps = 900;
    return c;
  }

  /// 32-channel mid-range unit (the default).
  static LidarConfig hdl32() { return LidarConfig{}; }

  /// 64-channel high-end unit (denser in both axes).
  static LidarConfig hdl64() {
    LidarConfig c;
    c.channels = 64;
    c.verticalFovUpDeg = 2.0;
    c.verticalFovDownDeg = -24.8;
    c.azimuthSteps = 1024;
    return c;
  }
};

}  // namespace bba
