#include "lidar/scanner.hpp"

#include <cmath>
#include <numbers>

#include "common/assert.hpp"
#include "geom/pose3.hpp"

namespace bba {

PointCloud scanVehicle(const World& world, int vehicleId,
                       const LidarConfig& cfg, double endTime, Rng& rng,
                       const ScanOptions& options) {
  BBA_ASSERT(cfg.channels >= 1 && cfg.azimuthSteps >= 8);
  BBA_ASSERT(cfg.maxRange > 0.0 && cfg.sweepDuration > 0.0);

  const SimVehicle& vehicle = world.vehicleById(vehicleId);
  // Cull static objects once per sweep: the sensor moves at most a couple
  // of meters during the revolution, so one focus disc covers all rays.
  const Raycaster raycaster(world, vehicle.trajectory.pose(endTime).t,
                            cfg.maxRange + 5.0);

  PointCloud cloud;
  cloud.reserve(static_cast<std::size_t>(cfg.channels) *
                static_cast<std::size_t>(cfg.azimuthSteps) / 2);

  const double vFovLo = cfg.verticalFovDownDeg * kDegToRad;
  const double vFovHi = cfg.verticalFovUpDeg * kDegToRad;

  for (int k = 0; k < cfg.azimuthSteps; ++k) {
    const double frac =
        (static_cast<double>(k) + 0.5) / static_cast<double>(cfg.azimuthSteps);
    // Ray emission time within the sweep; with distortion disabled the
    // whole sweep collapses to the scan-end instant.
    const double tk = options.motionDistortion
                          ? endTime - cfg.sweepDuration * (1.0 - frac)
                          : endTime;
    const Pose2 vp2 = vehicle.trajectory.pose(tk);
    const Pose3 vehiclePose = Pose3::planar(vp2.t.x, vp2.t.y, vp2.theta);
    const Vec3 sensorOrigin = vehiclePose.apply(kLidarMountOffset);

    // Azimuth in the vehicle frame sweeps one full turn per revolution.
    const double az = 2.0 * std::numbers::pi * frac;
    const double azWorld = vp2.theta + az;
    const double cosAz = std::cos(azWorld), sinAz = std::sin(azWorld);

    for (int c = 0; c < cfg.channels; ++c) {
      const double el =
          cfg.channels == 1
              ? (vFovLo + vFovHi) / 2.0
              : vFovLo + (vFovHi - vFovLo) * static_cast<double>(c) /
                             static_cast<double>(cfg.channels - 1);
      const double cosEl = std::cos(el);
      const Vec3 dir{cosEl * cosAz, cosEl * sinAz, std::sin(el)};

      const RayHit hit =
          raycaster.cast(sensorOrigin, dir, cfg.maxRange, tk, vehicleId);
      if (!hit.valid()) continue;

      const double range = hit.distance + rng.normal(0.0, cfg.rangeNoiseSigma);
      const Vec3 worldPoint = sensorOrigin + dir * range;
      // Record in the instantaneous vehicle frame; the accumulated cloud is
      // then (wrongly, as in real raw data) interpreted in the scan-end
      // frame — this is the self-motion distortion.
      const Vec3 recorded = vehiclePose.inverse().apply(worldPoint);
      cloud.push(recorded, static_cast<float>(tk - endTime));
    }
  }
  return cloud;
}

}  // namespace bba
