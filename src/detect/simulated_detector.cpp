#include "detect/simulated_detector.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "common/assert.hpp"
#include "geom/pose3.hpp"
#include "lidar/raycast.hpp"

namespace bba {

namespace {
/// Line-of-sight check: does a ray from the sensor toward the target's
/// center (and two lateral offsets) reach the target first?
bool visible(const Raycaster& rc, const Vec3& sensor, const SimVehicle& target,
             double t, int selfId, double maxRange) {
  const Box3 box = target.boxAt(t);
  const Vec2 lateral =
      Vec2{std::cos(box.yaw), std::sin(box.yaw)}.perp() * (box.size.y * 0.35);
  const Vec3 offsets[3] = {
      box.center,
      box.center + Vec3{lateral.x, lateral.y, 0.0},
      box.center - Vec3{lateral.x, lateral.y, 0.0},
  };
  for (const Vec3& aim : offsets) {
    const Vec3 d = aim - sensor;
    const double dist = d.norm();
    if (dist < 1e-6 || dist > maxRange) continue;
    const RayHit hit = rc.cast(sensor, d / dist, maxRange, t, selfId);
    if (hit.kind == HitKind::Vehicle && hit.vehicleId == target.id)
      return true;
  }
  return false;
}
}  // namespace

std::vector<OrientedBox2> projectBV(const Detections& dets) {
  std::vector<OrientedBox2> out;
  out.reserve(dets.size());
  for (const auto& d : dets) out.push_back(d.box.projectBV());
  return out;
}

int countCommonCars(const Detections& a, const Detections& b) {
  int common = 0;
  for (const auto& da : a) {
    if (da.truthId < 0) continue;
    for (const auto& db : b) {
      if (db.truthId == da.truthId) {
        ++common;
        break;
      }
    }
  }
  return common;
}

Detections simulateDetections(const World& world, int vehicleId,
                              const LidarConfig& lidar, double t,
                              const DetectorProfile& prof, Rng& rng,
                              bool motionDistortion) {
  BBA_ASSERT(prof.maxRange > 0.0);
  const SimVehicle& self = world.vehicleById(vehicleId);
  const Raycaster raycaster(world);

  const Pose2 selfPose2 = self.trajectory.pose(t);
  const Pose3 selfPose =
      Pose3::planar(selfPose2.t.x, selfPose2.t.y, selfPose2.theta);
  const Vec3 sensor = selfPose.apply(kLidarMountOffset);

  Detections out;
  for (const auto& target : world.vehicles) {
    if (target.id == vehicleId) continue;
    const Box3 nowBox = target.boxAt(t);
    const double range = (nowBox.center - sensor).norm();
    if (range > prof.maxRange) continue;
    if (!visible(raycaster, sensor, target, t, vehicleId, lidar.maxRange))
      continue;

    const double recall =
        prof.recallNear +
        (prof.recallFar - prof.recallNear) * (range / prof.maxRange);
    if (!rng.bernoulli(recall)) continue;

    // The spinning beam swept over this target at time tk, not at sweep
    // end; the detector sees the target where it was then, expressed in
    // the sensor's frame at that instant (self-motion distortion).
    double tk = t;
    if (motionDistortion) {
      const Vec2 rel =
          (nowBox.center.xy() - selfPose2.t).rotated(-selfPose2.theta);
      const double az = std::atan2(rel.y, rel.x);
      const double frac =
          (az < 0.0 ? az + 2.0 * std::numbers::pi : az) /
          (2.0 * std::numbers::pi);
      tk = t - lidar.sweepDuration * (1.0 - frac);
    }
    const Pose2 selfAtTk = self.trajectory.pose(tk);
    const Box3 boxAtTk = target.boxAt(tk);
    const Vec2 recordedCenter =
        (boxAtTk.center.xy() - selfAtTk.t).rotated(-selfAtTk.theta);
    const double recordedYaw = wrapAngle(boxAtTk.yaw - selfAtTk.theta);

    Detection det;
    det.truthId = target.id;
    det.box.center = {recordedCenter.x + rng.normal(0.0, prof.centerNoiseSigma),
                      recordedCenter.y + rng.normal(0.0, prof.centerNoiseSigma),
                      boxAtTk.size.z / 2.0};
    det.box.size = {
        std::max(2.5, boxAtTk.size.x + rng.normal(0.0, prof.sizeNoiseSigma)),
        std::max(1.2, boxAtTk.size.y + rng.normal(0.0, prof.sizeNoiseSigma)),
        boxAtTk.size.z};
    det.box.yaw = wrapAngle(
        recordedYaw + rng.normal(0.0, prof.yawNoiseSigmaDeg * kDegToRad));
    const double scoreBase = 0.95 - 0.45 * (range / prof.maxRange);
    det.score = static_cast<float>(std::clamp(
        scoreBase + rng.normal(0.0, prof.scoreNoiseSigma), 0.05, 1.0));
    out.push_back(det);
  }

  // False positives: clutter boxes at random nearby locations.
  const int fp = rng.bernoulli(prof.falsePositivesPerFrame -
                               std::floor(prof.falsePositivesPerFrame))
                     ? static_cast<int>(prof.falsePositivesPerFrame) + 1
                     : static_cast<int>(prof.falsePositivesPerFrame);
  for (int i = 0; i < fp; ++i) {
    Detection det;
    det.truthId = -1;
    const double r = rng.uniform(8.0, prof.maxRange * 0.8);
    const double a = rng.angle();
    det.box.center = {r * std::cos(a), r * std::sin(a), 0.8};
    det.box.size = {rng.uniform(3.6, 5.0), rng.uniform(1.6, 2.1), 1.6};
    det.box.yaw = rng.angle();
    det.score =
        static_cast<float>(std::clamp(rng.uniform(0.05, 0.5), 0.0, 1.0));
    out.push_back(det);
  }
  return out;
}

}  // namespace bba
