#include "dataset/generator.hpp"

#include <cmath>

#include "common/assert.hpp"
#include "lidar/scanner.hpp"

namespace bba {

namespace {

/// Resampling budget per pair when the common-car filter rejects a scene.
constexpr int kMaxAttemptsPerPair = 8;

}  // namespace

DatasetGenerator::DatasetGenerator(DatasetConfig config)
    : cfg_(std::move(config)) {
  BBA_ASSERT(cfg_.minSeparation > 0.0 &&
             cfg_.maxSeparation >= cfg_.minSeparation);
}

FramePair DatasetGenerator::buildPair(int index, Rng& rng) const {
  // Randomize the scenario.
  ScenarioConfig sc;
  sc.separation = rng.uniform(cfg_.minSeparation, cfg_.maxSeparation);
  sc.movingVehicles =
      rng.uniformInt(cfg_.minMovingVehicles, cfg_.maxMovingVehicles);
  sc.parkedVehicles =
      rng.uniformInt(cfg_.minParkedVehicles, cfg_.maxParkedVehicles);
  sc.oppositeDirection = rng.bernoulli(cfg_.oppositeDirectionProb);
  if (rng.bernoulli(cfg_.curvedRoadProb)) {
    sc.roadCurvature =
        (rng.bernoulli(0.5) ? 1.0 : -1.0) * rng.uniform(0.002, 0.008);
  }
  if (rng.bernoulli(cfg_.openAreaProb)) {
    sc.openAreaFraction = rng.uniform(0.6, 0.95);
  }
  sc.egoSpeed = rng.uniform(6.0, 14.0);
  sc.otherSpeed = rng.uniform(6.0, 14.0);

  const World world = makeScenario(sc, rng);

  // Sweep end at t = 0; trajectories are integrable backwards in time, so
  // the sweep occupies [-sweepDuration, 0].
  const double t = 0.0;
  const ScanOptions scanOpt{.motionDistortion = cfg_.motionDistortion};

  FramePair pair;
  pair.pairIndex = index;
  pair.egoCloud = scanVehicle(world, world.egoVehicleId, cfg_.egoLidar, t,
                              rng, scanOpt);
  pair.otherCloud = scanVehicle(world, world.otherVehicleId, cfg_.otherLidar,
                                t, rng, scanOpt);
  pair.egoDets =
      simulateDetections(world, world.egoVehicleId, cfg_.egoLidar, t,
                         cfg_.detector, rng, cfg_.motionDistortion);
  pair.otherDets =
      simulateDetections(world, world.otherVehicleId, cfg_.otherLidar, t,
                         cfg_.detector, rng, cfg_.motionDistortion);
  pair.gtOtherToEgo = world.relativePoseOtherToEgo(t);
  const auto& egoTraj = world.vehicleById(world.egoVehicleId).trajectory;
  const auto& otherTraj = world.vehicleById(world.otherVehicleId).trajectory;
  pair.egoSpeed = egoTraj.speed();
  pair.egoYawRate = egoTraj.yawRate();
  pair.otherSpeed = otherTraj.speed();
  pair.otherYawRate = otherTraj.yawRate();
  pair.interVehicleDistance = pair.gtOtherToEgo.t.norm();
  pair.commonCars = countCommonCars(pair.egoDets, pair.otherDets);

  // Ground-truth boxes in the ego frame (every vehicle except ego itself).
  // Like V2V4Real's annotations, each box is drawn where the vehicle's
  // points actually lie in the frame: at the instant the ego car's beam
  // swept over it (moving objects are elsewhere by scan end).
  const Pose2 egoPose = world.vehicleById(world.egoVehicleId).trajectory.pose(t);
  const Pose3 worldToEgo =
      Pose3::planar(egoPose.t.x, egoPose.t.y, egoPose.theta).inverse();
  for (const auto& v : world.vehicles) {
    if (v.id == world.egoVehicleId) continue;
    double tk = t;
    if (cfg_.motionDistortion) {
      const Vec2 rel =
          (v.trajectory.pose(t).t - egoPose.t).rotated(-egoPose.theta);
      const double az = std::atan2(rel.y, rel.x);
      const double frac =
          (az < 0.0 ? az + 2.0 * 3.14159265358979323846 : az) /
          (2.0 * 3.14159265358979323846);
      tk = t - cfg_.egoLidar.sweepDuration * (1.0 - frac);
    }
    pair.gtBoxesEgoFrame.push_back(v.boxAt(tk).transformed(worldToEgo));
  }
  return pair;
}

std::optional<FramePair> DatasetGenerator::generatePair(int index) const {
  for (int attempt = 0; attempt < kMaxAttemptsPerPair; ++attempt) {
    // Decorrelated deterministic stream per (config seed, index, attempt).
    Rng rng(cfg_.seed ^
            (static_cast<std::uint64_t>(index) * 0x9E3779B97F4A7C15ULL) ^
            (static_cast<std::uint64_t>(attempt) * 0xC2B2AE3D27D4EB4FULL));
    FramePair pair = buildPair(index, rng);
    if (pair.commonCars >= cfg_.minCommonCars) return pair;
  }
  return std::nullopt;
}

std::vector<FramePair> DatasetGenerator::generate(int count) const {
  std::vector<FramePair> out;
  out.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    if (auto pair = generatePair(i)) out.push_back(std::move(*pair));
  }
  return out;
}

}  // namespace bba
