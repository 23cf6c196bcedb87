#include "dataset/sequence.hpp"

#include "common/assert.hpp"
#include "lidar/scanner.hpp"

namespace bba {

namespace {

/// Per-(frame, role) sensing stream, decorrelated from the scenario seed.
/// Keyed by the *source* frame index so a stale payload delivered at frame
/// k is byte-identical to the payload frame k-lag would have transmitted.
Rng sensingRng(std::uint64_t seed, int frameIndex, std::uint64_t role) {
  return Rng(seed ^ 0x5EC0DE5ULL ^
             (static_cast<std::uint64_t>(frameIndex) * 0x9E3779B97F4A7C15ULL) ^
             (role * 0xC2B2AE3D27D4EB4FULL));
}

}  // namespace

SequenceGenerator::SequenceGenerator(SequenceConfig config)
    : cfg_(config), injector_(config.faults) {
  BBA_ASSERT(cfg_.frames >= 1);
  Rng rng(cfg_.seed);
  world_ = makeScenario(cfg_.scenario, rng);
}

Pose2 SequenceGenerator::gtOtherToEgoAt(double tEgo, double tOther) const {
  const Pose2 egoPose =
      world_.vehicleById(world_.egoVehicleId).trajectory.pose(tEgo);
  const Pose2 otherPose =
      world_.vehicleById(world_.otherVehicleId).trajectory.pose(tOther);
  return egoPose.inverse().compose(otherPose);
}

StreamFrame SequenceGenerator::frame(int k) const {
  BBA_ASSERT(k >= 0 && k < cfg_.frames);
  StreamFrame f;
  f.frameIndex = k;
  f.time = k * kFramePeriodS;
  const ScanOptions scanOpt{.motionDistortion = cfg_.motionDistortion};

  // Ego side: always fresh, never faulted.
  {
    Rng rng = sensingRng(cfg_.seed, k, 0);
    f.egoCloud = scanVehicle(world_, world_.egoVehicleId, cfg_.egoLidar,
                             f.time, rng, scanOpt);
  }
  {
    Rng rng = sensingRng(cfg_.seed, k, 1);
    f.egoDets = simulateDetections(world_, world_.egoVehicleId, cfg_.egoLidar,
                                   f.time, cfg_.detector, rng,
                                   cfg_.motionDistortion);
  }
  f.gtOtherToEgo = gtOtherToEgoAt(f.time, f.time);

  // Remote side: sample this frame's fault realization, then build the
  // payload the link actually delivers.
  const FrameFaults faults = injector_.frameFaults(k);
  if (faults.dropped) {
    f.remoteReceived = false;
    f.gtDeliveredOtherToEgo = f.gtOtherToEgo;
    return f;
  }
  f.remoteLagFrames = faults.lagFrames;
  // The payload of the SOURCE frame: a stale payload is byte-identical to
  // what its source frame would have transmitted.
  const int sourceFrame = k - faults.lagFrames;
  PeerObservation remote = peerObservation(sourceFrame, 0);
  f.otherCloud = std::move(remote.cloud);
  f.otherDets = std::move(remote.dets);
  injector_.applyCloudFaults(f.otherCloud, faults);
  injector_.applyBoxFaults(f.otherDets, k);
  f.gtDeliveredOtherToEgo =
      gtOtherToEgoAt(f.time, sourceFrame * kFramePeriodS);
  return f;
}

PeerObservation SequenceGenerator::peerObservation(int k, int peerIdx) const {
  BBA_ASSERT(k >= 0 && k < cfg_.frames);
  BBA_ASSERT(peerIdx == 0);
  const double t = k * kFramePeriodS;
  const ScanOptions scanOpt{.motionDistortion = cfg_.motionDistortion};
  const LidarConfig& lidar =
      cfg_.remoteProfile ? cfg_.remoteProfile->sensor : cfg_.otherLidar;
  PeerObservation obs;
  {
    Rng rng = sensingRng(cfg_.seed, k, 2);
    obs.cloud = scanVehicle(world_, world_.otherVehicleId, lidar, t, rng,
                            scanOpt);
  }
  if (cfg_.remoteProfile)
    applyWeather(obs.cloud, k, cfg_.remoteProfile->weather);
  {
    Rng rng = sensingRng(cfg_.seed, k, 3);
    obs.dets = simulateDetections(world_, world_.otherVehicleId, lidar, t,
                                  cfg_.detector, rng, cfg_.motionDistortion);
  }
  return obs;
}

std::vector<StreamFrame> SequenceGenerator::generate() const {
  std::vector<StreamFrame> out;
  out.reserve(static_cast<std::size_t>(cfg_.frames));
  for (int k = 0; k < cfg_.frames; ++k) out.push_back(frame(k));
  return out;
}

}  // namespace bba
