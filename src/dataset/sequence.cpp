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

/// Weather of a peer without a profile: inactive, so a strict no-op.
constexpr WeatherConfig kClearWeather{};

}  // namespace

const LidarConfig& SequenceGenerator::peerLidar(int peerIdx) const {
  const auto idx = static_cast<std::size_t>(peerIdx);
  return idx < cfg_.peerProfiles.size() ? cfg_.peerProfiles[idx].sensor
                                        : cfg_.otherLidar;
}

const WeatherConfig& SequenceGenerator::peerWeather(int peerIdx) const {
  const auto idx = static_cast<std::size_t>(peerIdx);
  return idx < cfg_.peerProfiles.size() ? cfg_.peerProfiles[idx].weather
                                        : kClearWeather;
}

SequenceGenerator::SequenceGenerator(SequenceConfig config)
    : cfg_(config), injector_(config.faults) {
  BBA_ASSERT(cfg_.frames >= 1);
  BBA_ASSERT(cfg_.framePeriod > 0.0);
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
  f.time = k * cfg_.framePeriod;
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
  f.remoteClockSkew = faults.clockSkew;
  const int sourceFrame = k - faults.lagFrames;
  const double tRemote =
      sourceFrame * cfg_.framePeriod + faults.clockSkew;
  // Peer 0's condition profile (when set) governs the classic remote side,
  // so peerObservation(k, 0) stays byte-identical to an unfaulted payload.
  const LidarConfig& remoteLidar = peerLidar(0);
  {
    Rng rng = sensingRng(cfg_.seed, sourceFrame, 2);
    f.otherCloud = scanVehicle(world_, world_.otherVehicleId,
                               remoteLidar, tRemote, rng, scanOpt);
  }
  {
    Rng rng = sensingRng(cfg_.seed, sourceFrame, 3);
    f.otherDets = simulateDetections(world_, world_.otherVehicleId,
                                     remoteLidar, tRemote, cfg_.detector,
                                     rng, cfg_.motionDistortion);
  }
  // Weather keyed by the SOURCE frame: a stale payload is byte-identical
  // to what its source frame would have transmitted.
  applyWeather(f.otherCloud, sourceFrame, peerWeather(0));
  injector_.applyCloudFaults(f.otherCloud, faults);
  injector_.applyBoxFaults(f.otherDets, k);
  f.gtDeliveredOtherToEgo = gtOtherToEgoAt(f.time, tRemote);
  return f;
}

Pose2 SequenceGenerator::gtPeerToEgoAt(int peerIdx, double tEgo,
                                       double tPeer) const {
  BBA_ASSERT(peerIdx >= 0 && peerIdx < peerCount());
  const Pose2 egoPose =
      world_.vehicleById(world_.egoVehicleId).trajectory.pose(tEgo);
  const Pose2 peerPose =
      world_.vehicleById(world_.peerVehicleIds[static_cast<std::size_t>(
                             peerIdx)])
          .trajectory.pose(tPeer);
  return egoPose.inverse().compose(peerPose);
}

PeerObservation SequenceGenerator::peerObservation(int k, int peerIdx) const {
  BBA_ASSERT(k >= 0 && k < cfg_.frames);
  BBA_ASSERT(peerIdx >= 0 && peerIdx < peerCount());
  const int vehicleId =
      world_.peerVehicleIds[static_cast<std::size_t>(peerIdx)];
  const double t = k * cfg_.framePeriod;
  const ScanOptions scanOpt{.motionDistortion = cfg_.motionDistortion};
  PeerObservation obs;
  obs.vehicleId = vehicleId;
  // Roles 2+2p / 3+2p: peer 0 reuses the legacy remote roles (2/3), so an
  // unfaulted frame(k) remote payload and peerObservation(k, 0) coincide —
  // including the per-peer sensor and weather profile.
  const LidarConfig& lidar = peerLidar(peerIdx);
  {
    Rng rng = sensingRng(cfg_.seed, k,
                         2 + 2 * static_cast<std::uint64_t>(peerIdx));
    obs.cloud = scanVehicle(world_, vehicleId, lidar, t, rng, scanOpt);
    applyWeather(obs.cloud, k, peerWeather(peerIdx));
  }
  {
    Rng rng = sensingRng(cfg_.seed, k,
                         3 + 2 * static_cast<std::uint64_t>(peerIdx));
    obs.dets = simulateDetections(world_, vehicleId, lidar, t,
                                  cfg_.detector, rng, cfg_.motionDistortion);
  }
  obs.gtPeerToEgo = gtPeerToEgoAt(peerIdx, t, t);
  return obs;
}

ChurnState SequenceGenerator::peerChurnState(int k, int peerIdx) const {
  BBA_ASSERT(k >= 0 && k < cfg_.frames);
  BBA_ASSERT(peerIdx >= 0 && peerIdx < peerCount());
  // Keyed by the peer's stable vehicle id (not its index): the schedule
  // of an existing peer never changes when the fleet composition does.
  const int vehicleId =
      world_.peerVehicleIds[static_cast<std::size_t>(peerIdx)];
  return injector_.churnState(k, static_cast<std::uint64_t>(vehicleId));
}

std::vector<StreamFrame> SequenceGenerator::generate() const {
  std::vector<StreamFrame> out;
  out.reserve(static_cast<std::size_t>(cfg_.frames));
  for (int k = 0; k < cfg_.frames; ++k) out.push_back(frame(k));
  return out;
}

}  // namespace bba
