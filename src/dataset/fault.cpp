#include "dataset/fault.hpp"

#include <algorithm>
#include <cmath>

#include "common/assert.hpp"
#include "common/rng.hpp"
#include "geom/vec.hpp"

namespace bba {

namespace {

/// Decorrelated deterministic stream per (seed, frame, channel): the same
/// scheme generatePair uses for (seed, index, attempt), with a third salt
/// so the fault channels of one frame draw from independent streams.
Rng frameRng(std::uint64_t seed, int frameIndex, std::uint64_t channel) {
  return Rng(seed ^
             (static_cast<std::uint64_t>(frameIndex) * 0x9E3779B97F4A7C15ULL) ^
             (channel * 0xC2B2AE3D27D4EB4FULL));
}

constexpr std::uint64_t kChannelLink = 1;
constexpr std::uint64_t kChannelSector = 2;
constexpr std::uint64_t kChannelBoxes = 3;
constexpr std::uint64_t kChannelAdvPose = 5;
constexpr std::uint64_t kChannelAdvBoxes = 7;
constexpr std::uint64_t kChannelChurn = 8;
constexpr std::uint64_t kChannelChurnSilence = 9;

/// Fold a peer id into a fault seed (odd multiplier, distinct from the
/// frame/channel salts) so per-peer churn streams are mutually
/// decorrelated AND decorrelated from every per-frame channel.
std::uint64_t peerSeed(std::uint64_t seed, std::uint64_t peerId) {
  return seed ^ (peerId * 0xD6E8FEB86659FD93ULL);
}

}  // namespace

const char* toString(ChurnState s) {
  switch (s) {
    case ChurnState::Absent:
      return "absent";
    case ChurnState::Present:
      return "present";
    case ChurnState::Silent:
      return "silent";
  }
  return "unknown";
}

ChurnState churnState(const FaultConfig& cfg, int frameIndex,
                      std::uint64_t peerId) {
  const FaultConfig::ChurnConfig& ch = cfg.churn;
  if (!ch.enable) return ChurnState::Present;
  BBA_ASSERT(ch.dwellMinFrames >= 1 && ch.dwellMaxFrames >= ch.dwellMinFrames);
  BBA_ASSERT(ch.gapMinFrames >= 0 && ch.gapMaxFrames >= ch.gapMinFrames);
  // Per-peer cycle shape: dwell, gap and phase offset are drawn once per
  // peer (frame-free stream), in fixed order. The frame then indexes into
  // the cycle arithmetically — O(1), no history scan.
  Rng peer = frameRng(peerSeed(cfg.seed, peerId), 0, kChannelChurn);
  const int dwell = peer.uniformInt(ch.dwellMinFrames, ch.dwellMaxFrames);
  const int gap = peer.uniformInt(ch.gapMinFrames, ch.gapMaxFrames);
  const int period = dwell + gap;
  const int offset = period > 1 ? peer.uniformInt(0, period - 1) : 0;
  const int phase = (frameIndex + offset) % period;
  if (phase >= dwell) return ChurnState::Absent;
  // Silence overlay: i.i.d. per present (frame, peer), on its own stream
  // so it never perturbs the cycle draws above.
  if (ch.silenceProb > 0.0) {
    Rng silent = frameRng(peerSeed(cfg.seed, peerId), frameIndex,
                          kChannelChurnSilence);
    if (silent.uniform(0.0, 1.0) < ch.silenceProb) return ChurnState::Silent;
  }
  return ChurnState::Present;
}

FaultInjector::FaultInjector(FaultConfig config) : cfg_(config) {
  BBA_ASSERT(cfg_.maxLatencyFrames >= 1);
  BBA_ASSERT(cfg_.sectorWidthDeg > 0.0);
}

FrameFaults FaultInjector::frameFaults(int frameIndex) const {
  FrameFaults f;
  // Link-level faults: drop, latency. The draws happen in a fixed order
  // regardless of which probabilities are zero, so enabling one channel
  // never re-randomizes another.
  Rng link = frameRng(cfg_.seed, frameIndex, kChannelLink);
  const double dropDraw = link.uniform(0.0, 1.0);
  const double latencyDraw = link.uniform(0.0, 1.0);
  const int lagDraw = link.uniformInt(1, cfg_.maxLatencyFrames);
  f.dropped = dropDraw < cfg_.frameDropProb;
  if (latencyDraw < cfg_.latencyProb) {
    f.lagFrames = std::min(lagDraw, frameIndex);  // frame 0 has no past
  }

  Rng sector = frameRng(cfg_.seed, frameIndex, kChannelSector);
  const double sectorDraw = sector.uniform(0.0, 1.0);
  const double centerDraw = sector.uniform(-3.14159265358979323846,
                                           3.14159265358979323846);
  if (sectorDraw < cfg_.sectorDropProb) {
    f.sectorDropped = true;
    f.sectorCenterRad = centerDraw;
    f.sectorHalfWidthRad = 0.5 * cfg_.sectorWidthDeg * kDegToRad;
  }
  return f;
}

void FaultInjector::applyCloudFaults(PointCloud& cloud,
                                     const FrameFaults& faults) const {
  if (!faults.sectorDropped) return;
  auto inSector = [&faults](const LidarPoint& lp) {
    const double az = std::atan2(lp.p.y, lp.p.x);
    return angularDistance(az, faults.sectorCenterRad) <=
           faults.sectorHalfWidthRad;
  };
  cloud.points.erase(
      std::remove_if(cloud.points.begin(), cloud.points.end(), inSector),
      cloud.points.end());
}

void FaultInjector::applyBoxFaults(Detections& dets, int frameIndex) const {
  // Corner noise: perturb center and yaw (which moves every corner of the
  // oriented box) on top of the detector's own error model.
  if (cfg_.boxCenterNoiseSigma > 0.0 || cfg_.boxYawNoiseSigmaDeg > 0.0) {
    Rng rng = frameRng(cfg_.seed, frameIndex, kChannelBoxes);
    for (Detection& d : dets) {
      d.box.center.x += rng.normal(0.0, cfg_.boxCenterNoiseSigma);
      d.box.center.y += rng.normal(0.0, cfg_.boxCenterNoiseSigma);
      d.box.yaw = wrapAngle(
          d.box.yaw + rng.normal(0.0, cfg_.boxYawNoiseSigmaDeg * kDegToRad));
    }
  }
}

AdversarialFaults FaultInjector::adversarialFaults(int frameIndex) const {
  AdversarialFaults f;
  // Pose-spoof channel: fixed draw order (gate, direction, yaw sign) so
  // the realization of frame k is independent of the other probabilities.
  Rng pose = frameRng(cfg_.seed, frameIndex, kChannelAdvPose);
  const double spoofDraw = pose.uniform(0.0, 1.0);
  const double dirDraw = pose.uniform(-3.14159265358979323846,
                                      3.14159265358979323846);
  const double signDraw = pose.uniform(0.0, 1.0);
  if (spoofDraw < cfg_.poseSpoofProb) {
    f.poseSpoofed = true;
    f.spoofDelta.t = Vec2{std::cos(dirDraw), std::sin(dirDraw)} *
                     cfg_.poseSpoofOffset;
    f.spoofDelta.theta = (signDraw < 0.5 ? -1.0 : 1.0) *
                         cfg_.poseSpoofYawDeg * kDegToRad;
  }
  return f;
}

void FaultInjector::applyAdversarialBoxFaults(
    std::vector<OrientedBox2>& boxes, int frameIndex) const {
  // Fixed draw order (gate, direction), so the realization of frame k is
  // independent of the probability.
  Rng rng = frameRng(cfg_.seed, frameIndex, kChannelAdvBoxes);
  const double teleDraw = rng.uniform(0.0, 1.0);
  const double teleDir = rng.uniform(-3.14159265358979323846,
                                     3.14159265358979323846);
  if (teleDraw < cfg_.boxTeleportProb) {
    const Vec2 offset =
        Vec2{std::cos(teleDir), std::sin(teleDir)} * kBoxTeleportOffsetM;
    for (OrientedBox2& b : boxes) b.center += offset;
  }
}

}  // namespace bba
