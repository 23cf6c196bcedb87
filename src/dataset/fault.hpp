#pragma once

#include <cstdint>
#include <vector>

#include "detect/detection.hpp"
#include "geom/obb.hpp"
#include "geom/pose2.hpp"
#include "pointcloud/point_cloud.hpp"

namespace bba {

/// Fault model of the V2V link and the remote (cooperating) car's sensing
/// chain. BB-Align's per-frame evaluation assumes every frame pair arrives
/// intact; a deployed system streams over a lossy radio link with an
/// independently clocked remote car. This config makes each of those
/// failure modes injectable — deterministically, per frame — so the
/// streaming layer's degradation ladder is exercisable from tests and the
/// `bench/stream_robustness` sweep.
///
/// All faults apply to the *remote* side only: the ego car's own sensing
/// never traverses the link.
struct FaultConfig {
  /// Seed of the fault stream. Independent of the scene seed so the same
  /// scenario can be replayed under different fault realizations.
  std::uint64_t seed = 0xFA117;

  /// Probability the whole remote payload of a frame is lost (radio drop,
  /// deadline miss). A dropped frame delivers nothing.
  double frameDropProb = 0.0;

  /// Probability a delivered payload is stale: the remote car's data is
  /// from `1..maxLatencyFrames` frames ago (queueing / retransmission
  /// latency). The ground-truth pose of a stale payload relates the remote
  /// car *at its capture time* to the ego car now.
  double latencyProb = 0.0;
  int maxLatencyFrames = 2;

  /// Corner noise on the remote boxes: additional Gaussian center noise
  /// (meters, per axis) and yaw noise (degrees) on top of the detector's
  /// own error model — a degraded or miscalibrated remote detector.
  double boxCenterNoiseSigma = 0.0;
  double boxYawNoiseSigmaDeg = 0.0;

  /// Lidar sector dropout: with this probability per frame, one azimuth
  /// sector of the remote sweep (width `sectorWidthDeg`, center uniform)
  /// returns nothing — occlusion by the remote car's own body, a blinded
  /// stare region, or a partial sensor fault.
  double sectorDropProb = 0.0;
  double sectorWidthDeg = 60.0;

  // ---- adversarial channels -------------------------------------------
  // Unlike the channels above, these model a peer whose payloads decode
  // cleanly but carry wrong CONTENT: the trust layer (gt-free validation,
  // cross-peer consistency, peer-health FSM) has to catch them. Each is a
  // pure function of (seed, frame, channel) on its own decorrelated
  // stream, so enabling one never re-randomizes the other channels.

  /// Pose-prior spoofing: with this probability per frame, the pose prior
  /// the peer claims is offset by `poseSpoofOffset` meters in a
  /// deterministic random direction plus `poseSpoofYawDeg` degrees of yaw
  /// (random sign) — a lying GPS / a Sybil claiming to be elsewhere.
  double poseSpoofProb = 0.0;
  double poseSpoofOffset = 8.0;
  double poseSpoofYawDeg = 25.0;

  /// Box teleportation: with this probability per frame, EVERY transmitted
  /// box is displaced by a common deterministic random offset of magnitude
  /// `kBoxTeleportOffsetM` — a coherent spatial lie that drags the stage-2
  /// correction (and the fused objects) off the truth.
  double boxTeleportProb = 0.0;

  // ---- fleet-churn channel --------------------------------------------
  // Per-peer join/leave/silence schedules for multi-peer drivers (the
  // cooperation service's session-lifecycle layer, bench/e2e's churn).
  // Like every other channel: a pure function — here of (seed, frame,
  // peerId) — on its own decorrelated stream (channel 8), so enabling
  // churn never re-randomizes the per-frame channels, and evaluating one
  // peer's schedule never consumes another peer's draws.

  /// Peers cycle deterministically between a presence dwell and an
  /// absence gap; per-peer period and phase derive from (seed, peerId),
  /// so a 256-peer fleet churns staggered, not in lockstep.
  struct ChurnConfig {
    bool enable = false;
    /// Consecutive frames a peer stays on the link per cycle (dwell is
    /// drawn per peer from this inclusive range).
    int dwellMinFrames = 8;
    int dwellMaxFrames = 20;
    /// Consecutive frames a peer is gone per cycle (drawn per peer).
    int gapMinFrames = 4;
    int gapMaxFrames = 12;
    /// Per present frame, probability the peer is on the link but does
    /// not transmit (radio shadowing, deadline miss at the sender) —
    /// drawn i.i.d. per (seed, frame, peerId).
    double silenceProb = 0.0;
  };
  ChurnConfig churn;
};

/// Magnitude of the box-teleport offset (meters).
inline constexpr double kBoxTeleportOffsetM = 2.5;

/// Fleet-churn schedule of one peer for one frame.
enum class ChurnState {
  /// The peer is out of range / parked: it contributes no input at all
  /// (a service session, if any, accrues silent frames toward the reaper).
  Absent,
  /// The peer is on the link and transmitting normally.
  Present,
  /// The peer is on the link but did not transmit this frame (drivers
  /// model it as a link-drop input: the session coasts but stays live).
  Silent,
};

[[nodiscard]] const char* toString(ChurnState s);

/// The churn realization of (frame, peer): a pure O(1) function of
/// (cfg.seed at the enclosing FaultConfig, frameIndex, peerId) — no state,
/// no history scan — so a driver can evaluate any subset of peers for any
/// frame, in any order, and always see the same schedule. With
/// cfg.enable == false every peer is Present every frame.
[[nodiscard]] ChurnState churnState(const FaultConfig& cfg, int frameIndex,
                                    std::uint64_t peerId);

/// The fault realization of one frame (pure function of (seed, frame)).
struct FrameFaults {
  bool dropped = false;
  int lagFrames = 0;  ///< payload is from frame `index - lagFrames`
  bool sectorDropped = false;
  double sectorCenterRad = 0.0;
  double sectorHalfWidthRad = 0.0;
};

/// The adversarial realization of one frame (pure function of
/// (seed, frame) on the adversarial channels).
struct AdversarialFaults {
  bool poseSpoofed = false;
  /// Delta applied to the claimed pose prior when `poseSpoofed`.
  Pose2 spoofDelta;
};

/// Deterministic per-frame fault sampler + payload mutators. Every output
/// is a pure function of (config seed, frame index): two injectors with
/// the same config produce byte-identical faults in any call order.
class FaultInjector {
 public:
  explicit FaultInjector(FaultConfig config);

  [[nodiscard]] const FaultConfig& config() const { return cfg_; }

  /// Sample the fault realization of frame `frameIndex`.
  [[nodiscard]] FrameFaults frameFaults(int frameIndex) const;

  /// Apply the cloud-side faults (sector dropout) of `faults` to a remote
  /// sweep, in place.
  void applyCloudFaults(PointCloud& cloud, const FrameFaults& faults) const;

  /// Apply the box-side faults (corner noise) of frame `frameIndex` to
  /// the remote detections, in place. Deterministic given (config seed,
  /// frameIndex, dets.size()).
  void applyBoxFaults(Detections& dets, int frameIndex) const;

  /// Sample the adversarial realization of frame `frameIndex` (pose-spoof
  /// channel 5 — a fresh decorrelated stream; enabling it never
  /// re-randomizes channels 1..3).
  [[nodiscard]] AdversarialFaults adversarialFaults(int frameIndex) const;

  /// Apply the adversarial box faults of frame `frameIndex` (teleportation,
  /// channel 7) to a transmitted BV box set, in place: every box moves by
  /// one common offset. Deterministic given (config seed, frameIndex).
  void applyAdversarialBoxFaults(std::vector<OrientedBox2>& boxes,
                                 int frameIndex) const;

 private:
  FaultConfig cfg_;
};

}  // namespace bba
