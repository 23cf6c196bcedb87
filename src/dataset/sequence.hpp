#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "dataset/fault.hpp"
#include "detect/simulated_detector.hpp"
#include "lidar/conditions.hpp"
#include "lidar/lidar_model.hpp"
#include "sim/scenario.hpp"

namespace bba {

/// Configuration of a temporal V2V stream: one procedural scenario played
/// forward, scanned by both cars every `framePeriod` seconds, with the
/// remote car's payload passed through the fault model. This is the
/// streaming counterpart of `DatasetConfig` (independent per-frame pairs):
/// consecutive frames share the world, so the relative pose evolves
/// smoothly and a tracker can exploit temporal coherence.
struct SequenceConfig {
  /// Seed of the scenario and of all per-frame sensor/detector noise.
  std::uint64_t seed = 42;
  /// Number of frames in the stream.
  int frames = 20;
  /// Seconds between consecutive sweep ends (10 Hz lidar default).
  double framePeriod = 0.1;

  /// The scenario played forward (separation, traffic, curvature, ...).
  ScenarioConfig scenario;

  LidarConfig egoLidar = LidarConfig::hdl32();
  LidarConfig otherLidar = LidarConfig::vlp16();
  DetectorProfile detector = DetectorProfile::coBEVT();
  bool motionDistortion = true;

  /// Mixed-resolution fleets: entry p (when present) sets the sensor and
  /// the weather (lidar/conditions.hpp) of peer index p — beam-count
  /// presets per car, paper Figs. 11–12. Entry 0 also governs the classic
  /// remote side of frame(), so peerObservation(k, 0) remains
  /// byte-identical to an unfaulted frame(k) payload. Peers beyond the
  /// vector use otherLidar in clear weather; the ego side is always clear.
  /// Weather is applied to the captured cloud after the scan and before
  /// any FaultConfig cloud fault, and its realization is keyed by the
  /// SOURCE frame index, so a stale payload stays byte-identical to the
  /// payload its source frame would have transmitted.
  std::vector<LidarProfile> peerProfiles;

  /// Faults applied to the remote side of every frame (default: none).
  FaultConfig faults;
};

/// One frame of the stream, as the ego car experiences it: its own fresh
/// sensing plus whatever the V2V link delivered from the remote car.
struct StreamFrame {
  int frameIndex = 0;
  /// Sweep-end time of the ego sensing (frameIndex * framePeriod).
  double time = 0.0;

  // ---- ego side (local, never faulted) --------------------------------
  PointCloud egoCloud;
  Detections egoDets;

  // ---- remote payload, after the fault model --------------------------
  /// False when the frame was dropped by the link; the remote fields below
  /// are then empty and `gtDeliveredOtherToEgo` is meaningless.
  bool remoteReceived = true;
  /// Latency of the delivered payload in frames (0 = fresh).
  int remoteLagFrames = 0;
  /// Clock skew of the remote sweep end (seconds).
  double remoteClockSkew = 0.0;
  PointCloud otherCloud;
  Detections otherDets;

  // ---- ground truth ---------------------------------------------------
  /// Pose of the *delivered* remote payload's frame relative to the ego
  /// car now: remote car at its capture time -> ego car at `time`. This is
  /// what a pose-recovery estimate on this frame should match (stale
  /// payloads included).
  Pose2 gtDeliveredOtherToEgo;
  /// Zero-fault reference: remote car at `time` -> ego car at `time`.
  Pose2 gtOtherToEgo;
};

/// What one cooperative peer transmits at one frame, before any fault
/// model: its own sensing (cloud + detections) plus the ground-truth pose
/// of the peer relative to the ego car at that instant. Peer index 0 is the
/// classic instrumented "other" car; higher indices exist only when
/// ScenarioConfig::cooperativePeers > 1.
struct PeerObservation {
  int vehicleId = -1;
  PointCloud cloud;
  Detections dets;
  /// Peer car at frame time -> ego car at frame time.
  Pose2 gtPeerToEgo;
};

/// Deterministic stream generator: frame `k` of a given config is always
/// the same scene, scans, detections and faults, independent of the order
/// frames are requested in.
class SequenceGenerator {
 public:
  explicit SequenceGenerator(SequenceConfig config);

  [[nodiscard]] const SequenceConfig& config() const { return cfg_; }
  [[nodiscard]] const World& world() const { return world_; }

  /// Generate frame #k (0-based, k < config().frames).
  [[nodiscard]] StreamFrame frame(int k) const;

  /// Generate the whole stream.
  [[nodiscard]] std::vector<StreamFrame> generate() const;

  /// Ground-truth relative pose: remote car at `tOther` -> ego car at
  /// `tEgo` (both in scenario time).
  [[nodiscard]] Pose2 gtOtherToEgoAt(double tEgo, double tOther) const;

  // ---- fleet-scale accessors (PR 7) -----------------------------------
  /// Number of cooperating (transmitting) peers in the world.
  [[nodiscard]] int peerCount() const {
    return static_cast<int>(world_.peerVehicleIds.size());
  }
  /// Unfaulted sensing of peer `peerIdx` (0-based, < peerCount()) at frame
  /// k's sweep-end time. Each peer consumes its own decorrelated sensing
  /// stream (roles 2+2p / 3+2p); peerObservation(k, 0) is byte-identical
  /// to frame(k)'s remote payload when no faults are configured.
  [[nodiscard]] PeerObservation peerObservation(int k, int peerIdx) const;
  /// Ground truth for any peer: peer `peerIdx` at `tPeer` -> ego at `tEgo`.
  [[nodiscard]] Pose2 gtPeerToEgoAt(int peerIdx, double tEgo,
                                    double tPeer) const;

  /// Churn schedule of peer `peerIdx` at frame k (the fault config's
  /// churn channel keyed by the peer's stable vehicle id): whether the
  /// peer transmits, sits silent on the link, or is absent entirely.
  /// Pure per-(frame, peer) — evaluating one peer never consumes another
  /// peer's stream. Always Present with churn disabled.
  [[nodiscard]] ChurnState peerChurnState(int k, int peerIdx) const;

  // ---- per-role condition profiles --------------------------------------
  /// Sensor / weather in effect for peer `peerIdx`: the per-peer profile
  /// when configured, otherLidar in clear weather otherwise. Peer 0 is
  /// also the classic remote side of frame().
  [[nodiscard]] const LidarConfig& peerLidar(int peerIdx) const;
  [[nodiscard]] const WeatherConfig& peerWeather(int peerIdx) const;

 private:
  SequenceConfig cfg_;
  World world_;
  FaultInjector injector_;
};

}  // namespace bba
