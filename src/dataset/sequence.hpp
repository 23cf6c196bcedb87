#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "dataset/fault.hpp"
#include "detect/simulated_detector.hpp"
#include "lidar/conditions.hpp"
#include "lidar/lidar_model.hpp"
#include "sim/scenario.hpp"

namespace bba {

/// Seconds between consecutive sweep ends (10 Hz lidar).
inline constexpr double kFramePeriodS = 0.1;

/// Configuration of a temporal V2V stream: one procedural scenario played
/// forward, scanned by both cars every `kFramePeriodS` seconds, with the
/// remote car's payload passed through the fault model. This is the
/// streaming counterpart of `DatasetConfig` (independent per-frame pairs):
/// consecutive frames share the world, so the relative pose evolves
/// smoothly and a tracker can exploit temporal coherence.
struct SequenceConfig {
  /// Seed of the scenario and of all per-frame sensor/detector noise.
  std::uint64_t seed = 42;
  /// Number of frames in the stream.
  int frames = 20;

  /// The scenario played forward (separation, traffic, curvature, ...).
  ScenarioConfig scenario;

  LidarConfig egoLidar = LidarConfig::hdl32();
  LidarConfig otherLidar = LidarConfig::vlp16();
  DetectorProfile detector = DetectorProfile::coBEVT();
  bool motionDistortion = true;

  /// Sensor and weather (lidar/conditions.hpp) of the remote car, when
  /// set — beam-count presets per car, paper Figs. 11–12. Unset, the
  /// remote car runs otherLidar in clear weather; the ego side is always
  /// clear. Weather is applied to the captured cloud after the scan and
  /// before any FaultConfig cloud fault, and its realization is keyed by
  /// the SOURCE frame index, so a stale payload stays byte-identical to
  /// the payload its source frame would have transmitted.
  std::optional<LidarProfile> remoteProfile;

  /// Faults applied to the remote side of every frame (default: none).
  FaultConfig faults;
};

/// One frame of the stream, as the ego car experiences it: its own fresh
/// sensing plus whatever the V2V link delivered from the remote car.
struct StreamFrame {
  int frameIndex = 0;
  /// Sweep-end time of the ego sensing (frameIndex * kFramePeriodS).
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

/// What the remote car transmits at one frame, before any fault model:
/// its own sensing (cloud + detections).
struct PeerObservation {
  PointCloud cloud;
  Detections dets;
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

  /// Unfaulted sensing of the remote car at frame k's sweep-end time
  /// (sensing roles 2 and 3): byte-identical to frame(k)'s remote payload
  /// when no faults are configured. The world has one transmitting peer,
  /// so `peerIdx` must be 0.
  [[nodiscard]] PeerObservation peerObservation(int k, int peerIdx) const;

 private:
  SequenceConfig cfg_;
  World world_;
  FaultInjector injector_;
};

}  // namespace bba
