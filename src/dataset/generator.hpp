#pragma once

#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "dataset/frame_pair.hpp"
#include "detect/simulated_detector.hpp"
#include "lidar/lidar_model.hpp"
#include "sim/scenario.hpp"

namespace bba {

/// Configuration of the synthetic V2V dataset (the V2V4Real substitute —
/// see DESIGN.md). Scenario diversity comes from per-pair randomization of
/// separation, traffic, heading, curvature and landmark density.
struct DatasetConfig {
  std::uint64_t seed = 42;

  /// Inter-vehicle separation range (meters), sampled uniformly.
  double minSeparation = 10.0;
  double maxSeparation = 90.0;
  /// Traffic density ranges.
  int minMovingVehicles = 1;
  int maxMovingVehicles = 14;
  int minParkedVehicles = 6;
  int maxParkedVehicles = 16;
  /// Probability the other car is oncoming (opposite heading).
  double oppositeDirectionProb = 0.25;
  /// Probability the road is curved; curvature magnitude sampled in
  /// [0.002, 0.008] 1/m.
  double curvedRoadProb = 0.3;
  /// Probability the scene is a sparse open area (few landmarks).
  double openAreaProb = 0.0;

  /// Heterogeneous sensors: the two cars run different lidar models, as in
  /// V2V4Real (and as the paper's robustness argument requires).
  LidarConfig egoLidar = LidarConfig::hdl32();
  LidarConfig otherLidar = LidarConfig::vlp16();
  DetectorProfile detector = DetectorProfile::coBEVT();
  bool motionDistortion = true;

  /// Keep only pairs where both cars commonly observe at least this many
  /// cars (the paper's 12K/20K frame selection). 0 disables filtering.
  int minCommonCars = 2;
};

/// Deterministic generator: pair `i` of a given config is always the same
/// scene, scans and detections, independent of generation order.
class DatasetGenerator {
 public:
  explicit DatasetGenerator(DatasetConfig config);

  [[nodiscard]] const DatasetConfig& config() const { return cfg_; }

  /// Generate pair #index. Returns nullopt if none of the resampling
  /// attempts passed the common-car filter (rare; callers typically skip).
  [[nodiscard]] std::optional<FramePair> generatePair(int index) const;

  /// Generate the first `count` pairs, skipping filtered-out indices.
  [[nodiscard]] std::vector<FramePair> generate(int count) const;

 private:
  /// One attempt at building pair `index` from the attempt's stream.
  [[nodiscard]] FramePair buildPair(int index, Rng& rng) const;

  DatasetConfig cfg_;
};

}  // namespace bba
