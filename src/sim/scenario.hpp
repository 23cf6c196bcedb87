#pragma once

#include "common/rng.hpp"
#include "sim/world.hpp"

namespace bba {

/// Knobs of the procedural two-car driving scenario. The *defaults* are the
/// `suburban` preset of the world-preset registry (sim/presets.hpp) — a
/// mid-density suburban road similar to the V2V4Real capture environment —
/// but every field is a free knob: the other presets (highway, tunnel,
/// parking, open-rural) are just named combinations of these values, and
/// the experiment harnesses additionally sweep individual fields
/// (separation, traffic, landmark density) to reproduce each paper figure.
///
/// Per-preset roles of the fields are noted inline; see
/// `scenarioPreset(WorldPreset)` for the pinned combinations.
struct ScenarioConfig {
  /// Road geometry. The road runs along +x through the origin; lanes are
  /// mirrored around the centerline. Presets scale the length with the
  /// speed regime: 600 m highway, 300 m tunnel, 120 m parking structure.
  double roadLength = 400.0;
  double laneWidth = 3.5;
  /// Curvature (1/m) of the road; vehicles follow matching arcs. 0 = straight.
  double roadCurvature = 0.0;

  /// Static landmarks per side of the road. Trees/poles/bushes are the
  /// omnidirectional point features that anchor cross-view matching (a
  /// building corner is only seen from one side at a time). The suburban
  /// preset keeps both densities high; highway and open-rural thin them
  /// out; tunnel and parking zero them and rely on the preset-extra
  /// geometry below instead.
  int buildingsPerSide = 12;
  int treesPerSide = 30;
  /// Probability of dropping each landmark — models open, feature-poor
  /// stretches where pose recovery is expected to fail (§V-A success
  /// rate). The open-rural preset pushes this to 0.65.
  double openAreaFraction = 0.0;

  /// Traffic. Parking floods parkedVehicles; highway/tunnel zero them.
  int movingVehicles = 10;
  int parkedVehicles = 8;

  /// Instrumented pair. `separation` is the straight-line distance between
  /// the two cars at t = 0; speeds set the self-motion distortion within
  /// one sweep (highway: 27/30 m/s oncoming; parking: 3/4 m/s).
  double separation = 40.0;
  double egoSpeed = 10.0;
  double otherSpeed = 12.0;
  double otherLateralOffset = 3.5;
  /// Random heading perturbation of the other car (degrees, uniform ±).
  double otherHeadingJitterDeg = 8.0;
  /// Other car drives the opposite direction (oncoming) — the highway
  /// preset's high-closing-speed geometry.
  bool oppositeDirection = false;

  // ---- preset extras ----------------------------------------------------
  // Geometry the non-suburban presets are made of. All default-off, and
  // every draw they consume comes strictly AFTER all draws above, so any
  // world with the extras disabled is bitwise identical to what
  // makeScenario produced before they existed (tests/scenario_test.cpp
  // pins it).

  /// Tunnel / urban canyon: fraction of the road length lined, on both
  /// sides, with continuous runs of repeated *identical* tall wall
  /// segments (`kTunnelWallHeightM` tall) — deliberately repetitive,
  /// translationally near-symmetric geometry (the yaw-degenerate regime).
  /// 0 disables; 1.0 walls the full length at lateral offset `wallSetback`.
  double wallRunFraction = 0.0;
  double wallSetback = 6.5;

  /// Highway: low continuous guardrail segments per side at the road
  /// shoulder, plus one tall gantry pole pair every ~120 m (the sparse
  /// tall landmarks). 0 disables.
  int barrierSegmentsPerSide = 0;

  /// Parking structure: a rows x cols grid of thin square pillars on both
  /// sides of the aisle plus a perimeter wall. 0 x 0 disables.
  int pillarRows = 0;
  int pillarCols = 0;
};

/// Height of every tunnel wall segment (meters).
inline constexpr double kTunnelWallHeightM = 6.0;

/// Build a world from the config, consuming randomness from `rng`.
/// Vehicle ids: 0 = ego, 1 = other, 2+ = traffic.
[[nodiscard]] World makeScenario(const ScenarioConfig& config, Rng& rng);

}  // namespace bba
