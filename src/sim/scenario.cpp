#include "sim/scenario.hpp"

#include <cmath>

#include "common/assert.hpp"

namespace bba {

namespace {

constexpr double kPi = 3.14159265358979323846;

/// Pitch of the parking structure's pillar grid (meters).
constexpr double kPillarSpacingM = 8.0;

Vec3 randomCarSize(Rng& rng) {
  return {rng.uniform(4.2, 5.2), rng.uniform(1.8, 2.1),
          rng.uniform(1.4, 1.9)};
}

/// A trajectory following the (possibly curved) road. `s` is the arc-length
/// station along the road at t = 0, `lateral` the signed offset from the
/// centerline (+ = left of travel direction for the forward direction).
Trajectory roadTrajectory(double s, double lateral, double speed,
                          double headingOffset, double curvature) {
  if (std::abs(curvature) < 1e-12) {
    const Pose2 start{Vec2{s, lateral}, headingOffset};
    return std::abs(speed) < 1e-12
               ? Trajectory::stationary(start)
               : Trajectory::arc(start, speed, 0.0);
  }
  // Curved road: centerline is a circle of radius 1/curvature centered at
  // (0, 1/curvature); station s maps to angle s * curvature.
  const double R = 1.0 / curvature;
  const double a = s * curvature;
  const Vec2 center{0.0, R};
  const Vec2 p = center + Vec2{std::sin(a), -std::cos(a)} * (R - lateral);
  const Pose2 start{p, wrapAngle(a + headingOffset)};
  if (std::abs(speed) < 1e-12) return Trajectory::stationary(start);
  // Follow the road arc (sign flips for oncoming traffic).
  const double forward = std::cos(headingOffset) >= 0.0 ? 1.0 : -1.0;
  return Trajectory::arc(start, speed, forward * speed * curvature);
}

/// Static world positions follow the same road parameterization: place at
/// (station, lateral), aligned with the local road heading + `yawOffset`.
Pose2 roadPose(double s, double lateral, double yawOffset, double curvature) {
  return roadTrajectory(s, lateral, 0.0, yawOffset, curvature).pose(0.0);
}

}  // namespace

World makeScenario(const ScenarioConfig& cfg, Rng& rng) {
  BBA_ASSERT(cfg.roadLength > 50.0);
  World world;
  const double halfRoad = cfg.roadLength / 2.0;
  const double curv = cfg.roadCurvature;

  // --- Instrumented pair -------------------------------------------------
  const double laneY = -cfg.laneWidth / 2.0;  // ego lane center
  const double egoStation = -cfg.separation / 2.0;
  SimVehicle ego;
  ego.id = 0;
  ego.size = randomCarSize(rng);
  ego.trajectory = roadTrajectory(egoStation, laneY, cfg.egoSpeed, 0.0, curv);

  const double jitter =
      rng.uniform(-cfg.otherHeadingJitterDeg, cfg.otherHeadingJitterDeg) *
      kDegToRad;
  SimVehicle other;
  other.id = 1;
  other.size = randomCarSize(rng);
  if (cfg.oppositeDirection) {
    // Oncoming: opposite lane, heading reversed.
    other.trajectory =
        roadTrajectory(egoStation + cfg.separation, -laneY, cfg.otherSpeed,
                       wrapAngle(kPi + jitter), curv);
  } else {
    other.trajectory = roadTrajectory(egoStation + cfg.separation,
                                      laneY + cfg.otherLateralOffset,
                                      cfg.otherSpeed, jitter, curv);
  }
  world.vehicles.push_back(ego);
  world.vehicles.push_back(other);
  world.egoVehicleId = 0;
  world.otherVehicleId = 1;

  const double midStation = 0.0;  // instrumented pair straddles station 0

  // --- Cross street -------------------------------------------------------
  // A perpendicular street breaks the corridor's translational symmetry —
  // real capture routes pass intersections constantly.
  const bool hasCrossStreet = rng.bernoulli(0.65);
  const double crossStation =
      hasCrossStreet ? midStation + rng.uniform(-60.0, 60.0) : 1e9;
  const double crossHalfWidth = rng.uniform(6.0, 9.0);
  const auto inCrossStreet = [&](double s) {
    return hasCrossStreet && std::abs(s - crossStation) < crossHalfWidth;
  };

  // --- Buildings ----------------------------------------------------------
  const auto addBuilding = [&](double s, double lateral, double yawOffset,
                               Vec2 halfExtent, double height) {
    if (rng.bernoulli(cfg.openAreaFraction)) return;
    Building b;
    const Pose2 pose = roadPose(s, lateral, yawOffset, curv);
    b.footprint.center = pose.t;
    b.footprint.yaw = pose.theta;
    b.footprint.halfExtent = halfExtent;
    b.height = height;
    world.buildings.push_back(b);
  };

  for (int side = -1; side <= 1; side += 2) {
    for (int i = 0; i < cfg.buildingsPerSide; ++i) {
      const double spacing =
          cfg.roadLength / static_cast<double>(cfg.buildingsPerSide);
      const double s = -halfRoad + (static_cast<double>(i) + 0.5) * spacing +
                       rng.uniform(-spacing * 0.3, spacing * 0.3);
      if (inCrossStreet(s)) continue;
      const double setback = rng.uniform(10.0, 38.0);
      // Occasional perpendicular orientation + per-building yaw jitter.
      const double yawOff = (rng.bernoulli(0.15) ? kPi / 2.0 : 0.0) +
                            rng.uniform(-15.0, 15.0) * kDegToRad;
      addBuilding(s, static_cast<double>(side) * setback, yawOff,
                  Vec2{rng.uniform(4.0, 11.0), rng.uniform(3.5, 9.0)},
                  rng.uniform(5.0, 24.0));
      // Second-row building (deeper setback) with some probability.
      if (rng.bernoulli(0.35)) {
        addBuilding(s + rng.uniform(-6.0, 6.0),
                    static_cast<double>(side) * (setback + rng.uniform(16.0, 32.0)),
                    rng.uniform(-20.0, 20.0) * kDegToRad,
                    Vec2{rng.uniform(4.0, 10.0), rng.uniform(3.5, 8.0)},
                    rng.uniform(5.0, 20.0));
      }
    }
  }

  // Cross-street buildings: rows flanking the perpendicular street.
  if (hasCrossStreet) {
    const int n = rng.uniformInt(2, 4);
    for (int side = -1; side <= 1; side += 2) {       // side of main road
      for (int cside = -1; cside <= 1; cside += 2) {  // side of cross street
        for (int i = 0; i < n; ++i) {
          const double depth = 14.0 + 24.0 * static_cast<double>(i) +
                               rng.uniform(-4.0, 4.0);
          const double s = crossStation +
                           static_cast<double>(cside) *
                               (crossHalfWidth + rng.uniform(5.0, 12.0));
          addBuilding(s, static_cast<double>(side) * depth,
                      kPi / 2.0 + rng.uniform(-10.0, 10.0) * kDegToRad,
                      Vec2{rng.uniform(4.0, 9.0), rng.uniform(3.5, 7.0)},
                      rng.uniform(5.0, 18.0));
        }
      }
    }
  }

  // --- Garden walls (long, low prisms) --------------------------------------
  const int wallsPerSide = 3;
  for (int side = -1; side <= 1; side += 2) {
    for (int i = 0; i < wallsPerSide; ++i) {
      if (rng.bernoulli(cfg.openAreaFraction)) continue;
      const double s = midStation + rng.uniform(-halfRoad * 0.7, halfRoad * 0.7);
      if (inCrossStreet(s)) continue;
      Building wall;
      const Pose2 pose = roadPose(
          s, static_cast<double>(side) * rng.uniform(8.0, 12.0),
          rng.uniform(-6.0, 6.0) * kDegToRad, curv);
      wall.footprint.center = pose.t;
      wall.footprint.yaw = pose.theta;
      // Long (>7 m extent) so the clustering detector never mistakes wall
      // segments for cars.
      wall.footprint.halfExtent = {rng.uniform(5.0, 12.0), 0.15};
      wall.height = rng.uniform(1.8, 2.4);
      world.buildings.push_back(wall);
    }
  }

  // --- Trees, poles, bushes --------------------------------------------------
  for (int side = -1; side <= 1; side += 2) {
    for (int i = 0; i < cfg.treesPerSide; ++i) {
      if (rng.bernoulli(cfg.openAreaFraction)) continue;
      const double spacing =
          cfg.roadLength / static_cast<double>(cfg.treesPerSide);
      const double s = -halfRoad + (static_cast<double>(i) + 0.5) * spacing +
                       rng.uniform(-spacing * 0.35, spacing * 0.35);
      if (inCrossStreet(s)) continue;
      Tree t;
      t.position =
          roadPose(s, static_cast<double>(side) * rng.uniform(8.5, 12.0), 0.0,
                   curv).t;
      t.trunkHeight = rng.uniform(2.5, 4.5);
      t.trunkRadius = rng.uniform(0.12, 0.3);
      t.crownRadius = rng.uniform(1.4, 3.0);
      world.trees.push_back(t);
    }

    // Street furniture: lamp posts / sign poles.
    const int poles = cfg.treesPerSide * 2 / 3 + 2;
    for (int i = 0; i < poles; ++i) {
      if (rng.bernoulli(cfg.openAreaFraction)) continue;
      const double s = rng.uniform(-halfRoad, halfRoad);
      const Vec2 p =
          roadPose(s, static_cast<double>(side) * rng.uniform(7.5, 9.0), 0.0,
                   curv).t;
      world.trees.push_back(Tree::pole(p, rng.uniform(3.0, 7.0),
                                       rng.uniform(0.06, 0.15)));
    }

    // Bushes / hedges near the property lines.
    const int bushes = cfg.treesPerSide + 3;
    for (int i = 0; i < bushes; ++i) {
      if (rng.bernoulli(cfg.openAreaFraction)) continue;
      const double s = rng.uniform(-halfRoad, halfRoad);
      const Vec2 p =
          roadPose(s, static_cast<double>(side) * rng.uniform(9.0, 15.0), 0.0,
                   curv).t;
      world.trees.push_back(Tree::bush(p, rng.uniform(0.6, 1.4)));
    }
  }

  // --- Parked cars ----------------------------------------------------------
  int nextId = 2;
  for (int i = 0; i < cfg.parkedVehicles; ++i) {
    const double side = rng.bernoulli(0.5) ? 1.0 : -1.0;
    const double s = midStation + rng.uniform(-70.0, 70.0);
    SimVehicle v;
    v.id = nextId++;
    v.size = randomCarSize(rng);
    double lateral = side * (cfg.laneWidth * 2.0 + 0.6);
    double heading = (rng.bernoulli(0.5) ? 0.0 : kPi) + rng.uniform(-0.05, 0.05);
    if (rng.bernoulli(0.3)) {
      // Driveway parking: deeper, roughly perpendicular to the road.
      lateral = side * rng.uniform(9.0, 13.0);
      heading = side * kPi / 2.0 + rng.uniform(-0.2, 0.2);
    }
    v.trajectory = roadTrajectory(s, lateral, 0.0, heading, curv);
    world.vehicles.push_back(v);
  }

  // --- Moving traffic ---------------------------------------------------------
  for (int i = 0; i < cfg.movingVehicles; ++i) {
    SimVehicle v;
    v.id = nextId++;
    v.size = randomCarSize(rng);
    // Lanes: two per direction; forward lanes at -0.5/-1.5 lane widths,
    // oncoming at +0.5/+1.5.
    const int laneIdx = rng.uniformInt(0, 3);
    const bool oncoming = laneIdx >= 2;
    const double lat = (oncoming ? 1.0 : -1.0) * cfg.laneWidth *
                       (0.5 + static_cast<double>(laneIdx % 2));
    // Keep traffic clustered around the instrumented pair so both cars can
    // commonly observe it (the dataset layer verifies actual visibility).
    double s = 0.0;
    for (int attempt = 0; attempt < 16; ++attempt) {
      s = midStation + rng.uniform(-60.0, 60.0);
      const double dEgo = std::abs(s - (-cfg.separation / 2.0));
      const double dOther = std::abs(s - (cfg.separation / 2.0));
      if (dEgo > 8.0 && dOther > 8.0) break;
    }
    const double heading = oncoming ? kPi : 0.0;
    v.trajectory = roadTrajectory(s, lat, rng.uniform(5.0, 14.0),
                                  heading + rng.uniform(-0.04, 0.04), curv);
    world.vehicles.push_back(v);
  }

  // --- Preset extras ---------------------------------------------------------
  // Wall runs, guardrails and pillar grids (sim/presets.hpp). Every draw
  // here comes strictly after all pre-existing draws, so a config with the
  // extras disabled produces a world bitwise identical to the pre-registry
  // generator.

  // Tunnel / urban canyon: continuous runs of repeated IDENTICAL wall
  // segments on both sides. The segments are deliberately clones (fixed
  // length, fixed height, fixed setback; only one lateral micro-offset
  // drawn per side) — the repetitive, translationally near-symmetric
  // corridor that degenerates the BV yaw/translation search.
  if (cfg.wallRunFraction > 0.0) {
    const double runHalf = halfRoad * std::min(cfg.wallRunFraction, 1.0);
    const double segLength = 12.0;
    for (int side = -1; side <= 1; side += 2) {
      // Asymmetric cross-section (the emergency-shoulder side sits closer
      // to the lanes, as in a real bore): under a 180-degree rotation the
      // near wall maps onto the far wall, so a perfectly mirror-symmetric
      // corridor makes the flipped yaw every bit as plausible as the true
      // one — stage 1 then locks the flip on nearly every frame and the
      // cell flatlines instead of being marginal.
      const double setback =
          cfg.wallSetback * (side < 0 ? 0.72 : 1.0);
      const double lateral =
          static_cast<double>(side) * (setback + rng.uniform(-0.2, 0.2));
      // Identical segments, jittered gaps: an EXACTLY periodic run makes
      // every 12.8 m along-road shift equally plausible to stage 1 (the
      // overlap score cannot tell the true shift from a period multiple),
      // which collapses the whole matrix cell to 0% instead of "marginal".
      // The irregular gap pattern is the one weak fingerprint the corridor
      // offers — repetitive enough to stay the hardest preset, aperiodic
      // enough that a correct lock exists to be found.
      for (double s = -runHalf; s + segLength <= runHalf + 1e-9;
           s += segLength + rng.uniform(0.6, 2.2)) {
        Building seg;
        const Pose2 pose = roadPose(s + segLength / 2.0, lateral, 0.0, curv);
        seg.footprint.center = pose.t;
        seg.footprint.yaw = pose.theta;
        seg.footprint.halfExtent = {segLength / 2.0, 0.3};
        seg.height = kTunnelWallHeightM;
        world.buildings.push_back(seg);
      }
    }
  }

  // Highway guardrails + gantries: low continuous barrier segments at the
  // shoulder, and one tall pole pair every ~120 m — the sparse tall
  // landmarks that are all a highway offers the matcher.
  if (cfg.barrierSegmentsPerSide > 0) {
    const double shoulder = cfg.laneWidth * 2.0 + 0.4;
    for (int side = -1; side <= 1; side += 2) {
      const double spacing =
          cfg.roadLength / static_cast<double>(cfg.barrierSegmentsPerSide);
      for (int i = 0; i < cfg.barrierSegmentsPerSide; ++i) {
        const double s = -halfRoad + (static_cast<double>(i) + 0.5) * spacing +
                         rng.uniform(-0.5, 0.5);
        Building rail;
        const Pose2 pose =
            roadPose(s, static_cast<double>(side) * shoulder, 0.0, curv);
        rail.footprint.center = pose.t;
        rail.footprint.yaw = pose.theta;
        rail.footprint.halfExtent = {spacing * 0.45, 0.12};
        rail.height = 0.85;
        world.buildings.push_back(rail);
      }
    }
    const double gantrySpacing = 120.0;
    for (double s = -halfRoad + gantrySpacing / 2.0; s < halfRoad;
         s += gantrySpacing) {
      for (int side = -1; side <= 1; side += 2) {
        const Vec2 p = roadPose(s + rng.uniform(-2.0, 2.0),
                                static_cast<double>(side) * (shoulder + 0.9),
                                0.0, curv)
                           .t;
        world.trees.push_back(Tree::pole(p, 7.5, 0.2));
      }
    }
  }

  // Parking structure: rows x cols of thin square pillars on both sides of
  // the aisle, plus a perimeter wall closing the structure.
  if (cfg.pillarRows > 0 && cfg.pillarCols > 0) {
    const double aisleEdge = cfg.laneWidth * 2.0 + 2.0;
    const double gridHalf =
        (static_cast<double>(cfg.pillarCols) - 1.0) * kPillarSpacingM / 2.0;
    for (int side = -1; side <= 1; side += 2) {
      for (int r = 0; r < cfg.pillarRows; ++r) {
        for (int c = 0; c < cfg.pillarCols; ++c) {
          Building pillar;
          const double s = -gridHalf +
                           static_cast<double>(c) * kPillarSpacingM +
                           rng.uniform(-0.05, 0.05);
          const double lateral =
              static_cast<double>(side) *
              (aisleEdge + static_cast<double>(r) * kPillarSpacingM) +
              rng.uniform(-0.05, 0.05);
          const Pose2 pose = roadPose(s, lateral, 0.0, curv);
          pillar.footprint.center = pose.t;
          pillar.footprint.yaw = pose.theta;
          pillar.footprint.halfExtent = {0.3, 0.3};
          pillar.height = 3.0;
          world.buildings.push_back(pillar);
        }
      }
      // Back wall behind the last pillar row.
      Building back;
      const double backLat =
          static_cast<double>(side) *
          (aisleEdge + static_cast<double>(cfg.pillarRows) * kPillarSpacingM);
      const Pose2 pose = roadPose(0.0, backLat, 0.0, curv);
      back.footprint.center = pose.t;
      back.footprint.yaw = pose.theta;
      back.footprint.halfExtent = {gridHalf + kPillarSpacingM / 2.0, 0.25};
      back.height = 3.0;
      world.buildings.push_back(back);
    }
  }

  return world;
}

}  // namespace bba
