// Tests for the scenario-matrix axes: the world-preset registry
// (sim/presets.*), the preset-extra geometry discipline (extras consume
// RNG strictly last, so default worlds stay bitwise identical), the lidar
// condition profiles (lidar/conditions.*: weather purity, channel
// decorrelation, range dependence) and the remote-profile plumbing
// through SequenceGenerator. One heavy cross-preset tracker scenario pins
// that the tunnel + sector-dropout cell exercises the degradation ladder
// beyond its primary rung, and every preset's sensing is asserted
// byte-identical at 1 and 8 threads.
#include "sim/presets.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>
#include <vector>

#include "common/parallel.hpp"
#include "dataset/sequence.hpp"
#include "lidar/conditions.hpp"
#include "stream/pose_tracker.hpp"

namespace bba {
namespace {

bool sameCloud(const PointCloud& a, const PointCloud& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    // Field-wise exact equality (memcmp would read struct padding).
    if (a.points[i].p.x != b.points[i].p.x ||
        a.points[i].p.y != b.points[i].p.y ||
        a.points[i].p.z != b.points[i].p.z ||
        a.points[i].time != b.points[i].time) {
      return false;
    }
  }
  return true;
}

bool sameWorldPrefix(const World& base, const World& extended) {
  if (extended.buildings.size() < base.buildings.size() ||
      extended.trees.size() < base.trees.size() ||
      extended.vehicles.size() != base.vehicles.size()) {
    return false;
  }
  for (std::size_t i = 0; i < base.buildings.size(); ++i) {
    const Building& a = base.buildings[i];
    const Building& b = extended.buildings[i];
    if (a.footprint.center.x != b.footprint.center.x ||
        a.footprint.center.y != b.footprint.center.y ||
        a.footprint.yaw != b.footprint.yaw || a.height != b.height) {
      return false;
    }
  }
  for (std::size_t i = 0; i < base.trees.size(); ++i) {
    const Tree& a = base.trees[i];
    const Tree& b = extended.trees[i];
    if (a.position.x != b.position.x || a.position.y != b.position.y ||
        a.trunkHeight != b.trunkHeight || a.crownRadius != b.crownRadius) {
      return false;
    }
  }
  for (std::size_t i = 0; i < base.vehicles.size(); ++i) {
    const Pose2 pa = base.vehicles[i].trajectory.pose(0.7);
    const Pose2 pb = extended.vehicles[i].trajectory.pose(0.7);
    if (base.vehicles[i].id != extended.vehicles[i].id || pa.t.x != pb.t.x ||
        pa.t.y != pb.t.y || pa.theta != pb.theta) {
      return false;
    }
  }
  return true;
}

World makeWorld(const ScenarioConfig& cfg, std::uint64_t seed = 7) {
  Rng rng(seed);
  return makeScenario(cfg, rng);
}

// ---- world-preset registry -----------------------------------------------

TEST(WorldPresets, RegistryRoundTrips) {
  std::set<std::string> names;
  for (const WorldPreset p : allWorldPresets()) {
    const char* name = toString(p);
    const auto back = worldPresetFromString(name);
    ASSERT_TRUE(back.has_value()) << name;
    EXPECT_EQ(*back, p) << name;
    names.insert(name);
  }
  EXPECT_EQ(names.size(), static_cast<std::size_t>(kWorldPresetCount));
  EXPECT_FALSE(worldPresetFromString("freeway").has_value());
  EXPECT_FALSE(worldPresetFromString("").has_value());
}

TEST(WorldPresets, DeterministicPerPresetAndSeed) {
  for (const WorldPreset p : allWorldPresets()) {
    const ScenarioConfig cfg = scenarioPreset(p);
    const World a = makeWorld(cfg), b = makeWorld(cfg);
    EXPECT_TRUE(sameWorldPrefix(a, b)) << toString(p);
    EXPECT_EQ(a.buildings.size(), b.buildings.size()) << toString(p);
    EXPECT_EQ(a.trees.size(), b.trees.size()) << toString(p);
    // A different seed moves the geometry.
    const World c = makeWorld(cfg, 8);
    EXPECT_FALSE(sameWorldPrefix(a, c) &&
                 a.buildings.size() == c.buildings.size() &&
                 a.trees.size() == c.trees.size())
        << toString(p);
  }
}

TEST(WorldPresets, SuburbanIsTheDefaultConfig) {
  // The suburban preset IS ScenarioConfig{}: a preset-registry world and a
  // default-config world from the same seed are the same world.
  const World a = makeWorld(scenarioPreset(WorldPreset::Suburban));
  const World b = makeWorld(ScenarioConfig{});
  EXPECT_TRUE(sameWorldPrefix(a, b));
  EXPECT_EQ(a.buildings.size(), b.buildings.size());
  EXPECT_EQ(a.trees.size(), b.trees.size());
}

TEST(WorldPresets, ExtrasLeaveDefaultWorldUntouched) {
  // The preset-extra knobs consume RNG draws strictly AFTER every other
  // draw, so enabling them appends geometry without re-randomizing
  // anything that existed before.
  const ScenarioConfig base;
  ScenarioConfig extras = base;
  extras.wallRunFraction = 0.5;
  extras.barrierSegmentsPerSide = 4;
  extras.pillarRows = 2;
  extras.pillarCols = 3;
  const World wb = makeWorld(base);
  const World we = makeWorld(extras);
  EXPECT_GT(we.buildings.size(), wb.buildings.size());
  EXPECT_GT(we.trees.size(), wb.trees.size());  // gantry poles
  EXPECT_TRUE(sameWorldPrefix(wb, we));
}

TEST(WorldPresets, PresetShapesMatchIntent) {
  // Tunnel: continuous wall runs on both sides (street furniture like
  // garden walls and poles still generates, but sits behind the walls).
  const ScenarioConfig tunnelCfg = scenarioPreset(WorldPreset::Tunnel);
  const World tunnel = makeWorld(tunnelCfg);
  int wallSegments = 0;
  for (const Building& b : tunnel.buildings) {
    if (b.height == kTunnelWallHeightM) ++wallSegments;
  }
  // ~13 m pitch over 300 m, both sides: the corridor must actually be
  // lined, not sprinkled.
  EXPECT_GE(wallSegments, 30);
  EXPECT_GE(static_cast<int>(tunnel.vehicles.size()),
            tunnelCfg.parkedVehicles + tunnelCfg.movingVehicles);

  // Parking: flooded with parked cars, pillar grid + perimeter walls.
  const ScenarioConfig parkingCfg = scenarioPreset(WorldPreset::Parking);
  const World parking = makeWorld(parkingCfg);
  EXPECT_GE(static_cast<int>(parking.vehicles.size()),
            parkingCfg.parkedVehicles + 2);
  EXPECT_GT(parking.buildings.size(),
            static_cast<std::size_t>(parkingCfg.pillarRows *
                                     parkingCfg.pillarCols));

  // Highway: oncoming instrumented pair plus guardrails and gantry poles.
  const ScenarioConfig highwayCfg = scenarioPreset(WorldPreset::Highway);
  EXPECT_TRUE(highwayCfg.oppositeDirection);
  const World highway = makeWorld(highwayCfg);
  EXPECT_GE(static_cast<int>(highway.buildings.size()),
            2 * highwayCfg.barrierSegmentsPerSide);

  // Open rural: thinner landmark cover than suburban, same seed.
  const World rural = makeWorld(scenarioPreset(WorldPreset::OpenRural));
  const World suburban = makeWorld(scenarioPreset(WorldPreset::Suburban));
  EXPECT_LT(rural.buildings.size() + rural.trees.size(),
            suburban.buildings.size() + suburban.trees.size());
}

// ---- lidar weather -------------------------------------------------------

PointCloud syntheticCloud(int count, double nearRange, double farRange) {
  PointCloud cloud;
  Rng rng(123);
  for (int i = 0; i < count; ++i) {
    const double range = i % 2 == 0 ? nearRange : farRange;
    const double az = rng.uniform(-3.1, 3.1);
    cloud.points.push_back(LidarPoint{
        Vec3{range * std::cos(az), range * std::sin(az), 0.5}, 0.0});
  }
  return cloud;
}

TEST(LidarWeather, ClearIsStrictNoOp) {
  PointCloud cloud = syntheticCloud(200, 10.0, 60.0);
  const PointCloud before = cloud;
  const WeatherConfig clear;  // all channels off
  EXPECT_FALSE(clear.active());
  applyWeather(cloud, 3, clear);
  EXPECT_TRUE(sameCloud(cloud, before));
}

TEST(LidarWeather, PureFunctionOfSeedAndFrame) {
  const WeatherConfig fog = weatherPreset(Weather::Fog);
  ASSERT_TRUE(fog.active());
  PointCloud a = syntheticCloud(400, 10.0, 60.0);
  PointCloud b = a;
  applyWeather(a, 5, fog);
  applyWeather(b, 5, fog);
  EXPECT_TRUE(sameCloud(a, b));
  EXPECT_LT(a.size(), 400u);  // fog actually thins the sweep
  // A different frame index draws a different realization.
  PointCloud c = syntheticCloud(400, 10.0, 60.0);
  applyWeather(c, 6, fog);
  EXPECT_FALSE(sameCloud(a, c));
}

TEST(LidarWeather, ChannelsAreDecorrelated) {
  // Enabling range noise must not change WHICH points survive: the dropout
  // and noise channels draw from independent per-point streams.
  WeatherConfig dropOnly = weatherPreset(Weather::Rain);
  dropOnly.rangeNoiseSigma = 0.0;
  WeatherConfig dropAndNoise = weatherPreset(Weather::Rain);
  ASSERT_GT(dropAndNoise.rangeNoiseSigma, 0.0);
  PointCloud a = syntheticCloud(600, 10.0, 80.0);
  PointCloud b = a;
  applyWeather(a, 2, dropOnly);
  applyWeather(b, 2, dropAndNoise);
  ASSERT_EQ(a.size(), b.size());
  ASSERT_GT(a.size(), 0u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    // Same survivor, jittered along its own ray: direction is preserved.
    const Vec3& pa = a.points[i].p;
    const Vec3& pb = b.points[i].p;
    const double cross = pa.x * pb.y - pa.y * pb.x;
    EXPECT_NEAR(cross, 0.0, 1e-9) << i;
    EXPECT_GT(pa.x * pb.x + pa.y * pb.y, 0.0) << i;  // not flipped
  }
}

TEST(LidarWeather, AttenuationIsRangeDependent) {
  const WeatherConfig fog = weatherPreset(Weather::Fog);
  PointCloud cloud = syntheticCloud(2000, 5.0, 80.0);
  applyWeather(cloud, 0, fog);
  int nearSurvived = 0, farSurvived = 0;
  for (const LidarPoint& lp : cloud.points) {
    (lp.p.norm() < 40.0 ? nearSurvived : farSurvived)++;
  }
  // 1000 points at each range: extinction + the far ramp must hit the far
  // shell much harder than the near one.
  EXPECT_GT(nearSurvived, 700);
  EXPECT_LT(farSurvived, nearSurvived / 2);
}

// ---- lidar profiles ------------------------------------------------------

TEST(LidarProfiles, RegistryParsesAllNames) {
  const auto names = allLidarProfileNames();
  EXPECT_EQ(names.size(), static_cast<std::size_t>(kLidarProfileCount));
  for (const char* name : names) {
    const auto p = lidarProfileFromString(name);
    ASSERT_TRUE(p.has_value()) << name;
    EXPECT_EQ(p->name, name);
    const std::string s(name);
    const int beams = std::stoi(s.substr(s.rfind('-') + 1));
    EXPECT_EQ(p->sensor.channels, beams) << name;
    EXPECT_EQ(p->weather.active(), s.rfind("clear", 0) != 0) << name;
  }
  EXPECT_FALSE(lidarProfileFromString("clear-48").has_value());
  EXPECT_FALSE(lidarProfileFromString("snow-32").has_value());
  EXPECT_FALSE(lidarProfileFromString("clear32").has_value());
}

// ---- remote profile plumbing ---------------------------------------------

TEST(SequencePeerProfiles, DefaultProfileIsByteIdentical) {
  // An explicit clear-16 profile equals the built-in default remote sensor
  // (vlp16, no weather): the plumbing itself must not perturb a byte.
  SequenceConfig plain;
  plain.seed = 7;
  plain.frames = 2;
  plain.scenario.separation = 30.0;
  SequenceConfig profiled = plain;
  profiled.remoteProfile = *lidarProfileFromString("clear-16");
  const SequenceGenerator a(plain), b(profiled);
  const StreamFrame fa = a.frame(1), fb = b.frame(1);
  EXPECT_TRUE(sameCloud(fa.egoCloud, fb.egoCloud));
  EXPECT_TRUE(sameCloud(fa.otherCloud, fb.otherCloud));
  ASSERT_EQ(fa.otherDets.size(), fb.otherDets.size());
}

TEST(SequencePeerProfiles, Peer0ProfileGovernsRemoteSide) {
  SequenceConfig sc;
  sc.seed = 7;
  sc.frames = 2;
  sc.scenario.separation = 30.0;
  SequenceConfig foggy = sc;
  foggy.remoteProfile = *lidarProfileFromString("fog-16");
  const SequenceGenerator plain(sc), gen(foggy);
  const StreamFrame f = gen.frame(1);
  // The profile thins the remote sweep but never touches the ego side.
  EXPECT_TRUE(sameCloud(f.egoCloud, plain.frame(1).egoCloud));
  EXPECT_LT(f.otherCloud.size(), plain.frame(1).otherCloud.size());
  // peerObservation(k, 0) stays byte-identical to the remote payload.
  const PeerObservation obs = gen.peerObservation(1, 0);
  EXPECT_TRUE(sameCloud(obs.cloud, f.otherCloud));
  ASSERT_EQ(obs.dets.size(), f.otherDets.size());
}

TEST(SequencePeerProfiles, StaleFoggyPayloadMatchesItsSourceFrame) {
  // Weather is keyed by the SOURCE frame index: a lagged payload is
  // byte-identical to what its source frame transmitted, fog included.
  SequenceConfig clean;
  clean.seed = 11;
  clean.frames = 4;
  clean.scenario.separation = 30.0;
  clean.remoteProfile = *lidarProfileFromString("fog-32");
  SequenceConfig lagged = clean;
  lagged.faults.seed = 1;
  lagged.faults.latencyProb = 1.0;
  lagged.faults.maxLatencyFrames = 1;
  const SequenceGenerator genClean(clean), genLagged(lagged);
  const StreamFrame f = genLagged.frame(3);
  ASSERT_TRUE(f.remoteReceived);
  ASSERT_EQ(f.remoteLagFrames, 1);
  EXPECT_TRUE(sameCloud(f.otherCloud, genClean.frame(2).otherCloud));
}

// ---- cross-preset tracker scenario (heavy) -------------------------------

TEST(ScenarioMatrixTracker, TunnelSectorDropoutStaysDegenerateNoFalseLock) {
  // The tunnel + sector-dropout cell of the scenario matrix: the
  // corridor's BV image is two long parallel lines, so stage 1 keeps
  // producing confident 180-degree-flipped or along-road-shifted locks
  // that are tens of meters wrong. This pins the OTHER half of the ladder
  // contract: the gt-free validation layer must reject every such lock —
  // primary and relaxed retry alike — and the tracker must keep reporting
  // Bootstrapping rather than hand fusion a wildly wrong pose.
  SequenceConfig sc;
  sc.seed = 7;
  sc.frames = 10;
  sc.scenario = scenarioPreset(WorldPreset::Tunnel);
  sc.faults.seed = 3;
  sc.faults.sectorDropProb = 0.5;
  sc.faults.sectorWidthDeg = 120.0;
  sc.remoteProfile = *lidarProfileFromString("clear-16");
  const SequenceGenerator gen(sc);
  PoseTracker tracker;
  Rng rng(11);
  for (int k = 0; k < sc.frames; ++k) {
    const TrackerResult t = tracker.processFrame(gen.frame(k), rng);
    EXPECT_FALSE(t.poseValid) << k;
    EXPECT_EQ(t.outcome, TrackerOutcome::Bootstrapping) << k;
  }
}

TEST(ScenarioMatrixTracker, SuburbanSectorFogEngagesRelaxedRung) {
  // Suburban + sector dropout + fog-16 remote: the degraded sweep makes
  // the primary recover() miss on a fraction of frames while the relaxed
  // retry still locks — the matrix cell where rung 1 earns its keep
  // (bench/scenario_matrix pins the same cell's success band in
  // bench/scenario_baseline.json).
  SequenceConfig sc;
  sc.seed = 7;
  sc.frames = 12;
  sc.scenario = scenarioPreset(WorldPreset::Suburban);
  sc.faults.seed = 3;
  sc.faults.sectorDropProb = 0.5;
  sc.faults.sectorWidthDeg = 120.0;
  sc.remoteProfile = *lidarProfileFromString("fog-16");
  const SequenceGenerator gen(sc);
  PoseTracker tracker;
  Rng rng(11);
  int covered = 0, relaxed = 0, measured = 0;
  for (int k = 0; k < sc.frames; ++k) {
    const StreamFrame f = gen.frame(k);
    const TrackerResult t = tracker.processFrame(f, rng);
    if (t.poseValid) ++covered;
    if (t.outcome == TrackerOutcome::RecoveredRelaxed) ++relaxed;
    if (t.outcome == TrackerOutcome::Recovered ||
        t.outcome == TrackerOutcome::RecoveredRelaxed) {
      ++measured;
      EXPECT_LT(poseError(t.pose, f.gtDeliveredOtherToEgo).translation, 2.0)
          << k;
    }
  }
  EXPECT_GE(covered, sc.frames - 2);
  EXPECT_GT(relaxed, 0);
  EXPECT_GE(measured, sc.frames / 2);
}

TEST(ScenarioMatrixTracker, PresetSensingByteIdenticalAcrossThreadCounts) {
  // Every preset's first frame — new wall/guardrail/pillar raycast
  // geometry included — must be byte-identical at 1 and 8 threads (the
  // determinism contract the whole matrix rests on).
  for (const WorldPreset p : allWorldPresets()) {
    SequenceConfig sc;
    sc.seed = 7;
    sc.frames = 1;
    sc.scenario = scenarioPreset(p);
    sc.remoteProfile = *lidarProfileFromString("fog-32");
    const SequenceGenerator gen(sc);
    StreamFrame serial, threaded;
    {
      ThreadLimit limit(1);
      serial = gen.frame(0);
    }
    {
      ThreadLimit limit(8);
      threaded = gen.frame(0);
    }
    EXPECT_TRUE(sameCloud(serial.egoCloud, threaded.egoCloud))
        << toString(p);
    EXPECT_TRUE(sameCloud(serial.otherCloud, threaded.otherCloud))
        << toString(p);
    ASSERT_EQ(serial.otherDets.size(), threaded.otherDets.size())
        << toString(p);
  }
}

}  // namespace
}  // namespace bba
