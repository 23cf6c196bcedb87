// Tests for the keyframe map service (map/keyframe_store.* over
// spatial/tile_grid.*): tile-bucket candidate gathering, spatial-gap
// dedup, LRU-by-tick eviction with query-touch protection, k-NN query
// ordering/recall, and byte-identity of the whole build+query sequence at
// 1 vs 8 threads. Two heavy end-to-end scenarios pin the relocalization
// rung: a track-lost tracker with no peer in range re-localizes against a
// >= 64-keyframe store, and the tunnel no-false-lock pin holds with a map
// attached (accepted relocalizations must be CORRECT, wrong locks must
// keep dying at the validation gate).
#include "map/keyframe_store.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <set>
#include <vector>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "dataset/sequence.hpp"
#include "lidar/conditions.hpp"
#include "sim/presets.hpp"
#include "spatial/tile_grid.hpp"
#include "stream/pose_tracker.hpp"

namespace bba {
namespace {

constexpr int kGrid = 4;
constexpr int kOrientations = 6;
constexpr int kDim = kGrid * kGrid * kOrientations;  // 96

/// A descriptor set whose mean signature is exactly `fill` in every lane
/// (keypoint positions are irrelevant to the store).
DescriptorSet constantDescriptors(float fill, int count = 3) {
  std::vector<Keypoint> kps(static_cast<std::size_t>(count));
  std::vector<std::vector<float>> descs(
      static_cast<std::size_t>(count),
      std::vector<float>(static_cast<std::size_t>(kDim), fill));
  return DescriptorSet(std::move(kps), std::move(descs), kGrid,
                       kOrientations);
}

/// A small perception payload whose every pixel and box field depends on
/// `seed`, so payloads from different seeds differ everywhere.
CarPerceptionData testPayload(float seed) {
  CarPerceptionData p;
  p.bvImage = ImageF(8, 8);
  for (std::size_t i = 0; i < p.bvImage.data().size(); ++i)
    p.bvImage.data()[i] = seed + 0.01f * static_cast<float>(i);
  OrientedBox2 box;
  box.center = Vec2{seed, -seed};
  box.yaw = 0.5 * seed;
  p.boxes = {box, OrientedBox2{}};
  return p;
}

/// Byte equality of two payloads: image shape and pixels, every box field.
void expectSamePayload(const CarPerceptionData& a,
                       const CarPerceptionData& b) {
  ASSERT_EQ(a.bvImage.width(), b.bvImage.width());
  ASSERT_EQ(a.bvImage.height(), b.bvImage.height());
  EXPECT_EQ(std::memcmp(a.bvImage.data().data(), b.bvImage.data().data(),
                        a.bvImage.size() * sizeof(float)),
            0);
  ASSERT_EQ(a.boxes.size(), b.boxes.size());
  for (std::size_t i = 0; i < a.boxes.size(); ++i) {
    EXPECT_EQ(std::memcmp(&a.boxes[i], &b.boxes[i], sizeof(OrientedBox2)), 0)
        << i;
  }
}

/// Random-lane descriptors: the signature of two draws is almost surely
/// far apart, so these act as distractors.
DescriptorSet randomDescriptors(Rng& rng, int count = 3) {
  std::vector<Keypoint> kps(static_cast<std::size_t>(count));
  std::vector<std::vector<float>> descs(static_cast<std::size_t>(count));
  for (auto& d : descs) {
    d.resize(static_cast<std::size_t>(kDim));
    for (float& v : d) v = static_cast<float>(rng.uniform(0.0, 1.0));
  }
  return DescriptorSet(std::move(kps), std::move(descs), kGrid,
                       kOrientations);
}

/// A smooth position-dependent appearance model: nearby places get nearby
/// signatures, so signature-space recall can be checked against spatial
/// ground truth.
DescriptorSet placeDescriptors(const Vec2& p, int count = 3) {
  std::vector<Keypoint> kps(static_cast<std::size_t>(count));
  std::vector<std::vector<float>> descs(static_cast<std::size_t>(count));
  for (auto& d : descs) {
    d.resize(static_cast<std::size_t>(kDim));
    for (int j = 0; j < kDim; ++j) {
      const double fx = 0.011 * (j % 7 + 1), fy = 0.013 * (j % 5 + 1);
      d[static_cast<std::size_t>(j)] = static_cast<float>(
          0.5 + 0.5 * std::sin(fx * p.x + fy * p.y + 0.1 * j));
    }
  }
  return DescriptorSet(std::move(kps), std::move(descs), kGrid,
                       kOrientations);
}

// ---- TileGrid2 -----------------------------------------------------------

TEST(TileGrid, InsertRemoveAndCounts) {
  TileGrid2 grid(10.0);
  grid.insert(1, Vec2{1.0, 1.0});
  grid.insert(2, Vec2{2.0, 2.0});    // same tile
  grid.insert(3, Vec2{15.0, 1.0});   // next tile over
  grid.insert(4, Vec2{-1.0, -1.0});  // negative tile
  EXPECT_EQ(grid.size(), 4u);
  EXPECT_EQ(grid.tileCount(), 3u);
  EXPECT_EQ(grid.tileKey(Vec2{1.0, 1.0}), grid.tileKey(Vec2{9.9, 9.9}));
  EXPECT_NE(grid.tileKey(Vec2{1.0, 1.0}), grid.tileKey(Vec2{-1.0, 1.0}));
  grid.remove(2, Vec2{2.0, 2.0});
  EXPECT_EQ(grid.size(), 3u);
  EXPECT_EQ(grid.tileCount(), 3u);
  grid.remove(1, Vec2{1.0, 1.0});
  EXPECT_EQ(grid.tileCount(), 2u);  // emptied tile is dropped
}

TEST(TileGrid, CandidatesAreSortedSupersetOfRadius) {
  TileGrid2 grid(7.0);
  Rng rng(4242);
  std::vector<Vec2> pos;
  for (std::uint64_t id = 0; id < 200; ++id) {
    const Vec2 p{rng.uniform(-120.0, 120.0), rng.uniform(-120.0, 120.0)};
    pos.push_back(p);
    grid.insert(id, p);
  }
  const Vec2 q{13.0, -41.0};
  const double radius = 30.0;
  const std::vector<std::uint64_t> got = grid.candidatesInRadius(q, radius);
  EXPECT_TRUE(std::is_sorted(got.begin(), got.end()));
  EXPECT_TRUE(std::adjacent_find(got.begin(), got.end()) == got.end());
  const std::set<std::uint64_t> gotSet(got.begin(), got.end());
  for (std::uint64_t id = 0; id < 200; ++id) {
    if ((pos[static_cast<std::size_t>(id)] - q).norm() <= radius) {
      EXPECT_TRUE(gotSet.count(id)) << id;
    }
  }
  // The square over-approximation is bounded: every candidate lies within
  // radius + one tile diagonal.
  for (std::uint64_t id : got) {
    EXPECT_LE((pos[static_cast<std::size_t>(id)] - q).norm(),
              radius + 7.0 * std::sqrt(2.0) + 1e-9);
  }
}

TEST(TileGrid, RemoveRebuildsExactly) {
  TileGrid2 grid(5.0);
  Rng rng(7);
  std::vector<Vec2> pos;
  for (std::uint64_t id = 0; id < 50; ++id) {
    pos.push_back(Vec2{rng.uniform(-40.0, 40.0), rng.uniform(-40.0, 40.0)});
    grid.insert(id, pos.back());
  }
  for (std::uint64_t id = 0; id < 50; id += 2)
    grid.remove(id, pos[static_cast<std::size_t>(id)]);
  EXPECT_EQ(grid.size(), 25u);
  const std::vector<std::uint64_t> all =
      grid.candidatesInRadius(Vec2{0, 0}, 1000.0);
  ASSERT_EQ(all.size(), 25u);
  for (std::uint64_t id : all) EXPECT_EQ(id % 2, 1u) << id;
}

// ---- KeyframeStore: insert / dedup / eviction ----------------------------

TEST(KeyframeStore, InsertAndDedupBySpatialGap) {
  map::KeyframeStoreConfig cfg;
  cfg.keyframeGapM = 4.0;
  map::KeyframeStore store(cfg);

  const CarPerceptionData payloadA = testPayload(1.0f);
  const map::InsertResult a = store.insert(
      Pose2{0.0, 0.0, 0.0}, constantDescriptors(0.1f), payloadA);
  ASSERT_TRUE(a.inserted);
  EXPECT_FALSE(a.dedupSkipped);
  EXPECT_EQ(store.size(), 1u);
  ASSERT_NE(store.keyframe(a.id), nullptr);
  expectSamePayload(store.keyframe(a.id)->payload, payloadA);

  // Within the gap: skipped, and the result names the blocking neighbor,
  // whose payload the skipped offer leaves untouched.
  const map::InsertResult b = store.insert(
      Pose2{1.0, 1.0, 0.3}, constantDescriptors(0.2f), testPayload(2.0f));
  EXPECT_FALSE(b.inserted);
  EXPECT_TRUE(b.dedupSkipped);
  EXPECT_EQ(b.id, a.id);
  EXPECT_EQ(store.size(), 1u);
  expectSamePayload(store.keyframe(a.id)->payload, payloadA);

  // Beyond the gap: a new keyframe.
  const CarPerceptionData payloadC = testPayload(3.0f);
  const map::InsertResult c = store.insert(
      Pose2{10.0, 0.0, 0.0}, constantDescriptors(0.3f), payloadC);
  EXPECT_TRUE(c.inserted);
  EXPECT_EQ(store.size(), 2u);
  ASSERT_NE(store.keyframe(c.id), nullptr);
  EXPECT_DOUBLE_EQ(store.keyframe(c.id)->globalPose.t.x, 10.0);
  ASSERT_EQ(store.keyframe(c.id)->signature.size(),
            static_cast<std::size_t>(kDim));
  EXPECT_NEAR(store.keyframe(c.id)->signature[0], 0.3f, 1e-6f);
  expectSamePayload(store.keyframe(c.id)->payload, payloadC);
  expectSamePayload(store.keyframe(a.id)->payload, payloadA);
}

TEST(KeyframeStore, EvictionIsLruWithQueryTouchProtection) {
  map::KeyframeStoreConfig cfg;
  cfg.capacity = 3;
  cfg.keyframeGapM = 1.0;
  cfg.maxCandidates = 1;
  cfg.queryRadiusM = 15.0;
  map::KeyframeStore store(cfg);

  const auto k1 = store.insert(Pose2{0.0, 0.0, 0.0},
                               constantDescriptors(0.1f));   // tick 1
  const auto k2 = store.insert(Pose2{30.0, 0.0, 0.0},
                               constantDescriptors(0.2f));   // tick 2
  const auto k3 = store.insert(Pose2{60.0, 0.0, 0.0},
                               constantDescriptors(0.3f));   // tick 3
  // Touch the oldest keyframe via a query hit (only k1 is in radius).
  const auto hits =
      store.query(constantDescriptors(0.1f), Vec2{0.0, 0.0});  // tick 4
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].id, k1.id);

  // At capacity: the least-recently-touched keyframe is now k2, not k1.
  const auto k4 = store.insert(Pose2{90.0, 0.0, 0.0},
                               constantDescriptors(0.4f));   // tick 5
  ASSERT_TRUE(k4.inserted);
  EXPECT_TRUE(k4.evicted);
  EXPECT_EQ(k4.evictedId, k2.id);
  EXPECT_EQ(store.size(), 3u);
  EXPECT_EQ(store.keyframe(k2.id), nullptr);
  EXPECT_NE(store.keyframe(k1.id), nullptr);
  EXPECT_NE(store.keyframe(k3.id), nullptr);

  // The evicted keyframe is gone from the spatial index too.
  EXPECT_TRUE(store.query(constantDescriptors(0.2f), Vec2{30.0, 0.0})
                  .empty());
}

TEST(KeyframeStore, EvictionBoundPurity) {
  map::KeyframeStoreConfig cfg;
  cfg.capacity = 8;
  cfg.keyframeGapM = 1.0;
  cfg.queryRadiusM = 1000.0;
  cfg.maxCandidates = 64;
  map::KeyframeStore store(cfg);
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 32; ++i) {
    const auto r = store.insert(Pose2{5.0 * i, 0.0, 0.0},
                                constantDescriptors(0.01f * i));
    ASSERT_TRUE(r.inserted);
    ids.push_back(r.id);
    EXPECT_LE(store.size(), 8u);
    EXPECT_EQ(r.evicted, i >= 8);
  }
  // Exactly the 8 youngest survive, and a full-radius query returns all of
  // them and nothing else.
  const auto all = store.query(constantDescriptors(0.15f), Vec2{80.0, 0.0});
  ASSERT_EQ(all.size(), 8u);
  std::set<std::uint64_t> live;
  for (const auto& m : all) live.insert(m.id);
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(live.count(ids[static_cast<std::size_t>(i)]) > 0, i >= 24)
        << i;
  }
}

// ---- KeyframeStore: queries ----------------------------------------------

TEST(KeyframeStore, QueryOrderingRadiusAndK) {
  map::KeyframeStoreConfig cfg;
  cfg.keyframeGapM = 1.0;
  cfg.maxCandidates = 2;
  cfg.queryRadiusM = 50.0;
  map::KeyframeStore store(cfg);
  const auto k0 = store.insert(Pose2{0.0, 0.0, 0.0},
                               constantDescriptors(0.10f));
  const auto k1 = store.insert(Pose2{20.0, 0.0, 0.0},
                               constantDescriptors(0.45f));
  const auto k2 = store.insert(Pose2{40.0, 0.0, 0.0},
                               constantDescriptors(0.21f));
  // Far outside the radius, and an index-only perfect match that must
  // never appear because of distance:
  const auto far = store.insert(Pose2{500.0, 0.0, 0.0},
                                constantDescriptors(0.20f));
  ASSERT_TRUE(far.inserted);

  const auto m = store.query(constantDescriptors(0.20f), Vec2{10.0, 0.0});
  ASSERT_EQ(m.size(), 2u);    // k of 2 < the 3 in-radius candidates
  EXPECT_EQ(m[0].id, k2.id);  // |0.21-0.20| < |0.10-0.20| < |0.45-0.20|
  EXPECT_EQ(m[1].id, k0.id);
  EXPECT_LT(m[0].signatureDistance, m[1].signatureDistance);
  EXPECT_DOUBLE_EQ(m[0].spatialDistance, 30.0);
  (void)k1;

  // Empty query set matches nothing.
  EXPECT_TRUE(store.query(DescriptorSet{}, Vec2{10.0, 0.0}).empty());
}

TEST(KeyframeStore, QueryRecallOnPinnedRevisits) {
  // Seed-4242 revisit drill: keyframes every ~6 m along a loop with a
  // smooth position-dependent appearance; a later pass queries from
  // positions offset ~1.5 m from the path. Top-1 must be the spatially
  // nearest stored keyframe (signature space mirrors place space here by
  // construction).
  map::KeyframeStoreConfig cfg;
  cfg.keyframeGapM = 4.0;
  cfg.capacity = 512;
  map::KeyframeStore store(cfg);
  Rng rng(4242);

  std::vector<std::uint64_t> ids;
  std::vector<Vec2> pos;
  for (int i = 0; i < 40; ++i) {
    const double s = 6.0 * i;
    const Vec2 p{100.0 * std::cos(s / 40.0), 100.0 * std::sin(s / 40.0)};
    const auto r = store.insert(Pose2{p, 0.0}, placeDescriptors(p));
    ASSERT_TRUE(r.inserted) << i;
    ids.push_back(r.id);
    pos.push_back(p);
  }

  int correct = 0;
  const int trials = 25;
  for (int t = 0; t < trials; ++t) {
    const std::size_t near =
        static_cast<std::size_t>(rng.uniformInt(0, 39));
    const Vec2 q = pos[near] + Vec2{rng.uniform(-1.5, 1.5),
                                    rng.uniform(-1.5, 1.5)};
    // Spatial ground truth: the stored keyframe nearest to q.
    std::size_t best = 0;
    for (std::size_t i = 1; i < pos.size(); ++i) {
      if ((pos[i] - q).norm() < (pos[best] - q).norm()) best = i;
    }
    const auto m = store.query(placeDescriptors(q), q);
    ASSERT_FALSE(m.empty()) << t;
    if (m[0].id == ids[best]) ++correct;
  }
  EXPECT_GE(correct, (trials * 9) / 10) << correct << "/" << trials;
}

TEST(KeyframeStore, BuildAndQueryByteIdenticalAt1And8Threads) {
  // The determinism contract of the whole store: an identical
  // insert/query sequence — including parallel candidate scoring inside
  // query() — produces bitwise-identical InsertResults and QueryMatches
  // at 1 and 8 threads.
  auto run = [](int threads) {
    ThreadLimit limit(threads);
    map::KeyframeStoreConfig cfg;
    cfg.keyframeGapM = 3.0;
    cfg.capacity = 128;
    cfg.maxCandidates = 6;
    cfg.queryRadiusM = 80.0;
    map::KeyframeStore store(cfg);
    Rng rng(4242);
    std::vector<map::InsertResult> inserts;
    std::vector<std::vector<map::QueryMatch>> queries;
    for (int i = 0; i < 220; ++i) {
      const Pose2 pose{rng.uniform(-150.0, 150.0),
                       rng.uniform(-150.0, 150.0),
                       rng.uniform(-3.0, 3.0)};
      inserts.push_back(store.insert(pose, randomDescriptors(rng)));
      if (i % 4 == 3) {
        const Vec2 q{rng.uniform(-150.0, 150.0),
                     rng.uniform(-150.0, 150.0)};
        queries.push_back(store.query(randomDescriptors(rng), q));
      }
    }
    return std::make_pair(std::move(inserts), std::move(queries));
  };
  const auto serial = run(1);
  const auto threaded = run(8);
  ASSERT_EQ(serial.first.size(), threaded.first.size());
  for (std::size_t i = 0; i < serial.first.size(); ++i) {
    EXPECT_EQ(serial.first[i].inserted, threaded.first[i].inserted) << i;
    EXPECT_EQ(serial.first[i].id, threaded.first[i].id) << i;
    EXPECT_EQ(serial.first[i].dedupSkipped, threaded.first[i].dedupSkipped)
        << i;
    EXPECT_EQ(serial.first[i].evicted, threaded.first[i].evicted) << i;
    EXPECT_EQ(serial.first[i].evictedId, threaded.first[i].evictedId) << i;
  }
  ASSERT_EQ(serial.second.size(), threaded.second.size());
  for (std::size_t i = 0; i < serial.second.size(); ++i) {
    const auto& a = serial.second[i];
    const auto& b = threaded.second[i];
    ASSERT_EQ(a.size(), b.size()) << i;
    for (std::size_t j = 0; j < a.size(); ++j) {
      EXPECT_EQ(a[j].id, b[j].id) << i << "," << j;
      // Bitwise float equality is the contract, not approximate equality.
      EXPECT_EQ(a[j].signatureDistance, b[j].signatureDistance)
          << i << "," << j;
      EXPECT_EQ(a[j].spatialDistance, b[j].spatialDistance)
          << i << "," << j;
    }
  }
}

// ---- end-to-end relocalization (heavy) -----------------------------------

/// Ego ground-truth global pose at frame k (map frame == world frame).
Pose2 egoGtPose(const SequenceGenerator& gen, int k) {
  const World& w = gen.world();
  return w.vehicleById(w.egoVehicleId)
      .trajectory.pose(k * gen.config().framePeriod);
}

TEST(MapReloc, TrackLostTrackerRelocalizesFromMapWithNoPeer) {
  // The acceptance scenario of ISSUE 9: a vehicle that has lost its track
  // and has NO cooperative peer in range relocalizes against a >= 64-entry
  // keyframe store — validated lock, translation error within the
  // existing ~2 m acceptance bar — using nothing but its own sensing and
  // a drifted odometry prior.
  SequenceConfig sc;
  sc.seed = 4242;
  sc.frames = 12;
  sc.scenario = scenarioPreset(WorldPreset::Suburban);
  const SequenceGenerator gen(sc);

  BBAlign aligner;  // same default config a default PoseTracker runs
  map::KeyframeStoreConfig mcfg;
  mcfg.keyframeGapM = 2.0;
  mcfg.capacity = 256;
  mcfg.maxCandidates = 4;
  map::KeyframeStore store(mcfg);

  // Earlier mapping pass: ego keyframes from frames 0..7 (full payloads).
  for (int k = 0; k <= 7; ++k) {
    const StreamFrame f = gen.frame(k);
    const CarPerceptionData ego = aligner.makeCarData(f.egoCloud, f.egoDets);
    const auto feats = aligner.computeEgoFeatures(ego);
    store.insert(egoGtPose(gen, k), feats->descriptors, ego);
  }
  const std::size_t realKeyframes = store.size();
  ASSERT_GE(realKeyframes, 3u);

  // Pad the database to >= 64 with index-only distractor places around
  // the neighborhood (random signatures, no payload) — the query must
  // still rank the true places on top.
  Rng pad(99);
  const Pose2 gt9 = egoGtPose(gen, 9);
  while (store.size() < 64) {
    const double ang = pad.uniform(0.0, 6.283);
    const double rad = pad.uniform(20.0, 55.0);
    const Pose2 p{gt9.t.x + rad * std::cos(ang),
                  gt9.t.y + rad * std::sin(ang), 0.0};
    store.insert(p, randomDescriptors(pad));
  }
  ASSERT_GE(store.size(), 64u);

  // The relocalizing vehicle: fresh tracker, never locked, no peer.
  PoseTracker tracker;
  tracker.attachMapStore(&store);
  const Pose2 prior{gt9.t.x + 1.2, gt9.t.y - 0.9, gt9.theta + 0.05};
  tracker.setEgoPosePrior(prior);

  const StreamFrame f9 = gen.frame(9);
  const CarPerceptionData ego9 =
      aligner.makeCarData(f9.egoCloud, f9.egoDets);
  Rng rng(11);
  TrackerReport rep;
  const TrackerResult t = tracker.coastWithEgo(ego9, rng, &rep);

  EXPECT_TRUE(rep.relocalizationAttempted);
  EXPECT_GE(rep.relocalizationCandidates, 1);
  ASSERT_EQ(t.outcome, TrackerOutcome::Relocalized);
  ASSERT_TRUE(t.poseValid);
  EXPECT_TRUE(rep.relocalizationAccepted);
  EXPECT_NE(rep.relocalizationKeyframe, 0u);
  // The reported pose is the ego GLOBAL pose in the map frame.
  EXPECT_LT(poseError(t.pose, gt9).translation, 2.0);
  // ...and the odometry prior was refreshed to the recovered pose.
  ASSERT_TRUE(tracker.egoPosePrior().has_value());
  EXPECT_DOUBLE_EQ(tracker.egoPosePrior()->t.x, t.pose.t.x);
}

TEST(MapReloc, TunnelNoFalseLockPinHoldsWithMapAttached) {
  // The other half of the acceptance criterion: the pinned tunnel +
  // sector-dropout cell (scenario_test pins it map-less) must accept ZERO
  // wrong poses with a tunnel keyframe map attached. Relocalization may
  // legitimately lock — the corridor map contains the true place — but
  // every accepted pose must be CORRECT. Along-corridor slips validate
  // well (a corridor shifted along itself still overlaps itself; seed 7
  // frame 5 scores 0.889 at 3.3m error), so they must die at the
  // odometry-consistency gate (kRelocalizationMaxPriorDeviationM) instead.
  SequenceConfig sc;
  sc.seed = 7;
  sc.frames = 10;
  sc.scenario = scenarioPreset(WorldPreset::Tunnel);
  sc.faults.seed = 3;
  sc.faults.sectorDropProb = 0.5;
  sc.faults.sectorWidthDeg = 120.0;
  sc.peerProfiles = {*lidarProfileFromString("clear-16")};
  const SequenceGenerator gen(sc);

  BBAlign aligner;
  map::KeyframeStoreConfig mcfg;
  mcfg.keyframeGapM = 2.0;
  map::KeyframeStore store(mcfg);
  for (int k = 0; k < sc.frames; ++k) {
    const StreamFrame f = gen.frame(k);
    const CarPerceptionData ego = aligner.makeCarData(f.egoCloud, f.egoDets);
    const auto feats = aligner.computeEgoFeatures(ego);
    store.insert(egoGtPose(gen, k), feats->descriptors, ego);
  }
  ASSERT_GE(store.size(), 2u);

  PoseTracker tracker;
  tracker.attachMapStore(&store);
  Rng rng(11);
  int relocalized = 0;
  for (int k = 0; k < sc.frames; ++k) {
    tracker.setEgoPosePrior(egoGtPose(gen, k));
    const TrackerResult t = tracker.processFrame(gen.frame(k), rng);
    if (t.outcome == TrackerOutcome::Relocalized) {
      ++relocalized;
      // A relocalized pose is an ego global pose: wrong locks forbidden.
      EXPECT_LT(poseError(t.pose, egoGtPose(gen, k)).translation, 2.0) << k;
    } else {
      // The map-less pin, unchanged: degenerate frames report no pose.
      EXPECT_FALSE(t.poseValid) << k;
      EXPECT_EQ(t.outcome, TrackerOutcome::Bootstrapping) << k;
    }
  }
  // The pin is about FALSE locks, not coverage: zero relocalizations is a
  // legal outcome here (the corridor may never validate), wrong ones are
  // not. Nothing to assert on `relocalized` beyond the checks above.
  (void)relocalized;
}

}  // namespace
}  // namespace bba
