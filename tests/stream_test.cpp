// Tests for the streaming robustness layer: the fault injector and
// sequence generator (src/dataset/fault.*, sequence.*) and the PoseTracker
// degradation ladder (src/stream/pose_tracker.*). The tracker scenarios
// are pinned to specific seeds so every ladder rung — fresh recovery,
// relaxed retry, extrapolation, track-lost + re-bootstrap — is exercised
// deterministically, and tracker output is asserted byte-identical at
// 1 and 8 threads.
#include "stream/pose_tracker.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <string>
#include <vector>

#include "common/parallel.hpp"
#include "dataset/fault.hpp"
#include "dataset/sequence.hpp"
#include "geom/pose2.hpp"
#include "obs/metrics.hpp"

namespace bba {
namespace {

constexpr double kPi = 3.14159265358979323846;

// ---- fault injector ------------------------------------------------------

TEST(FaultInjector, PureFunctionOfSeedAndFrame) {
  FaultConfig cfg;
  cfg.seed = 99;
  cfg.frameDropProb = 0.3;
  cfg.latencyProb = 0.4;
  cfg.maxLatencyFrames = 2;
  cfg.sectorDropProb = 0.5;
  const FaultInjector a(cfg), b(cfg);
  // Query in opposite orders: frame k's realization must not depend on
  // which frames were sampled before it.
  for (int k = 0; k < 64; ++k) {
    const FrameFaults fa = a.frameFaults(k);
    const FrameFaults fb = b.frameFaults(63 - (63 - k));  // same k, later call
    EXPECT_EQ(fa.dropped, fb.dropped) << k;
    EXPECT_EQ(fa.lagFrames, fb.lagFrames) << k;
    EXPECT_EQ(fa.sectorDropped, fb.sectorDropped) << k;
    EXPECT_EQ(fa.sectorCenterRad, fb.sectorCenterRad) << k;
  }
  for (int k = 63; k >= 0; --k) {
    const FrameFaults fb = b.frameFaults(k);
    const FrameFaults fa = a.frameFaults(k);
    EXPECT_EQ(fa.dropped, fb.dropped) << k;
    EXPECT_EQ(fa.lagFrames, fb.lagFrames) << k;
  }
}

TEST(FaultInjector, StreamsMatchPinnedDraws) {
  // Bitwise literals of one fixed-seed realization. The other injector
  // tests compare two injectors with each other, so only this one sees a
  // draw added to or removed from a channel's stream.
  FaultConfig cfg;
  cfg.seed = 0x5EED;
  cfg.frameDropProb = 0.25;
  cfg.latencyProb = 0.6;
  cfg.maxLatencyFrames = 2;
  cfg.sectorDropProb = 0.5;
  cfg.boxCenterNoiseSigma = 0.3;
  cfg.boxYawNoiseSigmaDeg = 2.0;
  cfg.poseSpoofProb = 0.5;
  cfg.boxTeleportProb = 0.5;
  const FaultInjector inj(cfg);

  const auto oneBox = [] {
    return std::vector<OrientedBox2>{{{0.0, 0.0}, {4.0, 2.0}, 0.0}};
  };
  const std::string kDropped = "0001001000000100";
  const std::string kLag = "0110001102020222";
  const std::string kSpoofed = "1010101100001001";
  const std::string kTeleported = "0001101010010111";
  const std::vector<double> kSectorCenters = {
      0x1.f6828f7011b7p-1,   0x1.3720a200240e4p+0, 0x1.0d19c974d8d7p-1,
      -0x1.3ce16482c3602p+1, 0x1.de055c34a4808p-2, -0x1.5c04f70cc1548p+1,
      -0x1.a006c433f483fp+0};
  std::string dropped, lag, spoofed, teleported;
  std::vector<double> centers;
  for (int k = 0; k < 16; ++k) {
    const FrameFaults f = inj.frameFaults(k);
    dropped += f.dropped ? '1' : '0';
    lag += static_cast<char>('0' + f.lagFrames);
    if (f.sectorDropped) centers.push_back(f.sectorCenterRad);
    spoofed += inj.adversarialFaults(k).poseSpoofed ? '1' : '0';
    std::vector<OrientedBox2> box = oneBox();
    inj.applyAdversarialBoxFaults(box, k);
    teleported += box[0].center.x != 0.0 ? '1' : '0';
  }
  EXPECT_EQ(dropped, kDropped);
  EXPECT_EQ(lag, kLag);
  ASSERT_EQ(centers.size(), kSectorCenters.size());
  for (std::size_t i = 0; i < centers.size(); ++i)
    EXPECT_EQ(centers[i], kSectorCenters[i]) << i;
  EXPECT_EQ(spoofed, kSpoofed);
  EXPECT_EQ(teleported, kTeleported);

  const AdversarialFaults adv = inj.adversarialFaults(2);
  EXPECT_EQ(adv.spoofDelta.t.x, 0x1.93652c3145eb7p+2);
  EXPECT_EQ(adv.spoofDelta.t.y, -0x1.3b4db351ebdf1p+2);
  EXPECT_EQ(adv.spoofDelta.theta, 0x1.becde5da115a9p-2);

  std::vector<OrientedBox2> box = oneBox();
  inj.applyAdversarialBoxFaults(box, 3);
  EXPECT_EQ(box[0].center.x, -0x1.35612866fae2dp+1);
  EXPECT_EQ(box[0].center.y, 0x1.4707d183e95f3p-1);

  Detections dets(2);
  dets[0].box.center = Vec3{10.0, -3.0, 0.8};
  dets[0].box.yaw = 0.25;
  dets[1].box.center = Vec3{-5.0, 7.0, 0.8};
  dets[1].box.yaw = -1.0;
  inj.applyBoxFaults(dets, 6);
  EXPECT_EQ(dets[0].box.center.x, 0x1.4ea935aa73463p+3);
  EXPECT_EQ(dets[0].box.center.y, -0x1.beb6600725a69p+1);
  EXPECT_EQ(dets[0].box.yaw, 0x1.c26f1a829da46p-3);
  EXPECT_EQ(dets[1].box.center.x, -0x1.0e53d78f0da9p+2);
  EXPECT_EQ(dets[1].box.center.y, 0x1.c8d959e25ecc2p+2);
  EXPECT_EQ(dets[1].box.yaw, -0x1.ff5be4994b9ep-1);
}

TEST(FaultInjector, ChannelsAreIndependent) {
  // Enabling the sector channel must not re-randomize the link channel,
  // and vice versa: each draws from its own decorrelated stream.
  FaultConfig linkOnly;
  linkOnly.seed = 7;
  linkOnly.frameDropProb = 0.25;
  FaultConfig both = linkOnly;
  both.sectorDropProb = 0.5;
  both.boxCenterNoiseSigma = 0.2;
  const FaultInjector a(linkOnly), b(both);
  for (int k = 0; k < 64; ++k) {
    EXPECT_EQ(a.frameFaults(k).dropped, b.frameFaults(k).dropped) << k;
  }
}

TEST(FaultInjector, FrameZeroNeverLags) {
  FaultConfig cfg;
  cfg.latencyProb = 1.0;
  cfg.maxLatencyFrames = 2;
  const FaultInjector inj(cfg);
  EXPECT_EQ(inj.frameFaults(0).lagFrames, 0);
  // Later frames do lag (probability 1).
  EXPECT_GE(inj.frameFaults(5).lagFrames, 1);
  EXPECT_LE(inj.frameFaults(5).lagFrames, 2);
}

TEST(FaultInjector, SectorDropoutRemovesExactlyTheSector) {
  PointCloud cloud;
  const int kN = 360;
  for (int i = 0; i < kN; ++i) {
    const double az = -kPi + (i + 0.5) * (2.0 * kPi / kN);
    cloud.push(Vec3{10.0 * std::cos(az), 10.0 * std::sin(az), 0.0});
  }
  FrameFaults faults;
  faults.sectorDropped = true;
  faults.sectorCenterRad = 0.5;
  faults.sectorHalfWidthRad = 30.0 * kDegToRad;
  FaultConfig cfg;
  cfg.sectorDropProb = 1.0;
  const FaultInjector inj(cfg);
  inj.applyCloudFaults(cloud, faults);
  for (const LidarPoint& lp : cloud.points) {
    const double az = std::atan2(lp.p.y, lp.p.x);
    EXPECT_GT(angularDistance(az, faults.sectorCenterRad),
              faults.sectorHalfWidthRad);
  }
  // 60 degrees of 360 removed.
  EXPECT_NEAR(static_cast<double>(cloud.points.size()), kN * 300.0 / 360.0,
              2.0);
}

TEST(FaultInjector, AdversarialChannelsArePureFunctionsOfSeedAndFrame) {
  FaultConfig cfg;
  cfg.seed = 13;
  cfg.poseSpoofProb = 0.5;
  const FaultInjector a(cfg), b(cfg);
  // Opposite query orders: frame k's adversarial realization must not
  // depend on which frames were sampled before it.
  for (int k = 0; k < 64; ++k) {
    const AdversarialFaults fa = a.adversarialFaults(k);
    const AdversarialFaults fb = b.adversarialFaults(63 - (63 - k));
    EXPECT_EQ(fa.poseSpoofed, fb.poseSpoofed) << k;
    EXPECT_EQ(fa.spoofDelta.t.x, fb.spoofDelta.t.x) << k;
    EXPECT_EQ(fa.spoofDelta.t.y, fb.spoofDelta.t.y) << k;
    EXPECT_EQ(fa.spoofDelta.theta, fb.spoofDelta.theta) << k;
  }
}

TEST(FaultInjector, AdversarialChannelsAreDecorrelatedFromTheOthers) {
  // Enabling the adversarial channels must not re-randomize the link /
  // sector / box realizations — they draw from fresh streams (5, 7) —
  // and the pose-spoof realization must not shift when the box channel is
  // enabled on top.
  FaultConfig base;
  base.seed = 7;
  base.frameDropProb = 0.25;
  base.sectorDropProb = 0.3;
  FaultConfig withAdv = base;
  withAdv.poseSpoofProb = 0.5;
  withAdv.boxTeleportProb = 0.5;
  const FaultInjector a(base), b(withAdv);
  for (int k = 0; k < 64; ++k) {
    EXPECT_EQ(a.frameFaults(k).dropped, b.frameFaults(k).dropped) << k;
    EXPECT_EQ(a.frameFaults(k).sectorDropped, b.frameFaults(k).sectorDropped)
        << k;
  }
  FaultConfig poseOnly;
  poseOnly.seed = 7;
  poseOnly.poseSpoofProb = 0.5;
  const FaultInjector c(poseOnly);
  for (int k = 0; k < 64; ++k) {
    EXPECT_EQ(c.adversarialFaults(k).poseSpoofed,
              b.adversarialFaults(k).poseSpoofed)
        << k;
    EXPECT_EQ(c.adversarialFaults(k).spoofDelta.t.x,
              b.adversarialFaults(k).spoofDelta.t.x)
        << k;
  }
}

TEST(FaultInjector, SpoofDeltaHasThePinnedMagnitude) {
  FaultConfig cfg;
  cfg.poseSpoofProb = 1.0;
  cfg.poseSpoofOffset = 8.0;
  cfg.poseSpoofYawDeg = 25.0;
  const FaultInjector inj(cfg);
  for (int k = 0; k < 8; ++k) {
    const AdversarialFaults f = inj.adversarialFaults(k);
    ASSERT_TRUE(f.poseSpoofed);
    EXPECT_NEAR(f.spoofDelta.t.norm(), 8.0, 1e-9) << k;
    EXPECT_NEAR(std::abs(f.spoofDelta.theta), 25.0 * kDegToRad, 1e-9) << k;
  }
}

TEST(FaultInjector, TeleportMovesEveryBoxByOneCommonOffset) {
  std::vector<OrientedBox2> boxes;
  for (int i = 0; i < 5; ++i)
    boxes.push_back(OrientedBox2{{2.0 * i, -i * 1.0}, {4.0, 2.0}, 0.1 * i});
  FaultConfig cfg;
  cfg.seed = 5;
  cfg.boxTeleportProb = 1.0;
  const FaultInjector inj(cfg);
  std::vector<OrientedBox2> moved = boxes, again = boxes;
  inj.applyAdversarialBoxFaults(moved, 3);
  inj.applyAdversarialBoxFaults(again, 3);
  ASSERT_EQ(moved.size(), boxes.size());
  const Vec2 offset = moved[0].center - boxes[0].center;
  EXPECT_NEAR(offset.norm(), kBoxTeleportOffsetM, 1e-9);
  for (std::size_t i = 0; i < boxes.size(); ++i) {
    // One COMMON offset (a coherent lie), byte-identical on re-query.
    // NEAR, not EQ: (a + offset) - a re-rounds per base value.
    EXPECT_NEAR(moved[i].center.x - boxes[i].center.x, offset.x, 1e-12) << i;
    EXPECT_NEAR(moved[i].center.y - boxes[i].center.y, offset.y, 1e-12) << i;
    EXPECT_EQ(moved[i].yaw, boxes[i].yaw) << i;
    EXPECT_EQ(moved[i].center.x, again[i].center.x) << i;
  }
}

TEST(FaultInjector, BoxNoisePerturbsCenterAndYawDeterministically) {
  Detections dets(3);
  dets[0].box.center = Vec3{1.0, 2.0, 0.0};
  FaultConfig cfg;
  cfg.seed = 5;
  cfg.boxCenterNoiseSigma = 0.2;
  cfg.boxYawNoiseSigmaDeg = 3.0;
  const FaultInjector inj(cfg);
  Detections a = dets, b = dets;
  inj.applyBoxFaults(a, 1);
  inj.applyBoxFaults(b, 1);
  EXPECT_NE(a[0].box.center.x, dets[0].box.center.x);
  EXPECT_NE(a[0].box.yaw, dets[0].box.yaw);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].box.center.x, b[i].box.center.x);
    EXPECT_EQ(a[i].box.center.y, b[i].box.center.y);
    EXPECT_EQ(a[i].box.yaw, b[i].box.yaw);
  }
  // A different frame index draws from a different stream.
  Detections c = dets;
  inj.applyBoxFaults(c, 2);
  EXPECT_NE(a[0].box.center.x, c[0].box.center.x);
}

// ---- sequence generator --------------------------------------------------

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

TEST(SequenceGenerator, FrameIsIndependentOfQueryOrder) {
  SequenceConfig sc;
  sc.seed = 7;
  sc.frames = 4;
  sc.scenario.separation = 30.0;
  const SequenceGenerator gen(sc), gen2(sc);
  // gen walks 0..3 in order; gen2 asks for frame 2 cold.
  (void)gen.frame(0);
  (void)gen.frame(1);
  const StreamFrame a = gen.frame(2);
  const StreamFrame b = gen2.frame(2);
  EXPECT_TRUE(sameCloud(a.egoCloud, b.egoCloud));
  EXPECT_TRUE(sameCloud(a.otherCloud, b.otherCloud));
  ASSERT_EQ(a.egoDets.size(), b.egoDets.size());
  EXPECT_EQ(a.gtOtherToEgo.t.x, b.gtOtherToEgo.t.x);
  EXPECT_EQ(a.gtOtherToEgo.theta, b.gtOtherToEgo.theta);
}

TEST(SequenceGenerator, ConsecutiveFramesEvolveSmoothly) {
  SequenceConfig sc;
  sc.seed = 7;
  sc.frames = 5;
  sc.scenario.separation = 30.0;
  const SequenceGenerator gen(sc);
  Pose2 prev = gen.frame(0).gtOtherToEgo;
  for (int k = 1; k < sc.frames; ++k) {
    const Pose2 cur = gen.frame(k).gtOtherToEgo;
    const PoseError step = poseError(cur, prev);
    // Urban speeds, 10 Hz: the relative pose moves centimeters per frame,
    // not meters — the temporal coherence the tracker exploits.
    EXPECT_LT(step.translation, 1.0) << k;
    EXPECT_LT(step.rotationDeg, 5.0) << k;
    prev = cur;
  }
}

TEST(SequenceGenerator, StalePayloadIsByteIdenticalToItsSourceFrame) {
  SequenceConfig clean;
  clean.seed = 11;
  clean.frames = 4;
  clean.scenario.separation = 30.0;
  SequenceConfig lagged = clean;
  lagged.faults.seed = 1;
  lagged.faults.latencyProb = 1.0;
  lagged.faults.maxLatencyFrames = 1;
  const SequenceGenerator genClean(clean), genLagged(lagged);
  const StreamFrame f = genLagged.frame(3);
  ASSERT_TRUE(f.remoteReceived);
  ASSERT_EQ(f.remoteLagFrames, 1);
  const StreamFrame src = genClean.frame(2);
  // The delivered payload is exactly what frame 2 would have transmitted.
  EXPECT_TRUE(sameCloud(f.otherCloud, src.otherCloud));
  ASSERT_EQ(f.otherDets.size(), src.otherDets.size());
  // ...and its ground truth relates the remote car *then* to ego *now*.
  const Pose2 expected =
      genLagged.gtOtherToEgoAt(3 * kFramePeriodS, 2 * kFramePeriodS);
  EXPECT_EQ(f.gtDeliveredOtherToEgo.t.x, expected.t.x);
  EXPECT_EQ(f.gtDeliveredOtherToEgo.theta, expected.theta);
  // The stale gt differs from the fresh-frame gt (the cars moved).
  EXPECT_GT(poseError(f.gtDeliveredOtherToEgo, f.gtOtherToEgo).translation,
            0.0);
}

TEST(SequenceGenerator, DroppedFrameDeliversNothing) {
  SequenceConfig sc;
  sc.seed = 7;
  sc.frames = 12;
  sc.scenario.separation = 30.0;
  sc.faults.seed = 3;
  sc.faults.frameDropProb = 0.2;
  const SequenceGenerator gen(sc);
  // Fault seed 3 drops frames 1 and 3 (pinned; pure function of the seed).
  const StreamFrame f1 = gen.frame(1);
  EXPECT_FALSE(f1.remoteReceived);
  EXPECT_TRUE(f1.otherCloud.empty());
  EXPECT_TRUE(f1.otherDets.empty());
  EXPECT_FALSE(f1.egoCloud.empty());  // ego side never faulted
  EXPECT_FALSE(gen.frame(3).remoteReceived);
  EXPECT_TRUE(gen.frame(0).remoteReceived);
  EXPECT_TRUE(gen.frame(2).remoteReceived);
}

TEST(SequenceGenerator, PeerZeroIsTheUnfaultedRemote) {
  SequenceConfig sc;
  sc.seed = 7;
  sc.frames = 3;
  sc.scenario.separation = 30.0;
  const SequenceGenerator gen(sc);
  const StreamFrame f = gen.frame(2);
  const PeerObservation obs = gen.peerObservation(2, 0);
  // Peer index 0 is the classic "other" car: same sensing stream, so with
  // no faults configured the payloads are byte-identical.
  EXPECT_TRUE(sameCloud(obs.cloud, f.otherCloud));
  ASSERT_EQ(obs.dets.size(), f.otherDets.size());
}

TEST(ExtrapolatePose, ConstantVelocityCarriesForward) {
  const Pose2 a{Vec2{0.0, 0.0}, 0.0};
  const Pose2 b{Vec2{2.0, 1.0}, 0.2};
  const Pose2 p = extrapolatePose(a, 0, b, 2, 4);
  EXPECT_NEAR(p.t.x, 4.0, 1e-12);
  EXPECT_NEAR(p.t.y, 2.0, 1e-12);
  EXPECT_NEAR(p.theta, 0.4, 1e-12);
  // Same frame twice: hold the newer pose.
  const Pose2 held = extrapolatePose(b, 2, b, 2, 7);
  EXPECT_EQ(held.t.x, b.t.x);
  EXPECT_EQ(held.theta, b.theta);
}

TEST(ExtrapolatePose, WrapsAngleAcrossPi) {
  const Pose2 a{Vec2{0.0, 0.0}, kPi - 0.05};
  const Pose2 b{Vec2{0.0, 0.0}, -kPi + 0.05};  // +0.1 rad across the seam
  const Pose2 p = extrapolatePose(a, 0, b, 1, 2);
  EXPECT_NEAR(angularDistance(p.theta, -kPi + 0.15), 0.0, 1e-12);
}

TEST(RelaxedRecoveryConfig, IsUniformlyLooserThanBase) {
  const BBAlignConfig base;
  const BBAlignConfig relaxed = relaxedRecoveryConfig(base);
  EXPECT_EQ(relaxed.matching.topK, base.matching.topK + 1);
  EXPECT_GT(relaxed.ransacBv.inlierThreshold, base.ransacBv.inlierThreshold);
  EXPECT_GT(relaxed.ransacBox.inlierThreshold, base.ransacBox.inlierThreshold);
  EXPECT_LE(relaxed.ransacBox.minInliers, base.ransacBox.minInliers);
  EXPECT_GT(relaxed.boxPairMaxCenterDistance, base.boxPairMaxCenterDistance);
  EXPECT_LT(relaxed.minOverlapScore, base.minOverlapScore);
  EXPECT_LT(relaxed.successInliersBv, base.successInliersBv);
  EXPECT_LT(relaxed.successInliersBox, base.successInliersBox);
}

// ---- tracker lifecycle (no recover() calls — external poses + coasting) --

TEST(PoseTracker, BootstrapCoastDecayAndTrackLoss) {
  PoseTrackerConfig cfg;
  cfg.maxConsecutiveMisses = 3;
  PoseTracker tracker(cfg);
  EXPECT_FALSE(tracker.hasTrack());

  // Coasting with no track ever: bootstrapping, no pose.
  TrackerReport rep;
  TrackerResult r = tracker.coast(&rep);
  EXPECT_FALSE(r.poseValid);
  EXPECT_EQ(r.outcome, TrackerOutcome::Bootstrapping);
  EXPECT_FALSE(rep.predictionAvailable);

  // Two external fixes establish a moving track.
  tracker.acceptExternalPose(Pose2{Vec2{10.0, 0.0}, 0.0});
  tracker.acceptExternalPose(Pose2{Vec2{10.5, 0.0}, 0.0});
  ASSERT_TRUE(tracker.hasTrack());
  ASSERT_TRUE(tracker.predictNext().has_value());

  // Rung 2: confidence decays geometrically while coasting.
  r = tracker.coast(&rep);
  EXPECT_EQ(r.outcome, TrackerOutcome::Extrapolated);
  EXPECT_TRUE(r.poseValid);
  EXPECT_NEAR(r.confidence, kConfidenceDecay, 1e-12);
  const double conf1 = r.confidence;
  r = tracker.coast(&rep);
  EXPECT_EQ(r.outcome, TrackerOutcome::Extrapolated);
  EXPECT_NEAR(r.confidence, kConfidenceDecay * kConfidenceDecay, 1e-12);
  EXPECT_LT(r.confidence, conf1);
  EXPECT_EQ(tracker.consecutiveMisses(), 2);

  // Rung 3: the miss budget is exhausted — one last floor-confidence pose,
  // then the track is gone.
  r = tracker.coast(&rep);
  EXPECT_EQ(r.outcome, TrackerOutcome::TrackLost);
  EXPECT_TRUE(r.poseValid);
  EXPECT_EQ(r.confidence, kMinConfidence);
  EXPECT_TRUE(rep.trackLostThisFrame);
  EXPECT_FALSE(tracker.hasTrack());

  // Back to bootstrapping.
  r = tracker.coast(&rep);
  EXPECT_EQ(r.outcome, TrackerOutcome::Bootstrapping);
  EXPECT_FALSE(r.poseValid);
}

TEST(PoseTracker, ExtrapolationFollowsConstantVelocity) {
  PoseTracker tracker;
  tracker.acceptExternalPose(Pose2{Vec2{10.0, 0.0}, 0.0});
  tracker.acceptExternalPose(Pose2{Vec2{10.5, 0.2}, 0.01});
  const TrackerResult r = tracker.coast();
  ASSERT_TRUE(r.poseValid);
  // acceptExternalPose anchors both fixes at frame 0 (no frames processed
  // yet), so the second fix holds; the coast advances one frame.
  EXPECT_NEAR(r.pose.t.x, 10.5, 1e-9);
  EXPECT_NEAR(r.pose.t.y, 0.2, 1e-9);
}

TEST(PoseTracker, SkipFrameHoldsTheTrackWithoutChargingMisses) {
  PoseTrackerConfig cfg;
  cfg.maxConsecutiveMisses = 2;
  PoseTracker tracker(cfg);
  tracker.acceptExternalPose(Pose2{Vec2{10.0, 0.0}, 0.0});
  tracker.acceptExternalPose(Pose2{Vec2{10.5, 0.0}, 0.0});
  ASSERT_TRUE(tracker.hasTrack());

  // Far more scheduler skips than the miss budget: the track must survive
  // every one of them — a shed frame is the scheduler's choice, not
  // evidence the peer is gone.
  TrackerReport rep;
  TrackerResult r;
  double prevConfidence = 1.0;
  for (int i = 0; i < 10; ++i) {
    r = tracker.skipFrame(&rep);
    EXPECT_EQ(r.outcome, TrackerOutcome::Held) << "skip " << i;
    EXPECT_TRUE(r.poseValid);
    EXPECT_TRUE(rep.schedulerSkipped);
    EXPECT_FALSE(rep.remoteReceived);
    EXPECT_EQ(tracker.consecutiveMisses(), 0);
    EXPECT_EQ(tracker.consecutiveSkips(), i + 1);
    // Confidence still decays: a held pose is not a fresh lock.
    EXPECT_LE(r.confidence, prevConfidence);
    prevConfidence = r.confidence;
  }
  EXPECT_TRUE(tracker.hasTrack());
  EXPECT_GE(r.confidence, kMinConfidence);
}

TEST(PoseTracker, SkipFrameWithoutTrackStaysBootstrapping) {
  PoseTracker tracker;
  TrackerReport rep;
  const TrackerResult r = tracker.skipFrame(&rep);
  EXPECT_EQ(r.outcome, TrackerOutcome::Bootstrapping);
  EXPECT_FALSE(r.poseValid);
  EXPECT_TRUE(rep.schedulerSkipped);
  EXPECT_FALSE(rep.predictionAvailable);
}

TEST(PoseTracker, MissesAndSkipsShareTheConfidenceLadder) {
  PoseTracker tracker;
  tracker.acceptExternalPose(Pose2{Vec2{10.0, 0.0}, 0.0});
  tracker.acceptExternalPose(Pose2{Vec2{10.5, 0.0}, 0.0});

  const TrackerResult coasted = tracker.coast();
  EXPECT_NEAR(coasted.confidence, kConfidenceDecay, 1e-12);
  const TrackerResult held = tracker.skipFrame();
  // One miss + one skip: two rungs down the same geometric ladder...
  EXPECT_NEAR(held.confidence, kConfidenceDecay * kConfidenceDecay, 1e-12);
  // ...but only the miss counted against the miss budget.
  EXPECT_EQ(tracker.consecutiveMisses(), 1);
  EXPECT_EQ(tracker.consecutiveSkips(), 1);
}

TEST(TrackerReport, JsonIsBalancedAndCarriesTheLadderFields) {
  PoseTrackerConfig cfg;
  cfg.maxConsecutiveMisses = 1;
  PoseTracker tracker(cfg);
  tracker.acceptExternalPose(Pose2{Vec2{1.0, 2.0}, 0.1});
  TrackerReport rep;
  (void)tracker.coast(&rep);
  const std::string json = rep.toJson();
  int depth = 0;
  for (char c : json) {
    if (c == '{') ++depth;
    if (c == '}') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  EXPECT_NE(json.find("\"outcome\":\"track_lost\""), std::string::npos);
  EXPECT_NE(json.find("\"remote_received\":false"), std::string::npos);
  EXPECT_NE(json.find("\"scheduler_skipped\":false"), std::string::npos);
  EXPECT_NE(json.find("\"recovery\":null"), std::string::npos);
  EXPECT_NE(json.find("\"relaxedRecovery\":null"), std::string::npos);
  EXPECT_NE(json.find("\"consecutive_misses\":1"), std::string::npos);
}

// ---- full-pipeline ladder scenarios (pinned seeds, real recover()) -------

std::vector<StreamFrame> cachedFrames(const SequenceConfig& sc) {
  return SequenceGenerator(sc).generate();
}

/// The acceptance sequence of ISSUE 3: 20 % frame drops plus box corner
/// noise. Fault seed 3 drops frames 1 and 3; every delivered frame is
/// recoverable by the primary aligner.
const std::vector<StreamFrame>& faultedSequence() {
  static const std::vector<StreamFrame> frames = [] {
    SequenceConfig sc;
    sc.seed = 7;
    sc.frames = 8;
    sc.scenario.separation = 30.0;
    sc.faults.seed = 3;
    sc.faults.frameDropProb = 0.2;
    sc.faults.boxCenterNoiseSigma = 0.15;
    sc.faults.boxYawNoiseSigmaDeg = 2.0;
    return cachedFrames(sc);
  }();
  return frames;
}

/// Pinned degraded payloads: a 140-degree sector dropout plus heavy box
/// noise on every remote frame. At frame 2 the primary aligner fails its
/// inlier threshold while the relaxed retry, gated by the motion
/// prediction, still locks.
const std::vector<StreamFrame>& degradedSequence() {
  static const std::vector<StreamFrame> frames = [] {
    SequenceConfig sc;
    sc.seed = 7;
    sc.frames = 3;
    sc.scenario.separation = 30.0;
    sc.faults.seed = 5;
    sc.faults.sectorDropProb = 1.0;
    sc.faults.sectorWidthDeg = 140.0;
    sc.faults.boxCenterNoiseSigma = 0.2;
    return cachedFrames(sc);
  }();
  return frames;
}

struct TrackedFrame {
  TrackerResult result;
  TrackerReport report;
};

std::vector<TrackedFrame> runTracker(const std::vector<StreamFrame>& frames,
                                     int threads) {
  ThreadLimit limit(threads);
  PoseTracker tracker;
  Rng rng(11);
  std::vector<TrackedFrame> out;
  out.reserve(frames.size());
  for (const StreamFrame& f : frames) {
    TrackedFrame t;
    t.result = tracker.processFrame(f, rng, &t.report);
    out.push_back(t);
  }
  return out;
}

const std::vector<TrackedFrame>& trackedAt1Thread() {
  static const std::vector<TrackedFrame> r = runTracker(faultedSequence(), 1);
  return r;
}

const std::vector<TrackedFrame>& trackedAt8Threads() {
  static const std::vector<TrackedFrame> r = runTracker(faultedSequence(), 8);
  return r;
}

TEST(PoseTrackerStream, ReportsAPoseEveryFrameUnderFaults) {
  const auto& frames = faultedSequence();
  const auto& tracked = trackedAt1Thread();
  ASSERT_EQ(tracked.size(), frames.size());
  int dropped = 0;
  for (std::size_t k = 0; k < frames.size(); ++k) {
    EXPECT_TRUE(tracked[k].result.poseValid) << "frame " << k;
    if (!frames[k].remoteReceived) {
      ++dropped;
      EXPECT_EQ(tracked[k].result.outcome, TrackerOutcome::Extrapolated)
          << "frame " << k;
      EXPECT_LT(tracked[k].result.confidence, 1.0);
      // The extrapolated pose still tracks the (fresh-frame) ground truth.
      const PoseError e =
          poseError(tracked[k].result.pose, frames[k].gtOtherToEgo);
      EXPECT_LT(e.translation, 1.5) << "frame " << k;
    } else {
      EXPECT_EQ(tracked[k].result.outcome, TrackerOutcome::Recovered)
          << "frame " << k;
      EXPECT_EQ(tracked[k].result.confidence, 1.0);
      const PoseError e =
          poseError(tracked[k].result.pose, frames[k].gtDeliveredOtherToEgo);
      EXPECT_LT(e.translation, 1.0) << "frame " << k;
    }
  }
  EXPECT_EQ(dropped, 2);  // frames 1 and 3 (pinned by fault seed 3)
}

TEST(PoseTrackerStream, CoverageStrictlyBeatsRawPerFrameRecovery) {
  const auto& frames = faultedSequence();
  const auto& tracked = trackedAt1Thread();
  BBAlign aligner;
  Rng rng(11);
  int rawSuccesses = 0, trackerPoses = 0;
  for (std::size_t k = 0; k < frames.size(); ++k) {
    if (frames[k].remoteReceived) {
      const auto ego =
          aligner.makeCarData(frames[k].egoCloud, frames[k].egoDets);
      const auto other =
          aligner.makeCarData(frames[k].otherCloud, frames[k].otherDets);
      rawSuccesses += aligner.recover(other, ego, rng).success ? 1 : 0;
    }
    trackerPoses += tracked[k].result.poseValid ? 1 : 0;
  }
  // Raw per-frame recovery has no answer on dropped frames; the tracker
  // still reports a (decayed-confidence) pose.
  EXPECT_GT(trackerPoses, rawSuccesses);
  EXPECT_EQ(trackerPoses, static_cast<int>(frames.size()));
}

/// Run two trackers over `frames` from equal RNG streams, one computing
/// its own ego features and one handed them, and require byte-identical
/// outputs. Returns the frames on which the relaxed rung ran.
int expectSuppliedEgoFeaturesTransparent(
    const std::vector<StreamFrame>& frames) {
  const BBAlign aligner;
  PoseTracker computesOwn;
  PoseTracker supplied;
  Rng rngOwn(11);
  Rng rngSupplied(11);
  int relaxedAttempts = 0;
  for (std::size_t k = 0; k < frames.size(); ++k) {
    const StreamFrame& f = frames[k];
    TrackerReport repOwn;
    TrackerReport repSupplied;
    TrackerResult own;
    TrackerResult sup;
    if (f.remoteReceived) {
      const auto ego = aligner.makeCarData(f.egoCloud, f.egoDets);
      const auto other = aligner.makeCarData(f.otherCloud, f.otherDets);
      own = computesOwn.update(other, ego, rngOwn, &repOwn);
      sup = supplied.update(other, ego, rngSupplied, &repSupplied,
                            aligner.computeEgoFeatures(ego).get());
    } else {
      own = computesOwn.coast(&repOwn);
      sup = supplied.coast(&repSupplied);
    }
    EXPECT_EQ(sup.outcome, own.outcome) << "frame " << k;
    EXPECT_EQ(std::memcmp(&sup.pose, &own.pose, sizeof own.pose), 0)
        << "frame " << k;
    EXPECT_EQ(repSupplied.toJson(false), repOwn.toJson(false))
        << "frame " << k;
    relaxedAttempts += repOwn.relaxedAttempted ? 1 : 0;
  }
  return relaxedAttempts;
}

TEST(PoseTrackerStream, SuppliedEgoFeaturesAreByteTransparent) {
  // What CooperationService relies on when it hands every session the
  // frame's one ego ImageFeatures: every rung of a step, the relaxed retry
  // included, reads supplied features exactly as it reads its own.
  (void)expectSuppliedEgoFeaturesTransparent(faultedSequence());
  EXPECT_GT(expectSuppliedEgoFeaturesTransparent(degradedSequence()), 0);
}

TEST(PoseTrackerStream, ByteIdenticalAtOneAndEightThreads) {
  const auto& t1 = trackedAt1Thread();
  const auto& t8 = trackedAt8Threads();
  ASSERT_EQ(t1.size(), t8.size());
  for (std::size_t k = 0; k < t1.size(); ++k) {
    EXPECT_EQ(t1[k].result.poseValid, t8[k].result.poseValid) << k;
    EXPECT_EQ(t1[k].result.outcome, t8[k].result.outcome) << k;
    // Exact — not approximate — equality: the thread-count invariance
    // contract of DESIGN.md extends to the tracker.
    EXPECT_EQ(t1[k].result.pose.t.x, t8[k].result.pose.t.x) << k;
    EXPECT_EQ(t1[k].result.pose.t.y, t8[k].result.pose.t.y) << k;
    EXPECT_EQ(t1[k].result.pose.theta, t8[k].result.pose.theta) << k;
    EXPECT_EQ(t1[k].result.confidence, t8[k].result.confidence) << k;
    // Full report equality minus the wall-clock timings (the only fields
    // allowed to differ between runs).
    const TrackerReport& r1 = t1[k].report;
    const TrackerReport& r8 = t8[k].report;
    EXPECT_EQ(r1.prediction.t.x, r8.prediction.t.x) << k;
    EXPECT_EQ(r1.prediction.theta, r8.prediction.theta) << k;
    EXPECT_EQ(r1.innovationTranslation, r8.innovationTranslation) << k;
    EXPECT_EQ(r1.innovationRotationDeg, r8.innovationRotationDeg) << k;
    EXPECT_EQ(r1.gateRejected, r8.gateRejected) << k;
    EXPECT_EQ(r1.consecutiveMisses, r8.consecutiveMisses) << k;
    EXPECT_EQ(r1.relaxedAttempted, r8.relaxedAttempted) << k;
    EXPECT_EQ(r1.recovery.inliersBv, r8.recovery.inliersBv) << k;
    EXPECT_EQ(r1.recovery.inliersBox, r8.recovery.inliersBox) << k;
    EXPECT_EQ(r1.recovery.overlapScore, r8.recovery.overlapScore) << k;
    EXPECT_EQ(r1.recovery.success, r8.recovery.success) << k;
    EXPECT_EQ(r1.recovery.failure, r8.recovery.failure) << k;
  }
}

TEST(PoseTrackerStream, RelaxedRetryRungEngagesOnDegradedPayload) {
  const std::vector<StreamFrame>& frames = degradedSequence();
  PoseTracker tracker;
  Rng rng(11);
  std::vector<TrackedFrame> tracked;
  for (const StreamFrame& f : frames) {
    TrackedFrame t;
    t.result = tracker.processFrame(f, rng, &t.report);
    tracked.push_back(t);
  }
  EXPECT_EQ(tracked[0].result.outcome, TrackerOutcome::Recovered);
  EXPECT_EQ(tracked[1].result.outcome, TrackerOutcome::Recovered);
  ASSERT_EQ(tracked[2].result.outcome, TrackerOutcome::RecoveredRelaxed);
  EXPECT_EQ(tracked[2].result.confidence, kRelaxedConfidence);
  EXPECT_TRUE(tracked[2].report.relaxedAttempted);
  EXPECT_FALSE(tracked[2].report.recovery.success);
  EXPECT_EQ(tracked[2].report.recovery.failure,
            RecoveryFailure::InlierThreshold);
  EXPECT_TRUE(tracked[2].report.relaxedRecovery.success);
  const PoseError e =
      poseError(tracked[2].result.pose, frames[2].gtDeliveredOtherToEgo);
  EXPECT_LT(e.translation, 1.0);
}

/// One tracker step of runTracker(faultedSequence(), 1) as a full yaw
/// search produces it, every listed candidate evaluated: outcome, pose
/// bits, and the next draw of the tracker's Rng after the step.
struct PinnedStep {
  TrackerOutcome outcome;
  std::uint64_t x, y, theta;
  std::uint64_t nextDraw;
};

TEST(PoseTrackerStream, DecisivePriorStopKeepsTheFullSearchOutputs) {
  // Captured from the full search. A step whose prediction's candidates
  // are decisive skips the rest and advances the Rng once per skipped
  // candidate, so every step still matches the full search bit for bit.
  static constexpr PinnedStep kFullSearch[] = {
      {TrackerOutcome::Recovered, 0x403d98b99464eb79, 0x400daaffee3e67c0,
       0x3fbc966052355b8b, 0xab9e98c30a49e129},
      {TrackerOutcome::Extrapolated, 0x403d98b99464eb79, 0x400daaffee3e67c0,
       0x3fbc966052355b8b, 0xab9e98c30a49e129},
      {TrackerOutcome::Recovered, 0x403e1fb382c88b14, 0x400d0d22975b142f,
       0x3fbb08fa28575455, 0x41e790fb0ae85390},
      {TrackerOutcome::Extrapolated, 0x403e633079fa5ae2, 0x400cbe33ebe96a66,
       0x3fba4247136850ba, 0x41e790fb0ae85390},
      {TrackerOutcome::Recovered, 0x403e9bf7aa134809, 0x40102fbdaa27ce9c,
       0x3fbc3431bb5cef9f, 0xef42b97ad676ee8e},
      {TrackerOutcome::Recovered, 0x403ed7d7eca5ae9f, 0x4010e6b909f1e90d,
       0x3fbd750f8dbc6eed, 0x167e1cbf0c28123b},
      {TrackerOutcome::Recovered, 0x403eedd5c2d5067d, 0x400fa0cc2e54b91d,
       0x3fbb1432ccc0f94d, 0x3407da31f082488c},
      {TrackerOutcome::Recovered, 0x403f25323ef5511d, 0x40118b3668e24d2f,
       0x3fbbcb75093d01cb, 0x697517ad24f0f873},
  };
  const std::vector<StreamFrame>& frames = faultedSequence();
  ASSERT_EQ(frames.size(), std::size(kFullSearch));
  PoseTracker tracker;
  Rng rng(11);
  obs::MetricsRegistry reg;
  obs::installMetricsRegistry(&reg);
  int stopped = 0;
  int skipped = 0;
  for (std::size_t k = 0; k < frames.size(); ++k) {
    TrackerReport rep;
    const TrackerResult r = tracker.processFrame(frames[k], rng, &rep);
    const PinnedStep& want = kFullSearch[k];
    EXPECT_EQ(r.outcome, want.outcome) << "frame " << k;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(r.pose.t.x), want.x) << k;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(r.pose.t.y), want.y) << k;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(r.pose.theta), want.theta) << k;
    Rng next = rng;
    EXPECT_EQ(next.engine()(), want.nextDraw) << "frame " << k;
    if (!rep.remoteReceived) continue;
    for (const PoseRecoveryReport* call :
         {&rep.recovery, rep.relaxedAttempted ? &rep.relaxedRecovery
                                               : nullptr}) {
      if (call == nullptr) continue;
      EXPECT_LE(call->yawCandidates, call->yawCandidatesListed) << k;
      // Bootstrap: no prediction, so nothing may end the search.
      if (!rep.predictionAvailable) {
        EXPECT_EQ(call->yawCandidates, call->yawCandidatesListed) << k;
      }
      stopped += call->yawCandidates < call->yawCandidatesListed ? 1 : 0;
      skipped += call->yawCandidatesListed - call->yawCandidates;
    }
  }
  obs::installMetricsRegistry(nullptr);
  EXPECT_GT(stopped, 0);
  EXPECT_EQ(reg.counter("stage1.yaw_candidates_skipped").value(), skipped);
}

TEST(PoseTrackerStream, TrackLossThenRebootstrap) {
  // A clean two-frame sequence with a miss budget of 1: recover, lose the
  // track on a coasted frame, then re-lock — the re-lock is flagged.
  SequenceConfig sc;
  sc.seed = 7;
  sc.frames = 2;
  sc.scenario.separation = 30.0;
  const std::vector<StreamFrame> frames = cachedFrames(sc);
  PoseTrackerConfig cfg;
  cfg.maxConsecutiveMisses = 1;
  PoseTracker tracker(cfg);
  Rng rng(11);

  TrackerReport rep;
  TrackerResult r = tracker.processFrame(frames[0], rng, &rep);
  ASSERT_EQ(r.outcome, TrackerOutcome::Recovered);
  EXPECT_FALSE(rep.rebootstrapped);

  r = tracker.coast(&rep);
  EXPECT_EQ(r.outcome, TrackerOutcome::TrackLost);
  EXPECT_TRUE(rep.trackLostThisFrame);
  EXPECT_FALSE(tracker.hasTrack());

  r = tracker.processFrame(frames[1], rng, &rep);
  ASSERT_EQ(r.outcome, TrackerOutcome::Recovered);
  EXPECT_TRUE(rep.rebootstrapped);
  EXPECT_FALSE(rep.predictionAvailable);  // history was cleared
  EXPECT_TRUE(tracker.hasTrack());
}

// ---- gt-free validation gate (pinned bad-geometry payload) ----------------

/// Reduced-iteration tracker config: 6x fewer RANSAC draws than the
/// defaults, still recovers every payload of the seed-7 scenario.
PoseTrackerConfig cheapTrackerConfig() {
  PoseTrackerConfig tc;
  tc.aligner.ransacBv.iterations = 2000;
  tc.aligner.ransacBox.iterations = 200;
  return tc;
}

TEST(ValidationGate, CoherentBoxLieIsDemotedToAMiss) {
  // Teleport every transmitted box by one common ~2.5 m offset (the
  // adversarial box channel): stage 2 happily aligns the lied-about boxes,
  // recover() reports success ~2.3 m off the truth — the exact
  // wrong-but-"successful" case the gt-free gate exists for.
  SequenceConfig sc;
  sc.seed = 7;
  sc.frames = 1;
  sc.scenario.separation = 30.0;
  const std::vector<StreamFrame> frames = cachedFrames(sc);
  const PoseTrackerConfig tc = cheapTrackerConfig();
  const BBAlign aligner(tc.aligner);
  const CarPerceptionData ego =
      aligner.makeCarData(frames[0].egoCloud, frames[0].egoDets);
  const CarPerceptionData other =
      aligner.makeCarData(frames[0].otherCloud, frames[0].otherDets);

  FaultConfig fc;
  fc.seed = 5;
  fc.boxTeleportProb = 1.0;
  CarPerceptionData lied = other;
  FaultInjector(fc).applyAdversarialBoxFaults(lied.boxes, 0);

  PoseTracker tracker(tc);
  Rng rng(11);
  TrackerReport rep;
  const TrackerResult r = tracker.update(lied, ego, rng, &rep);
  // The recovery itself "succeeded"...
  EXPECT_TRUE(rep.recovery.success);
  // ...but its self-validation score collapsed (pinned: 0.37 vs the
  // honest 0.81, threshold 0.5) and the gate demoted it to a miss.
  EXPECT_LT(rep.recovery.validation.score, kMinValidationScore);
  EXPECT_TRUE(rep.validationRejected);
  EXPECT_FALSE(r.poseValid);
  EXPECT_EQ(r.outcome, TrackerOutcome::Bootstrapping);
  EXPECT_FALSE(tracker.hasTrack());

  // The honest payload passes the same gate and locks.
  const TrackerResult h = tracker.update(other, ego, rng, &rep);
  EXPECT_EQ(h.outcome, TrackerOutcome::Recovered);
  EXPECT_FALSE(rep.validationRejected);
  EXPECT_GE(rep.recovery.validation.score, kMinValidationScore);
  EXPECT_GT(rep.recovery.validation.boxesCompared, 0);
}

// ---- tracker ladder property test (randomized drops, pinned seeds) --------

TEST(PoseTrackerProperty, ConfidenceLadderAndRebootstrapFlagInvariants) {
  // Randomized drop patterns over pinned seeds against one recoverable
  // payload; the ladder invariants must hold on every trajectory:
  //   (1) confidence is monotone non-increasing across consecutive coasts,
  //   (2) a fresh lock resets confidence to 1.0,
  //   (3) `rebootstrapped` is flagged exactly once per track-lost cycle.
  SequenceConfig sc;
  sc.seed = 7;
  sc.frames = 1;
  sc.scenario.separation = 30.0;
  const std::vector<StreamFrame> frames = cachedFrames(sc);
  PoseTrackerConfig tc = cheapTrackerConfig();
  tc.maxConsecutiveMisses = 2;
  const BBAlign aligner(tc.aligner);
  const CarPerceptionData ego =
      aligner.makeCarData(frames[0].egoCloud, frames[0].egoDets);
  const CarPerceptionData other =
      aligner.makeCarData(frames[0].otherCloud, frames[0].otherDets);

  int totalReboots = 0;
  for (const std::uint64_t seed : {std::uint64_t{17}, std::uint64_t{29}}) {
    PoseTracker tracker(tc);
    Rng dropRng(seed);
    Rng rng(seed ^ 0x5DEECE66DULL);
    double prevConfidence = 0.0;
    bool lostPending = false;  // a track loss not yet followed by a lock
    for (int k = 0; k < 12; ++k) {
      const bool drop = dropRng.uniform(0.0, 1.0) < 0.5;
      TrackerReport rep;
      const TrackerResult r =
          drop ? tracker.coast(&rep) : tracker.update(other, ego, rng, &rep);
      switch (r.outcome) {
        case TrackerOutcome::Recovered:
          // (2) every fresh lock resets confidence.
          EXPECT_EQ(r.confidence, 1.0) << "seed " << seed << " frame " << k;
          // (3) flagged iff this lock ends a track-lost cycle.
          EXPECT_EQ(rep.rebootstrapped, lostPending)
              << "seed " << seed << " frame " << k;
          if (lostPending) ++totalReboots;
          lostPending = false;
          break;
        case TrackerOutcome::RecoveredRelaxed:
          EXPECT_EQ(rep.rebootstrapped, lostPending)
              << "seed " << seed << " frame " << k;
          if (lostPending) ++totalReboots;
          lostPending = false;
          break;
        case TrackerOutcome::Extrapolated:
          // (1) coasting only ever lowers confidence.
          EXPECT_LT(r.confidence, prevConfidence)
              << "seed " << seed << " frame " << k;
          break;
        case TrackerOutcome::TrackLost:
          EXPECT_TRUE(rep.trackLostThisFrame);
          EXPECT_FALSE(lostPending);  // at most one loss per cycle
          lostPending = true;
          break;
        default:
          break;
      }
      if (r.poseValid) prevConfidence = r.confidence;
    }
  }
  // The pinned seeds exercise the full cycle at least twice.
  EXPECT_GE(totalReboots, 2);
}

}  // namespace
}  // namespace bba
