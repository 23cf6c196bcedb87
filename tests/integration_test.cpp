// Cross-module integration tests: behaviours that only emerge when the
// whole pipeline runs on simulated scenes.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "common/parallel.hpp"
#include "core/metrics.hpp"
#include "dataset/generator.hpp"
#include "fusion/ap.hpp"
#include "fusion/fusion.hpp"

namespace bba {
namespace {

TEST(Integration, OncomingTrafficPairRecovers) {
  // Relative yaw near 180 degrees: the pi-ambiguity handling (flipped
  // descriptors + overlap verification) must resolve the flip.
  DatasetConfig cfg;
  cfg.seed = 404;
  cfg.minSeparation = 20.0;
  cfg.maxSeparation = 35.0;
  cfg.oppositeDirectionProb = 1.0;
  cfg.curvedRoadProb = 0.0;
  const DatasetGenerator gen(cfg);
  const BBAlign aligner;
  Rng rng(1);
  int ok = 0, n = 0;
  for (int i = 0; i < 4; ++i) {
    const auto pair = gen.generatePair(i);
    if (!pair) continue;
    ASSERT_GT(std::abs(pair->gtOtherToEgo.theta), 2.5);  // truly oncoming
    ++n;
    const auto ev = evaluatePair(aligner, *pair, rng);
    ok += ev.error.translation < 1.5 && ev.error.rotationDeg < 2.0;
  }
  ASSERT_GE(n, 3);
  EXPECT_GE(ok, n - 1);  // at most one hard failure tolerated
}

TEST(Integration, OpenAreaFailuresAreFlaggedNotMisreported) {
  // Landmark-poor scenes: recovery may fail, but then the success flag
  // must be false — a wrong pose flagged successful is the dangerous case.
  DatasetConfig cfg;
  cfg.seed = 505;
  cfg.openAreaProb = 1.0;
  cfg.minMovingVehicles = 0;
  cfg.maxMovingVehicles = 2;
  cfg.minParkedVehicles = 0;
  cfg.maxParkedVehicles = 2;
  cfg.minCommonCars = 0;
  const DatasetGenerator gen(cfg);
  const BBAlign aligner;
  Rng rng(2);
  int falseConfidence = 0, n = 0;
  for (int i = 0; i < 5; ++i) {
    const auto pair = gen.generatePair(i);
    if (!pair) continue;
    ++n;
    const auto ev = evaluatePair(aligner, *pair, rng);
    if (ev.recovery.success && ev.error.translation > 3.0)
      ++falseConfidence;
  }
  ASSERT_GE(n, 3);
  EXPECT_EQ(falseConfidence, 0);
}

TEST(Integration, RecoveryBeatsNoisyPoseForDetection) {
  // The Table-I mechanism on one scene: detection AP with the recovered
  // pose must beat AP with a badly corrupted pose.
  DatasetConfig cfg;
  cfg.seed = 808;
  cfg.minSeparation = 15.0;
  cfg.maxSeparation = 30.0;
  const DatasetGenerator gen(cfg);
  const BBAlign aligner;
  Rng rng(3);

  std::vector<EvalFrame> noisyF, recF;
  for (int i = 0; i < 4; ++i) {
    const auto pair = gen.generatePair(i);
    if (!pair) continue;
    Pose2 noisy = pair->gtOtherToEgo;
    noisy.t.x += 3.0;
    noisy.t.y -= 2.5;
    noisy.theta = wrapAngle(noisy.theta + 3.0 * kDegToRad);

    const auto egoData = aligner.makeCarData(pair->egoCloud, pair->egoDets);
    const auto otherData =
        aligner.makeCarData(pair->otherCloud, pair->otherDets);
    const auto rec = aligner.recover(otherData, egoData, rng);
    const Pose2 used = rec.success ? rec.estimate : noisy;

    const EgoMotion em{pair->egoSpeed, pair->egoYawRate};
    const EgoMotion om{pair->otherSpeed, pair->otherYawRate};
    noisyF.push_back(
        {cooperativeDetect(FusionMethod::Early, pair->egoCloud,
                           pair->otherCloud, noisy, em, om),
         pair->gtBoxesEgoFrame});
    recF.push_back(
        {cooperativeDetect(FusionMethod::Early, pair->egoCloud,
                           pair->otherCloud, used, em, om),
         pair->gtBoxesEgoFrame});
  }
  ASSERT_GE(noisyF.size(), 3u);
  EXPECT_GT(averagePrecision(recF, 0.5), averagePrecision(noisyF, 0.5));
}

TEST(Integration, MotionDistortionDegradesStage1) {
  // With distortion disabled the stage-1 estimate should typically be at
  // least as good — the effect stage 2 exists to absorb.
  const BBAlign aligner;
  double withD = 0, withoutD = 0;
  int n = 0;
  for (int i = 0; i < 4; ++i) {
    DatasetConfig cfg;
    cfg.seed = 909 + i;
    cfg.minSeparation = 20.0;
    cfg.maxSeparation = 40.0;
    DatasetConfig cfgNo = cfg;
    cfgNo.motionDistortion = false;
    const auto a = DatasetGenerator(cfg).generatePair(i);
    const auto b = DatasetGenerator(cfgNo).generatePair(i);
    if (!a || !b) continue;
    Rng rng(4);
    const auto evA = evaluatePair(aligner, *a, rng);
    const auto evB = evaluatePair(aligner, *b, rng);
    if (evA.errorStage1.translation > 5.0 ||
        evB.errorStage1.translation > 5.0)
      continue;  // outright stage-1 failures say nothing about distortion
    withD += evA.errorStage1.translation;
    withoutD += evB.errorStage1.translation;
    ++n;
  }
  ASSERT_GE(n, 2);
  EXPECT_LE(withoutD, withD + 0.8 * n);  // distortion-free is not worse
}

TEST(Integration, PayloadFarSmallerThanRawCloud) {
  DatasetConfig cfg;
  cfg.seed = 111;
  const DatasetGenerator gen(cfg);
  const auto pair = gen.generatePair(0);
  ASSERT_TRUE(pair.has_value());
  const BBAlign aligner;
  const auto data = aligner.makeCarData(pair->otherCloud, pair->otherDets);
  // Raw cloud at 16 B/point vs sparse BV + boxes: >= 10x saving (the
  // paper's bandwidth argument for not sharing raw clouds).
  EXPECT_LT(10 * data.approxPayloadBytes(),
            pair->otherCloud.size() * 16);
}

TEST(Integration, SuccessRateInNormalTrafficIsHigh) {
  DatasetConfig cfg;
  cfg.seed = 222;
  cfg.maxSeparation = 60.0;  // the paper's strong regime
  const DatasetGenerator gen(cfg);
  const BBAlign aligner;
  Rng rng(5);
  int success = 0, n = 0;
  for (int i = 0; i < 8; ++i) {
    const auto pair = gen.generatePair(i);
    if (!pair) continue;
    ++n;
    const auto ev = evaluatePair(aligner, *pair, rng);
    success += ev.recovery.success;
  }
  ASSERT_GE(n, 6);
  EXPECT_GE(success * 2, n);  // at least half flagged successful
}

TEST(Integration, AblationConfigsAreByteIdenticalAt1And8Threads) {
  // bench/ablation_design's seven non-default configs on the pinned
  // seed-4242 pair: the other keypoint detectors, descriptor rotation
  // modes and stage-2 modes, and stage 1 alone without the polish. Each
  // must find keypoints and give the same pose and report bytes at 1 and
  // 8 threads.
  struct Variant {
    const char* name;
    BBAlignConfig cfg;
  };
  std::vector<Variant> variants(7);
  variants[0].name = "per-keypoint rotation";
  variants[0].cfg.descriptor.rotationMode = RotationMode::PerKeypoint;
  variants[1].name = "no rotation invariance";
  variants[1].cfg.descriptor.rotationMode = RotationMode::None;
  variants[2].name = "amplitude maxima";
  variants[2].cfg.keypointSurface = BBAlignConfig::KeypointSurface::Amplitude;
  variants[3].name = "FAST-9 on BV";
  variants[3].cfg.keypointSurface = BBAlignConfig::KeypointSurface::BvFast;
  variants[4].name = "stage 2 rigid";
  variants[4].cfg.stage2Mode = BBAlignConfig::Stage2Mode::Rigid;
  variants[5].name = "stage 2 translation-only";
  variants[5].cfg.stage2Mode = BBAlignConfig::Stage2Mode::TranslationOnly;
  variants[6].name = "stage 1 only, no polish";
  variants[6].cfg.enableBoxAlignment = false;
  variants[6].cfg.bvIcpPolish = false;

  DatasetConfig dc;
  dc.seed = 4242;
  const auto pair = DatasetGenerator(dc).generatePair(0);
  ASSERT_TRUE(pair.has_value());
  for (const Variant& v : variants) {
    SCOPED_TRACE(v.name);
    const BBAlign aligner(v.cfg);
    const CarPerceptionData ego =
        aligner.makeCarData(pair->egoCloud, pair->egoDets);
    const CarPerceptionData other =
        aligner.makeCarData(pair->otherCloud, pair->otherDets);
    PoseRecoveryReport reports[2];
    Pose2 poses[2];
    const int threads[2] = {1, 8};
    for (int i = 0; i < 2; ++i) {
      ThreadLimit limit(threads[i]);
      Rng rng(7);
      poses[i] = aligner.recover(other, ego, rng, &reports[i]).estimate;
    }
    EXPECT_GT(reports[0].keypointsEgo, 0);
    EXPECT_GT(reports[0].keypointsOther, 0);
    EXPECT_EQ(std::memcmp(&poses[0], &poses[1], sizeof(Pose2)), 0);
    EXPECT_EQ(reports[0].toJson(false), reports[1].toJson(false));
  }
}

}  // namespace
}  // namespace bba
