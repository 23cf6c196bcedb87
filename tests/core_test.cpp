// core module: BBAlign end-to-end behaviours, config toggles, the
// Algorithm-1 contract on controlled inputs.
#include <gtest/gtest.h>

#include "core/bb_align.hpp"
#include "core/metrics.hpp"
#include "dataset/generator.hpp"

namespace bba {
namespace {

/// Controlled stage-1 scenario: the "other" car's data is the ego cloud
/// rigidly re-expressed from a different pose — matching must recover the
/// exact transform (no sensor/viewpoint differences involved).
class TransformedCopy : public ::testing::TestWithParam<double> {};

TEST_P(TransformedCopy, RecoversExactRelativePose) {
  const double yawDeg = GetParam();
  DatasetConfig dataCfg;
  dataCfg.seed = 2024;
  dataCfg.minSeparation = 30.0;
  dataCfg.maxSeparation = 45.0;
  const DatasetGenerator gen(dataCfg);
  const auto pair = gen.generatePair(0);
  ASSERT_TRUE(pair.has_value());

  const Pose2 T{Vec2{6.0, 3.0}, yawDeg * kDegToRad};  // other -> ego
  const PointCloud otherCloud =
      transformed(pair->egoCloud, Pose3::fromPose2(T).inverse());

  const BBAlign aligner;
  const CarPerceptionData egoData = aligner.makeCarData(pair->egoCloud, {});
  const CarPerceptionData otherData = aligner.makeCarData(otherCloud, {});
  Rng rng(1);
  const PoseRecoveryResult r = aligner.recover(otherData, egoData, rng);
  ASSERT_TRUE(r.stage1Ok) << "yaw " << yawDeg;
  const PoseError e = poseError(r.estimate, T);
  EXPECT_LT(e.translation, 1.0) << "yaw " << yawDeg;
  EXPECT_LT(e.rotationDeg, 1.5) << "yaw " << yawDeg;
  EXPECT_GT(r.overlapScore, 0.5);
}

INSTANTIATE_TEST_SUITE_P(Yaws, TransformedCopy,
                         ::testing::Values(0.0, 20.0, 90.0, 175.0, -45.0));

TEST(BBAlign, ConfigValidation) {
  BBAlignConfig cfg;
  cfg.bev.range = 50.0;
  cfg.bev.cellSize = 0.7;  // 142 px: not a power of two
  EXPECT_THROW(BBAlign{cfg}, AssertionError);
}

TEST(BBAlign, PayloadIsSmall) {
  DatasetConfig dataCfg;
  dataCfg.seed = 20;
  const DatasetGenerator gen(dataCfg);
  const auto pair = gen.generatePair(0);
  ASSERT_TRUE(pair.has_value());
  const BBAlign aligner;
  const CarPerceptionData d =
      aligner.makeCarData(pair->otherCloud, pair->otherDets);
  // The paper's bandwidth argument: the BV-image + boxes payload is tiny
  // compared to the raw cloud (~16 bytes/point).
  EXPECT_LT(d.approxPayloadBytes(), pair->otherCloud.size() * 16 / 10);
  EXPECT_GT(d.approxPayloadBytes(), 500u);
}

TEST(BBAlign, EmptyInputsFailGracefully) {
  const BBAlign aligner;
  CarPerceptionData empty;
  empty.bvImage = ImageF(aligner.config().bev.imageSize(),
                         aligner.config().bev.imageSize(), 0.0f);
  Rng rng(2);
  const PoseRecoveryResult r = aligner.recover(empty, empty, rng);
  EXPECT_FALSE(r.stage1Ok);
  EXPECT_FALSE(r.success);
  EXPECT_EQ(r.inliersBv, 0);
}

TEST(BBAlign, SuccessImpliesBothStagesAndThresholds) {
  DatasetConfig dataCfg;
  dataCfg.seed = 7;
  const DatasetGenerator gen(dataCfg);
  const BBAlign aligner;
  Rng rng(3);
  int successes = 0;
  for (int i = 0; i < 6; ++i) {
    const auto pair = gen.generatePair(i);
    if (!pair) continue;
    const auto ev = evaluatePair(aligner, *pair, rng);
    if (ev.recovery.success) {
      ++successes;
      EXPECT_TRUE(ev.recovery.stage1Ok);
      EXPECT_TRUE(ev.recovery.stage2Ok);
      EXPECT_GT(ev.recovery.inliersBv, aligner.config().successInliersBv);
      EXPECT_GT(ev.recovery.inliersBox, aligner.config().successInliersBox);
    }
  }
  EXPECT_GT(successes, 0);
}

TEST(BBAlign, Stage2DisabledFallsBackToStage1) {
  DatasetConfig dataCfg;
  dataCfg.seed = 20;
  dataCfg.minSeparation = 25.0;
  dataCfg.maxSeparation = 40.0;
  const DatasetGenerator gen(dataCfg);
  const auto pair = gen.generatePair(0);
  ASSERT_TRUE(pair.has_value());

  BBAlignConfig cfg;
  cfg.enableBoxAlignment = false;
  const BBAlign aligner(cfg);
  Rng rng(4);
  const auto ev = evaluatePair(aligner, *pair, rng);
  EXPECT_EQ(ev.recovery.inliersBox, 0);
  EXPECT_FALSE(ev.recovery.stage2Ok);
  EXPECT_DOUBLE_EQ(ev.recovery.estimate.t.x, ev.recovery.stage1.t.x);
}

TEST(BBAlign, Lifted3DTransformMatches2DEstimate) {
  DatasetConfig dataCfg;
  dataCfg.seed = 20;
  const DatasetGenerator gen(dataCfg);
  const auto pair = gen.generatePair(0);
  ASSERT_TRUE(pair.has_value());
  const BBAlign aligner;
  Rng rng(5);
  const auto ev = evaluatePair(aligner, *pair, rng);
  const Pose2 planar = ev.recovery.estimate3D.toPose2();
  EXPECT_NEAR(planar.t.x, ev.recovery.estimate.t.x, 1e-9);
  EXPECT_NEAR(planar.t.y, ev.recovery.estimate.t.y, 1e-9);
  EXPECT_NEAR(angularDistance(planar.theta, ev.recovery.estimate.theta),
              0.0, 1e-12);
}

TEST(Metrics, EvaluatePairPopulatesCovariates) {
  DatasetConfig dataCfg;
  dataCfg.seed = 20;
  const DatasetGenerator gen(dataCfg);
  const auto pair = gen.generatePair(0);
  ASSERT_TRUE(pair.has_value());
  const BBAlign aligner;
  Rng rng(6);
  const auto ev = evaluatePair(aligner, *pair, rng, /*runVips=*/true);
  EXPECT_DOUBLE_EQ(ev.distance, pair->interVehicleDistance);
  EXPECT_EQ(ev.commonCars, pair->commonCars);
  EXPECT_TRUE(ev.vipsRan);
  EXPECT_GE(ev.error.translation, 0.0);
  EXPECT_GE(ev.errorStage1.translation, 0.0);
}

}  // namespace
}  // namespace bba
