// fusion module: NMS, distance suppression, AP evaluator, cooperative
// detection pipelines.
#include <gtest/gtest.h>

#include "dataset/generator.hpp"
#include "fusion/ap.hpp"
#include "fusion/fusion.hpp"
#include "fusion/nms.hpp"

namespace bba {
namespace {

Detection det(double x, double y, float score, double yaw = 0.0) {
  Detection d;
  d.box.center = {x, y, 0.8};
  d.box.size = {4.5, 2.0, 1.6};
  d.box.yaw = yaw;
  d.score = score;
  return d;
}

TEST(Nms, SuppressesOverlapsKeepsBest) {
  const Detections in{det(0, 0, 0.5f), det(0.3, 0.1, 0.9f),
                      det(20, 0, 0.4f)};
  const Detections out = nonMaximumSuppression(in, 0.3);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_FLOAT_EQ(out[0].score, 0.9f);  // highest first
  EXPECT_FLOAT_EQ(out[1].score, 0.4f);
}

TEST(Nms, KeepsDisjointBoxes) {
  const Detections in{det(0, 0, 0.5f), det(10, 0, 0.6f), det(0, 10, 0.7f)};
  EXPECT_EQ(nonMaximumSuppression(in, 0.3).size(), 3u);
}

TEST(DistanceSuppression, MergesByCenterDistance) {
  const Detections in{det(0, 0, 0.5f), det(2.0, 0, 0.9f), det(10, 0, 0.4f)};
  const Detections out = distanceSuppression(in, 3.0);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_FLOAT_EQ(out[0].score, 0.9f);
}

TEST(Ap, PerfectDetectionsScore100) {
  std::vector<EvalFrame> frames(3);
  for (auto& f : frames) {
    for (int i = 0; i < 4; ++i) {
      Detection d = det(10.0 * i, 5.0, 0.8f);
      f.detections.push_back(d);
      f.gtBoxes.push_back(d.box);
    }
  }
  EXPECT_NEAR(averagePrecision(frames, 0.5), 100.0, 1e-9);
  EXPECT_NEAR(averagePrecision(frames, 0.7), 100.0, 1e-9);
}

TEST(Ap, MissedGtLowersRecallCap) {
  std::vector<EvalFrame> frames(1);
  frames[0].gtBoxes = {det(0, 0, 1).box, det(20, 0, 1).box};
  frames[0].detections = {det(0, 0, 0.9f)};  // one of two found
  EXPECT_NEAR(averagePrecision(frames, 0.5), 50.0, 1e-9);
}

TEST(Ap, FalsePositivesLowerPrecision) {
  std::vector<EvalFrame> frames(1);
  frames[0].gtBoxes = {det(0, 0, 1).box};
  // High-score FP ranked above the TP: precision at full recall is 0.5.
  frames[0].detections = {det(50, 50, 0.9f), det(0, 0, 0.5f)};
  EXPECT_NEAR(averagePrecision(frames, 0.5), 50.0, 1e-9);
  // FP ranked below the TP: AP stays 100 (all-point interpolation).
  frames[0].detections = {det(50, 50, 0.3f), det(0, 0, 0.5f)};
  EXPECT_NEAR(averagePrecision(frames, 0.5), 100.0, 1e-9);
}

TEST(Ap, IouThresholdMatters) {
  std::vector<EvalFrame> frames(1);
  frames[0].gtBoxes = {det(0, 0, 1).box};
  frames[0].detections = {det(1.2, 0, 0.9f)};  // IoU ~0.55
  EXPECT_NEAR(averagePrecision(frames, 0.5), 100.0, 1e-9);
  EXPECT_NEAR(averagePrecision(frames, 0.7), 0.0, 1e-9);
}

TEST(Ap, RangeBandsFilterBothSides) {
  std::vector<EvalFrame> frames(1);
  frames[0].gtBoxes = {det(10, 0, 1).box, det(60, 0, 1).box};
  frames[0].detections = {det(10, 0, 0.9f), det(60, 0, 0.8f)};
  EXPECT_NEAR(averagePrecision(frames, 0.5, RangeBand{0, 30}), 100.0, 1e-9);
  EXPECT_NEAR(averagePrecision(frames, 0.5, RangeBand{50, 100}), 100.0,
              1e-9);
  EXPECT_NEAR(averagePrecision(frames, 0.5, RangeBand{30, 50}), 0.0, 1e-9);
}

TEST(Ap, EmptyGtIsZero) {
  std::vector<EvalFrame> frames(1);
  frames[0].detections = {det(0, 0, 0.9f)};
  EXPECT_DOUBLE_EQ(averagePrecision(frames, 0.5), 0.0);
}

TEST(Ap, DuplicateDetectionsCountOnceAsTp) {
  std::vector<EvalFrame> frames(1);
  frames[0].gtBoxes = {det(0, 0, 1).box};
  frames[0].detections = {det(0, 0, 0.9f), det(0.1, 0, 0.8f)};
  // Second detection of the same GT is a FP; AP = area under P-R with
  // recall reaching 1 at precision 1 first => AP stays 100.
  EXPECT_NEAR(averagePrecision(frames, 0.5), 100.0, 1e-9);
}

class FusionMethods : public ::testing::TestWithParam<FusionMethod> {};

TEST_P(FusionMethods, ProducesDetectionsAndPrefersTruePose) {
  const FusionMethod method = GetParam();
  DatasetConfig cfg;
  cfg.seed = 55;
  cfg.minSeparation = 20.0;
  cfg.maxSeparation = 35.0;
  const DatasetGenerator gen(cfg);
  const auto pair = gen.generatePair(0);
  ASSERT_TRUE(pair.has_value());
  const EgoMotion em{pair->egoSpeed, pair->egoYawRate};
  const EgoMotion om{pair->otherSpeed, pair->otherYawRate};

  const Detections atGt =
      cooperativeDetect(method, pair->egoCloud, pair->otherCloud,
                        pair->gtOtherToEgo, em, om);
  EXPECT_GT(atGt.size(), 2u);

  // A wildly wrong pose must not *improve* AP.
  Pose2 wrong = pair->gtOtherToEgo;
  wrong.t.x += 15.0;
  const Detections atWrong = cooperativeDetect(
      method, pair->egoCloud, pair->otherCloud, wrong, em, om);
  const std::vector<EvalFrame> fGt{{atGt, pair->gtBoxesEgoFrame}};
  const std::vector<EvalFrame> fWrong{{atWrong, pair->gtBoxesEgoFrame}};
  EXPECT_GE(averagePrecision(fGt, 0.5) + 1e-9,
            averagePrecision(fWrong, 0.5));
}

INSTANTIATE_TEST_SUITE_P(All, FusionMethods,
                         ::testing::Values(FusionMethod::Early,
                                           FusionMethod::Late,
                                           FusionMethod::FCooper,
                                           FusionMethod::CoBEVT));

}  // namespace
}  // namespace bba
