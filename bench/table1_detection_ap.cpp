// Table I — Cooperative object detection under corrupted pose
// (sigma_t = 2 m, sigma_theta = 2 deg), with vs. without BB-Align pose
// recovery: AP@IoU=0.5/0.7, overall and per distance band.
//
// Paper: noise cripples every fusion method; integrating the recovered
// pose roughly doubles AP at IoU=0.5 for early/late fusion, with the most
// dramatic gains at close range (0-30 m).
#include <iostream>

#include "bench_common.hpp"
#include "fusion/ap.hpp"
#include "fusion/fusion.hpp"

int main() {
  using namespace bba;
  bench::printHeader(std::cout,
                     "Table I — detection AP under pose error, with/without "
                     "recovery",
                     "recovery ~doubles AP@0.5; close range benefits most");

  const int n = bench::pairCount(24);
  const double sigmaT = 2.0;          // meters
  const double sigmaTheta = 2.0;      // degrees
  const BBAlign aligner;
  const DatasetGenerator generator(bench::standardConfig(10001));
  Rng rng(21);

  constexpr int kMethods = 4;
  std::vector<EvalFrame> noisy[kMethods], recovered[kMethods];
  int recoveredCount = 0, pairs = 0;

  for (int i = 0; i < n; ++i) {
    const auto pair = generator.generatePair(i);
    if (!pair) continue;
    ++pairs;

    // Corrupt the informed pose with the paper's Gaussian noise.
    Pose2 noisyPose = pair->gtOtherToEgo;
    noisyPose.t.x += rng.normal(0.0, sigmaT);
    noisyPose.t.y += rng.normal(0.0, sigmaT);
    noisyPose.theta =
        wrapAngle(noisyPose.theta + rng.normal(0.0, sigmaTheta * kDegToRad));

    // BB-Align pose recovery (uses no prior pose at all).
    const CarPerceptionData egoData =
        aligner.makeCarData(pair->egoCloud, pair->egoDets);
    const CarPerceptionData otherData =
        aligner.makeCarData(pair->otherCloud, pair->otherDets);
    const PoseRecoveryResult rec = aligner.recover(otherData, egoData, rng);
    // Plug-and-play integration: use the recovered pose when the recovery
    // is flagged successful, else fall back to the (noisy) informed pose.
    const Pose2 usedPose = rec.success ? rec.estimate : noisyPose;
    recoveredCount += rec.success;

    const EgoMotion egoMotion{pair->egoSpeed, pair->egoYawRate};
    const EgoMotion otherMotion{pair->otherSpeed, pair->otherYawRate};
    for (int m = 0; m < kMethods; ++m) {
      const auto method = static_cast<FusionMethod>(m);
      noisy[m].push_back(
          EvalFrame{cooperativeDetect(method, pair->egoCloud,
                                      pair->otherCloud, noisyPose, egoMotion,
                                      otherMotion),
                    pair->gtBoxesEgoFrame});
      recovered[m].push_back(
          EvalFrame{cooperativeDetect(method, pair->egoCloud,
                                      pair->otherCloud, usedPose, egoMotion,
                                      otherMotion),
                    pair->gtBoxesEgoFrame});
    }
    std::cerr << "\r  [" << (i + 1) << "/" << n << " scenes]" << std::flush;
  }
  std::cerr << "\n";
  std::cout << "scenes=" << pairs << "  pose recovered on " << recoveredCount
            << " (fallback to noisy pose otherwise)\n";

  const RangeBand bands[] = {{0.0, 1e9}, {0.0, 30.0}, {30.0, 50.0},
                             {50.0, 100.0}};
  const char* bandNames[] = {"Overall", "0-30m", "30-50m", "50-100m"};

  const auto apCell = [&](std::span<const EvalFrame> frames,
                          const RangeBand& band) {
    return fmt(averagePrecision(frames, 0.5, band), 1) + "/" +
           fmt(averagePrecision(frames, 0.7, band), 1);
  };

  std::cout << "\nAP@IoU=0.5/0.7 under sigma_t=" << sigmaT
            << " m, sigma_theta=" << sigmaTheta << " deg\n";
  Table t({"Method", "Noisy Overall", "Noisy 0-30m", "Noisy 30-50m",
           "Noisy 50-100m", "Recovered Overall", "Recovered 0-30m",
           "Recovered 30-50m", "Recovered 50-100m"});
  for (int m = 0; m < kMethods; ++m) {
    std::vector<std::string> row{toString(static_cast<FusionMethod>(m))};
    for (int b = 0; b < 4; ++b) row.push_back(apCell(noisy[m], bands[b]));
    for (int b = 0; b < 4; ++b) row.push_back(apCell(recovered[m], bands[b]));
    (void)bandNames;
    t.addRow(std::move(row));
  }
  t.print(std::cout);
  std::cout << "\nCSV:\n";
  t.printCsv(std::cout);
  return 0;
}
