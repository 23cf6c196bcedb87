// Design-choice ablations called out in DESIGN.md (beyond the paper's own
// Fig. 14 ablation):
//   (a) descriptor rotation handling: global fixed-angle vs per-keypoint
//       (BVFT-style) vs none (the SIFT/ORB-like failure mode of §V-A);
//   (b) keypoint surface: occupied-pixel block maxima vs Log-Gabor
//       amplitude maxima vs FAST-9 corners on the raw BV image;
//   (c) stage-2 estimation mode: translation-only vs rigid vs auto, and
//       stage 1 alone with no polish;
//   (d) classical 2-D ICP from identity instead of BB-Align stage 1.
#include <iostream>

#include "baselines/icp.hpp"
#include "bench_common.hpp"

namespace {

using namespace bba;

struct VariantResult {
  std::string name;
  int accurate = 0;   // < 1 m and < 1 deg
  int usable = 0;     // < 2 m
  int total = 0;
  std::vector<double> terr;
};

VariantResult runVariant(const std::string& name, const BBAlignConfig& cfg,
                         const std::vector<FramePair>& pairs) {
  VariantResult out;
  out.name = name;
  const BBAlign aligner(cfg);
  Rng rng(42);
  for (const auto& pair : pairs) {
    const auto ev = evaluatePair(aligner, pair, rng);
    ++out.total;
    out.terr.push_back(ev.error.translation);
    out.accurate +=
        ev.error.translation < 1.0 && ev.error.rotationDeg < 1.0;
    out.usable += ev.error.translation < 2.0;
  }
  std::cerr << "  " << name << " done\n";
  return out;
}

}  // namespace

int main() {
  using namespace bba;
  bench::printHeader(std::cout, "Design ablations",
                     "each BB-Align design choice, toggled on a common pool");

  const int n = bench::pairCount(40);
  const DatasetGenerator generator(bench::standardConfig(777));
  std::vector<FramePair> pairs;
  for (int i = 0; i < n && static_cast<int>(pairs.size()) < n; ++i) {
    if (auto p = generator.generatePair(i)) pairs.push_back(std::move(*p));
  }
  std::cerr << pairs.size() << " pairs\n";

  std::vector<VariantResult> results;

  {
    BBAlignConfig cfg;  // defaults: height map, FixedAngle, BvDense, Auto
    results.push_back(runVariant("default (paper config)", cfg, pairs));
  }
  {
    BBAlignConfig cfg;
    cfg.descriptor.rotationMode = RotationMode::PerKeypoint;
    results.push_back(runVariant("per-keypoint rotation (BVFT)", cfg, pairs));
  }
  {
    BBAlignConfig cfg;
    cfg.descriptor.rotationMode = RotationMode::None;
    results.push_back(runVariant("no rotation invariance", cfg, pairs));
  }
  {
    BBAlignConfig cfg;
    cfg.keypointSurface = BBAlignConfig::KeypointSurface::Amplitude;
    results.push_back(runVariant("keypoints: amplitude maxima", cfg, pairs));
  }
  {
    BBAlignConfig cfg;
    cfg.keypointSurface = BBAlignConfig::KeypointSurface::BvFast;
    results.push_back(
        runVariant("keypoints: FAST-9 on BV (ORB-like)", cfg, pairs));
  }
  {
    BBAlignConfig cfg;
    cfg.stage2Mode = BBAlignConfig::Stage2Mode::Rigid;
    results.push_back(runVariant("stage 2: rigid", cfg, pairs));
  }
  {
    BBAlignConfig cfg;
    cfg.stage2Mode = BBAlignConfig::Stage2Mode::TranslationOnly;
    results.push_back(runVariant("stage 2: translation-only", cfg, pairs));
  }
  {
    BBAlignConfig cfg;
    cfg.enableBoxAlignment = false;
    cfg.bvIcpPolish = false;
    results.push_back(runVariant("stage 1 only, no polish", cfg, pairs));
  }

  // (d) classical ICP from identity (no prior pose, like BB-Align).
  {
    VariantResult icp;
    icp.name = "2-D ICP from identity (baseline)";
    for (const auto& pair : pairs) {
      const IcpResult r =
          icp2d(pair.otherCloud, pair.egoCloud, Pose2::identity());
      const PoseError e = poseError(r.transform, pair.gtOtherToEgo);
      ++icp.total;
      icp.terr.push_back(e.translation);
      icp.accurate += e.translation < 1.0 && e.rotationDeg < 1.0;
      icp.usable += e.translation < 2.0;
    }
    std::cerr << "  icp done\n";
    results.push_back(std::move(icp));
  }

  Table t({"variant", "n", "acc (<1m & <1deg)", "usable (<2m)",
           "median terr (m)"});
  for (auto& r : results) {
    t.addRow({r.name, std::to_string(r.total),
              fmt(static_cast<double>(r.accurate) / std::max(r.total, 1), 2),
              fmt(static_cast<double>(r.usable) / std::max(r.total, 1), 2),
              fmt(percentile(r.terr, 50.0), 2)});
  }
  t.print(std::cout);
  return 0;
}
