// Visual debugging: dump every stage-1 intermediate of one frame pair as
// PGM images (the reproduction of the paper's Fig. 4 walk-through).
//
//   ./build/examples/example_visualize_pipeline [outDir]
//
// Produces, for each car: the BV height image (Fig. 4 b/e), the MIM
// (Fig. 4 c/f) and the Log-Gabor amplitude surface, plus the other car's
// BV structure warped into the ego frame by the recovered pose — aligned
// structure means the recovery worked (Fig. 4 g's message).
#include <iostream>
#include <string>

#include "common/pgm.hpp"
#include "core/bb_align.hpp"
#include "dataset/generator.hpp"

int main(int argc, char** argv) {
  using namespace bba;
  const std::string outDir = argc > 1 ? argv[1] : "/tmp";

  DatasetConfig dataCfg;
  dataCfg.seed = 20;
  dataCfg.minSeparation = 35.0;
  dataCfg.maxSeparation = 45.0;
  const DatasetGenerator generator(dataCfg);
  const auto pair = generator.generatePair(0);
  if (!pair) {
    std::cerr << "scene generation failed\n";
    return 1;
  }

  const BBAlign aligner;
  const CarPerceptionData ego =
      aligner.makeCarData(pair->egoCloud, pair->egoDets);
  const CarPerceptionData other =
      aligner.makeCarData(pair->otherCloud, pair->otherDets);

  const auto dump = [&](const CarPerceptionData& d, const std::string& tag) {
    const MimResult mim = aligner.computeImageMim(d.bvImage);
    writePgm(d.bvImage, outDir + "/" + tag + "_bv.pgm", 1.0f);
    writePgm(mim.totalAmplitude, outDir + "/" + tag + "_amplitude.pgm");
    writeIndexPgm(mim.mim, mim.numOrientations,
                  outDir + "/" + tag + "_mim.pgm");
  };
  dump(ego, "ego");
  dump(other, "other");

  Rng rng(7);
  const PoseRecoveryResult r = aligner.recover(other, ego, rng);
  const PoseError err = poseError(r.estimate, pair->gtOtherToEgo);
  std::cout << "recovered pose error: " << err.translation << " m / "
            << err.rotationDeg << " deg (success="
            << (r.success ? "yes" : "no") << ")\n";

  // Overlay: ego structure at half intensity + the other car's structure
  // warped by the recovered transform at full intensity.
  const BevParams& bev = aligner.config().bev;
  ImageF overlay = ego.bvImage;
  for (float& v : overlay.data()) v *= 0.5f;
  for (int y = 0; y < other.bvImage.height(); ++y) {
    for (int x = 0; x < other.bvImage.width(); ++x) {
      if (other.bvImage(x, y) <= 0.02f) continue;
      const Vec2 m = r.estimate.apply(
          bev.toMeters(Vec2{static_cast<double>(x), static_cast<double>(y)}));
      const Vec2 px = bev.toPixel(m);
      const int u = static_cast<int>(std::lround(px.x));
      const int v = static_cast<int>(std::lround(px.y));
      if (overlay.inBounds(u, v)) overlay(u, v) = 1.0f;
    }
  }
  writePgm(overlay, outDir + "/aligned_overlay.pgm", 1.0f);

  std::cout << "wrote ego_/other_{bv,amplitude,mim}.pgm and "
               "aligned_overlay.pgm to "
            << outDir << "\n";
  return 0;
}
