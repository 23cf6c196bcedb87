// features module: MIM orientation behaviour, keypoint detectors,
// descriptor invariances, global-yaw estimation.
#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "common/rng.hpp"
#include "features/descriptor.hpp"
#include "features/fast.hpp"
#include "features/mim.hpp"
#include "geom/pose2.hpp"

namespace bba {
namespace {

/// Draw an anti-aliased line through the image center at `angle`.
/// (Nearest-pixel rasterization produces a staircase of axis-aligned runs
/// that genuinely biases orientation estimates toward 0/90 degrees.)
ImageF lineImage(int n, double angle, float value = 1.0f) {
  ImageF img(n, n, 0.0f);
  const double c = std::cos(angle), s = std::sin(angle);
  for (double k = -n / 2.0 + 6; k < n / 2.0 - 6; k += 0.25) {
    const double fx = n / 2.0 + c * k;
    const double fy = n / 2.0 + s * k;
    const int x0 = static_cast<int>(std::floor(fx));
    const int y0 = static_cast<int>(std::floor(fy));
    for (int dy = 0; dy <= 1; ++dy) {
      for (int dx = 0; dx <= 1; ++dx) {
        const int x = x0 + dx, y = y0 + dy;
        if (!img.inBounds(x, y)) continue;
        const double w = (1.0 - std::abs(fx - x)) * (1.0 - std::abs(fy - y));
        img(x, y) = std::min(1.0f, img(x, y) +
                                       value * static_cast<float>(w * 0.5));
      }
    }
  }
  return img;
}

/// Scatter of discs used as rotation-test content. Discs are isotropic, so
/// rigidly moving their centers produces a *consistently* rotated image
/// (every local edge tangent rotates along), unlike axis-aligned squares.
ImageF blobImage(int n, const Pose2& T, Rng rngSeeded) {
  ImageF img(n, n, 0.0f);
  for (int i = 0; i < 40; ++i) {
    const Vec2 base{rngSeeded.uniform(-n / 3.0, n / 3.0),
                    rngSeeded.uniform(-n / 3.0, n / 3.0)};
    const Vec2 p = T.apply(base) + Vec2{n / 2.0, n / 2.0};
    const double r = 1.6 + 1.4 * ((i * 37) % 5) / 4.0;  // varied radii
    for (int dy = -4; dy <= 4; ++dy)
      for (int dx = -4; dx <= 4; ++dx) {
        if (dx * dx + dy * dy > r * r) continue;
        const int x = static_cast<int>(p.x) + dx;
        const int y = static_cast<int>(p.y) + dy;
        if (img.inBounds(x, y)) img(x, y) = 1.0f;
      }
  }
  return img;
}

class MimLineAngles : public ::testing::TestWithParam<double> {};

TEST_P(MimLineAngles, RecoversLineOrientation) {
  const double angleDeg = GetParam();
  const int n = 128;
  const LogGaborBank bank(n, n);
  const ImageF img = lineImage(n, angleDeg * kDegToRad);
  const MimResult mim = computeMim(img, bank);
  // At the center pixel, continuous orientation ~ line angle (mod pi).
  double got = mim.orientation(n / 2, n / 2);
  double want = std::fmod(angleDeg * kDegToRad, std::numbers::pi);
  if (want < 0) want += std::numbers::pi;
  double diff = std::abs(got - want);
  diff = std::min(diff, std::numbers::pi - diff);
  EXPECT_LT(diff * kRadToDeg, 8.0) << "angle " << angleDeg;
}

INSTANTIATE_TEST_SUITE_P(Angles, MimLineAngles,
                         ::testing::Values(0.0, 20.0, 45.0, 77.5, 90.0,
                                           120.0, 160.0));

TEST(Mim, AmplitudeConcentratesOnStructure) {
  const int n = 128;
  const LogGaborBank bank(n, n);
  const ImageF img = lineImage(n, 0.3);
  const MimResult mim = computeMim(img, bank);
  // Amplitude on the line far exceeds amplitude in an empty corner.
  EXPECT_GT(mim.totalAmplitude(n / 2, n / 2),
            10.0f * mim.totalAmplitude(8, n - 8));
}

TEST(GlobalYaw, RecoversRotationBetweenImages) {
  const int n = 128;
  const LogGaborBank bank(n, n);
  const auto withLines = [&](double rot) {
    // Two distinct line directions give the orientation histogram sharp,
    // unambiguous peaks (like building walls + road edges do).
    ImageF img = blobImage(n, Pose2{Vec2{}, rot}, Rng(77));
    for (const double base : {0.2, 1.1}) {
      const ImageF l = lineImage(n, base + rot);
      for (std::size_t k = 0; k < img.data().size(); ++k)
        img.data()[k] = std::max(img.data()[k], l.data()[k]);
    }
    return img;
  };
  const ImageF a = withLines(0.0);
  const MimResult mimA = computeMim(a, bank);
  for (const double rotDeg : {0.0, 10.0, 30.0, 60.0}) {
    // b's content = a's rotated by +rot, so the other->ego (b->a) rotation
    // the estimator reports is -rot (mod pi).
    const ImageF b = withLines(rotDeg * kDegToRad);
    const MimResult mimB = computeMim(b, bank);
    const auto cands = globalYawCandidates(mimA, mimB, 4);
    double best = 1e9;
    for (double c : cands) {
      double d = std::abs(c - (-rotDeg * kDegToRad));
      d = std::fmod(std::abs(d), std::numbers::pi);
      d = std::min(d, std::numbers::pi - d);
      best = std::min(best, d);
    }
    EXPECT_LT(best * kRadToDeg, 8.0) << "rot " << rotDeg;
  }
}

TEST(BlockMaxima, AnchorsToBrightPixels) {
  ImageF img(64, 64, 0.0f);
  img(20, 30) = 0.9f;
  img(40, 12) = 0.5f;
  img(41, 12) = 0.7f;  // same block or adjacent: brightest survives
  const auto kps = detectBlockMaxima(img, BlockMaxParams{.threshold = 0.1f});
  ASSERT_GE(kps.size(), 2u);
  EXPECT_DOUBLE_EQ(kps[0].px.x, 20);
  EXPECT_DOUBLE_EQ(kps[0].px.y, 30);
  bool found41 = false;
  for (const auto& k : kps) {
    if (k.px.x == 41 && k.px.y == 12) found41 = true;
    EXPECT_GE(k.score, 0.1f);
  }
  EXPECT_TRUE(found41);
}

TEST(BlockMaxima, RespectsCapAndBorder) {
  Rng rng(5);
  ImageF img(64, 64, 0.0f);
  for (int i = 0; i < 500; ++i) {
    img(rng.uniformInt(0, 63), rng.uniformInt(0, 63)) =
        static_cast<float>(rng.uniform(0.2, 1.0));
  }
  BlockMaxParams prm;
  prm.maxKeypoints = 20;
  prm.border = 10;
  const auto kps = detectBlockMaxima(img, prm);
  EXPECT_LE(kps.size(), 20u);
  for (const auto& k : kps) {
    EXPECT_GE(k.px.x, 10);
    EXPECT_LT(k.px.x, 54);
  }
  // Sorted by score descending.
  for (std::size_t i = 1; i < kps.size(); ++i)
    EXPECT_GE(kps[i - 1].score, kps[i].score);
}

TEST(Fast, DetectsCornerNotEdge) {
  ImageF img(64, 64, 0.0f);
  // Filled square: corners are FAST corners, edge midpoints are not.
  for (int y = 20; y < 44; ++y)
    for (int x = 20; x < 44; ++x) img(x, y) = 1.0f;
  FastParams prm;
  prm.threshold = 0.3f;
  const auto kps = detectFast(img, prm);
  ASSERT_FALSE(kps.empty());
  bool nearCorner = false;
  for (const auto& k : kps) {
    for (const Vec2 c : {Vec2{20, 20}, Vec2{43, 20}, Vec2{20, 43},
                         Vec2{43, 43}}) {
      if ((k.px - c).norm() < 3.0) nearCorner = true;
    }
    // No keypoint at the middle of an edge.
    EXPECT_GT((k.px - Vec2{32, 20}).norm(), 2.0);
  }
  EXPECT_TRUE(nearCorner);
}

TEST(LocalMaxima, FindsIsolatedPeaks) {
  ImageF img(32, 32, 0.0f);
  img(12, 12) = 1.0f;
  img(20, 25) = 0.8f;
  const auto kps = detectLocalMaxima(img, LocalMaxParams{.border = 2});
  ASSERT_EQ(kps.size(), 2u);
  EXPECT_DOUBLE_EQ(kps[0].px.x, 12);
}

TEST(Descriptor, SelfMatchIsExact) {
  const int n = 128;
  const LogGaborBank bank(n, n);
  const ImageF img = blobImage(n, Pose2::identity(), Rng(9));
  const MimResult mim = computeMim(img, bank);
  const auto kps = detectBlockMaxima(img, BlockMaxParams{.threshold = 0.1f});
  const DescriptorSet set = computeDescriptors(mim, kps);
  ASSERT_GT(set.size(), 5u);
  for (std::size_t i = 0; i < set.size(); ++i) {
    EXPECT_NEAR(descriptorDistance2(set.descriptor(i), set.descriptor(i)),
                0.0f, 1e-12f);
    // Unit norm (Hellinger-normalized).
    float norm = 0;
    for (float v : set.descriptor(i)) norm += v * v;
    EXPECT_NEAR(norm, 1.0f, 1e-4f);
  }
}

TEST(Descriptor, FlippedIsNormPreservingPermutation) {
  const int n = 128;
  const LogGaborBank bank(n, n);
  const ImageF img = blobImage(n, Pose2::identity(), Rng(10));
  const MimResult mim = computeMim(img, bank);
  const auto kps = detectBlockMaxima(img, BlockMaxParams{.threshold = 0.1f});
  const DescriptorSet set = computeDescriptors(mim, kps);
  ASSERT_FALSE(set.empty());
  const auto dim = static_cast<std::size_t>(set.dimension());
  const std::vector<float> flipBlock = set.flippedBlock();
  ASSERT_EQ(flipBlock.size(), set.size() * dim);
  const std::vector<float> flip(flipBlock.begin(), flipBlock.begin() + dim);
  float n1 = 0, n2 = 0;
  for (float v : set.descriptor(0)) n1 += v * v;
  for (float v : flip) n2 += v * v;
  EXPECT_NEAR(n1, n2, 1e-6f);
  // Double flip = identity: check via sorted-values equality.
  std::vector<float> a(set.descriptor(0).begin(), set.descriptor(0).end());
  auto b = flip;
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  EXPECT_EQ(a, b);
}

TEST(Descriptor, FixedAngleMatchesRotatedContent) {
  // Image B = image A rotated by q around the center. Descriptors of
  // corresponding keypoints, computed with fixedAngle 0 (A) and -q (B),
  // must be close — the core of BB-Align's global-yaw design.
  const int n = 128;
  const double q = 25.0 * kDegToRad;
  const LogGaborBank bank(n, n);
  const auto content = [&](double rot) {
    // Discs + two line directions: distinctive, physically consistent
    // under rotation.
    ImageF img = blobImage(n, Pose2{Vec2{}, rot}, Rng(11));
    for (const double base : {0.35, 1.25}) {
      const ImageF l = lineImage(n, base + rot);
      for (std::size_t k = 0; k < img.data().size(); ++k)
        img.data()[k] = std::max(img.data()[k], l.data()[k]);
    }
    return img;
  };
  const ImageF a = content(0.0);
  const ImageF b = content(q);
  const MimResult mimA = computeMim(a, bank);
  const MimResult mimB = computeMim(b, bank);

  // Keep only keypoints well inside the patch margin so none are dropped
  // by computeDescriptors and indices stay aligned between the two sets.
  std::vector<Keypoint> kpsA;
  for (const auto& k :
       detectBlockMaxima(a, BlockMaxParams{.threshold = 0.1f})) {
    if ((k.px - Vec2{n / 2.0, n / 2.0}).norm() < 26.0) kpsA.push_back(k);
  }
  // Corresponding keypoints in B: rotate A's keypoints about the center.
  std::vector<Keypoint> kpsB;
  for (const auto& k : kpsA) {
    Keypoint kb = k;
    kb.px = Vec2{n / 2.0, n / 2.0} +
            (k.px - Vec2{n / 2.0, n / 2.0}).rotated(q);
    kpsB.push_back(kb);
  }
  // B's content = A's rotated by +q, so the B->A rotation is -q and B's
  // patches must be sampled with fixedAngle = -(-q) = +q.
  const DescriptorSet setA = computeDescriptors(mimA, kpsA, 0.0);
  const DescriptorSet setB = computeDescriptors(mimB, kpsB, q);
  ASSERT_GT(setA.size(), 5u);

  // Corresponding descriptors must be systematically closer than
  // non-corresponding ones, and for a healthy fraction of keypoints the
  // true counterpart must be the nearest neighbour (the self-similar disc
  // content keeps absolute margins modest; geometry verification handles
  // the rest in the pipeline).
  double corr = 0, cross = 0;
  int nc = 0, nx = 0, rank0 = 0;
  const std::size_t m = std::min(setA.size(), setB.size());
  for (std::size_t i = 0; i < m; ++i) {
    const float dTrue =
        descriptorDistance2(setA.descriptor(i), setB.descriptor(i));
    corr += dTrue;
    ++nc;
    bool best = true;
    for (std::size_t j = 0; j < m; ++j) {
      if (j == i) continue;
      const float d =
          descriptorDistance2(setA.descriptor(i), setB.descriptor(j));
      cross += d;
      ++nx;
      if (d < dTrue) best = false;
    }
    rank0 += best;
  }
  ASSERT_GT(nc, 3);
  EXPECT_LT(corr / nc, 0.85 * cross / nx);
  EXPECT_GT(static_cast<double>(rank0) / nc, 0.3);
}

TEST(Descriptor, OrientationRecordedOnKeypoints) {
  const int n = 128;
  const LogGaborBank bank(n, n);
  const ImageF img = lineImage(n, 0.5);
  const MimResult mim = computeMim(img, bank);
  auto kps = detectBlockMaxima(img, BlockMaxParams{.threshold = 0.1f});
  orientKeypoints(mim, kps);
  const DescriptorSet set = computeDescriptors(mim, kps);
  ASSERT_FALSE(set.empty());
  for (std::size_t i = 0; i < set.size(); ++i) {
    double d = std::abs(set.keypoint(i).orientation - 0.5);
    d = std::min(d, std::numbers::pi - d);
    EXPECT_LT(d, 0.25);
  }
}

}  // namespace
}  // namespace bba
