// match module: descriptor matching and all RANSAC variants.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "match/matcher.hpp"
#include "match/ransac.hpp"

namespace bba {
namespace {

DescriptorSet makeSet(const std::vector<std::vector<float>>& descs) {
  std::vector<Keypoint> kps(descs.size());
  for (std::size_t i = 0; i < kps.size(); ++i) {
    kps[i].px = {static_cast<double>(i), 0.0};
  }
  // grid=1, numOrientations = descriptor length (flip becomes identity).
  return DescriptorSet(kps, descs, 1,
                       static_cast<int>(descs.empty() ? 0 : descs[0].size()));
}

TEST(Matcher, FindsExactCorrespondences) {
  const DescriptorSet a =
      makeSet({{1, 0, 0}, {0, 1, 0}, {0, 0, 1}});
  const DescriptorSet b =
      makeSet({{0, 1, 0}, {0, 0, 1}, {1, 0, 0}});
  MatchParams prm;
  prm.topK = 1;
  prm.useFlipped = false;
  prm.mutualCheck = true;
  const auto matches = matchDescriptors(a, b, prm);
  ASSERT_EQ(matches.size(), 3u);
  for (const auto& m : matches) {
    EXPECT_EQ((m.srcIndex + 2) % 3, m.dstIndex % 3);
    EXPECT_NEAR(m.distance, 0.0f, 1e-6f);
  }
}

TEST(Matcher, TopKReturnsMultipleCandidates) {
  const DescriptorSet a = makeSet({{1, 0, 0, 0}});
  const DescriptorSet b =
      makeSet({{1, 0, 0, 0}, {0.9f, 0.1f, 0, 0}, {0, 0, 1, 0}});
  MatchParams prm;
  prm.topK = 2;
  prm.useFlipped = false;
  const auto matches = matchDescriptors(a, b, prm);
  ASSERT_EQ(matches.size(), 2u);
  EXPECT_EQ(matches[0].dstIndex, 0);
  EXPECT_EQ(matches[1].dstIndex, 1);
  EXPECT_LE(matches[0].distance, matches[1].distance);
}

TEST(Matcher, RatioTestPrunesAmbiguous) {
  // Two nearly identical destinations: ratio test must reject.
  const DescriptorSet a = makeSet({{1, 0}});
  const DescriptorSet amb = makeSet({{1, 0.01f}, {1, -0.01f}});
  MatchParams prm;
  prm.topK = 1;
  prm.ratio = 0.8f;
  prm.useFlipped = false;
  prm.mutualCheck = false;
  EXPECT_TRUE(matchDescriptors(a, amb, prm).empty());
  // A distinctive destination passes.
  const DescriptorSet good = makeSet({{1, 0}, {0, 1}});
  EXPECT_EQ(matchDescriptors(a, good, prm).size(), 1u);
}

TEST(Matcher, EmptyInputs) {
  const DescriptorSet empty;
  const DescriptorSet one = makeSet({{1, 0}});
  EXPECT_TRUE(matchDescriptors(empty, one, {}).empty());
  EXPECT_TRUE(matchDescriptors(one, empty, {}).empty());
}

/// `n` descriptors on a 2x2 grid with 4 orientations whose entries take
/// only the values {0, 0.5, 1}, so equal distances are common, and where
/// every third descriptor repeats an earlier one, so whole rows tie.
DescriptorSet tiedGridSet(int n, std::uint64_t seed) {
  constexpr int kGrid = 2;
  constexpr int kOrientations = 4;
  Rng rng(seed);
  std::vector<std::vector<float>> descs;
  for (int i = 0; i < n; ++i) {
    if (i % 3 == 2) {
      std::vector<float> repeat =
          descs[static_cast<std::size_t>(rng.uniformInt(0, i - 1))];
      descs.push_back(std::move(repeat));
      continue;
    }
    std::vector<float> d(kGrid * kGrid * kOrientations);
    for (float& v : d) v = 0.5f * static_cast<float>(rng.uniformInt(0, 2));
    descs.push_back(std::move(d));
  }
  std::vector<Keypoint> kps(descs.size());
  for (std::size_t i = 0; i < kps.size(); ++i)
    kps[i].px = {static_cast<double>(i), 0.0};
  return DescriptorSet(kps, descs, kGrid, kOrientations);
}

std::vector<Match> matchAt(int threads, const DescriptorSet& src,
                           const DescriptorSet& dst, const MatchParams& prm) {
  ThreadLimit limit(threads);
  return matchDescriptors(src, dst, prm);
}

void expectSameMatches(const std::vector<Match>& a,
                       const std::vector<Match>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t m = 0; m < a.size(); ++m) {
    EXPECT_EQ(a[m].srcIndex, b[m].srcIndex) << m;
    EXPECT_EQ(a[m].dstIndex, b[m].dstIndex) << m;
    EXPECT_EQ(std::memcmp(&a[m].distance, &b[m].distance, sizeof(float)), 0)
        << m;
  }
}

TEST(Matcher, RowParallelMatchesAreIdenticalAt1And8Threads) {
  // 70 source rows span 5 row chunks; duplicated rows tie across chunks.
  const DescriptorSet src = tiedGridSet(70, 11);
  const DescriptorSet dst = tiedGridSet(50, 12);

  const MatchParams defaults;
  const std::vector<Match> serial = matchAt(1, src, dst, defaults);
  EXPECT_EQ(serial.size(), src.size() * 2);  // topK = 2, no pruning
  expectSameMatches(serial, matchAt(8, src, dst, defaults));

  MatchParams mutual;
  mutual.topK = 1;
  mutual.mutualCheck = true;
  const std::vector<Match> mutualSerial = matchAt(1, src, dst, mutual);
  EXPECT_FALSE(mutualSerial.empty());
  expectSameMatches(mutualSerial, matchAt(8, src, dst, mutual));
}

TEST(Matcher, MutualCheckKeepsFirstMinimalRowAcrossChunks) {
  // Reference: one serial sweep per side, ties to the lowest index. Each
  // destination's best source is merged from per-chunk partials, so a tie
  // between rows in different chunks must still go to the first row.
  const DescriptorSet src = tiedGridSet(70, 21);
  const DescriptorSet dst = tiedGridSet(50, 22);
  MatchParams prm;
  prm.topK = 1;
  prm.mutualCheck = true;

  const auto dist = [&](std::size_t i, std::size_t j) {
    return std::min(descriptorDistance2(src.descriptor(i), dst.descriptor(j)),
                    descriptorDistance2(src.flipped(i), dst.descriptor(j)));
  };
  std::vector<int> bestDst(src.size(), -1);
  std::vector<int> bestSrc(dst.size(), -1);
  std::vector<float> bestSrcD(dst.size(),
                              std::numeric_limits<float>::infinity());
  for (std::size_t i = 0; i < src.size(); ++i) {
    float bestD = std::numeric_limits<float>::infinity();
    for (std::size_t j = 0; j < dst.size(); ++j) {
      const float d = dist(i, j);
      if (d < bestD) {
        bestD = d;
        bestDst[i] = static_cast<int>(j);
      }
      if (d < bestSrcD[j]) {
        bestSrcD[j] = d;
        bestSrc[j] = static_cast<int>(i);
      }
    }
  }
  std::vector<std::pair<int, int>> expected;
  for (std::size_t i = 0; i < src.size(); ++i) {
    const int j = bestDst[i];
    if (bestSrc[static_cast<std::size_t>(j)] == static_cast<int>(i))
      expected.emplace_back(static_cast<int>(i), j);
  }

  for (int threads : {1, 8}) {
    const std::vector<Match> got = matchAt(threads, src, dst, prm);
    std::vector<std::pair<int, int>> pairs;
    for (const Match& m : got) pairs.emplace_back(m.srcIndex, m.dstIndex);
    EXPECT_EQ(pairs, expected) << threads << " threads";
  }
}

class RansacOutliers : public ::testing::TestWithParam<double> {};

TEST_P(RansacOutliers, RecoversUnderOutlierFraction) {
  const double outlierFrac = GetParam();
  Rng rng(42);
  const Pose2 truth{Vec2{7, -3}, 0.6};
  std::vector<Vec2> src, dst;
  for (int i = 0; i < 300; ++i) {
    const Vec2 p{rng.uniform(-50, 50), rng.uniform(-50, 50)};
    src.push_back(p);
    if (rng.bernoulli(outlierFrac)) {
      dst.push_back({rng.uniform(-50, 50), rng.uniform(-50, 50)});
    } else {
      dst.push_back(truth.apply(p) +
                    Vec2{rng.normal(0, 0.1), rng.normal(0, 0.1)});
    }
  }
  RansacParams prm;
  prm.iterations = 4000;
  prm.inlierThreshold = 0.5;
  const RansacResult r = ransacRigid2D(src, dst, prm, rng);
  ASSERT_TRUE(r.ok);
  EXPECT_LT((r.transform.t - truth.t).norm(), 0.1);
  EXPECT_LT(angularDistance(r.transform.theta, truth.theta), 0.01);
}

INSTANTIATE_TEST_SUITE_P(Fractions, RansacOutliers,
                         ::testing::Values(0.0, 0.3, 0.6, 0.8));

TEST(Ransac, FailsGracefullyOnPureNoise) {
  Rng rng(1);
  std::vector<Vec2> src, dst;
  for (int i = 0; i < 40; ++i) {
    src.push_back({rng.uniform(-100, 100), rng.uniform(-100, 100)});
    dst.push_back({rng.uniform(-100, 100), rng.uniform(-100, 100)});
  }
  RansacParams prm;
  prm.inlierThreshold = 0.1;
  prm.minInliers = 10;
  const RansacResult r = ransacRigid2D(src, dst, prm, rng);
  EXPECT_FALSE(r.ok);
}

TEST(Ransac, TooFewPoints) {
  Rng rng(2);
  std::vector<Vec2> one{{1, 1}};
  const RansacResult r = ransacRigid2D(one, one, {}, rng);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.inlierCount, 0);
}

TEST(Ransac, OrientationGateRejectsMismatchedOrientations) {
  Rng rng(3);
  const Pose2 truth{Vec2{5, 5}, 0.0};
  std::vector<Vec2> src, dst;
  std::vector<double> srcO, dstO;
  for (int i = 0; i < 100; ++i) {
    const Vec2 p{rng.uniform(-30, 30), rng.uniform(-30, 30)};
    src.push_back(p);
    dst.push_back(truth.apply(p));
    srcO.push_back(0.3);
    // Half the matches carry inconsistent orientations.
    dstO.push_back(i % 2 == 0 ? 0.3 : 1.4);
  }
  RansacParams prm;
  prm.orientationToleranceRad = 0.2;
  const RansacResult r = ransacRigid2D(src, dst, prm, rng, srcO, dstO);
  ASSERT_TRUE(r.ok);
  // Only the orientation-consistent half counts as inliers.
  EXPECT_NEAR(r.inlierCount, 50, 2);
}

TEST(Ransac, ThetaPriorRestrictsHypotheses) {
  Rng rng(4);
  const Pose2 truth{Vec2{2, 1}, 1.0};
  std::vector<Vec2> src, dst;
  for (int i = 0; i < 60; ++i) {
    const Vec2 p{rng.uniform(-30, 30), rng.uniform(-30, 30)};
    src.push_back(p);
    dst.push_back(truth.apply(p));
  }
  RansacParams prm;
  prm.thetaPriorModPi = 1.0;
  prm.thetaPriorTolerance = 0.1;
  EXPECT_TRUE(ransacRigid2D(src, dst, prm, rng).ok);
  // A prior far from the truth rejects every hypothesis.
  prm.thetaPriorModPi = 2.3;
  EXPECT_FALSE(ransacRigid2D(src, dst, prm, rng).ok);
}

TEST(Ransac, MaxTranslationBound) {
  Rng rng(5);
  const Pose2 truth{Vec2{20, 0}, 0.0};
  std::vector<Vec2> src, dst;
  for (int i = 0; i < 60; ++i) {
    const Vec2 p{rng.uniform(-30, 30), rng.uniform(-30, 30)};
    src.push_back(p);
    dst.push_back(truth.apply(p));
  }
  RansacParams prm;
  prm.maxTranslationNorm = 5.0;  // truth is 20 m: must refuse
  EXPECT_FALSE(ransacRigid2D(src, dst, prm, rng).ok);
  prm.maxTranslationNorm = 50.0;
  EXPECT_TRUE(ransacRigid2D(src, dst, prm, rng).ok);
}

std::uint64_t bitsOf(double v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

TEST(Ransac, TiedConsensusSetsKeepFirstBestHypothesis) {
  // Two noise-free consensus sets of equal size, interleaved: even indices
  // follow poseA, odd ones poseB. Every hypothesis drawn inside either set
  // scores the same 20 inliers, so the winner is the first of them in
  // iteration order — set A under one seed, set B under the other — and a
  // later chunk's tie must never displace it. refineRounds = 0 returns the
  // winning hypothesis as drawn, so its pinned bits name the iteration
  // that won.
  const Pose2 poseA{Vec2{6, -2}, 0.4};
  const Pose2 poseB{Vec2{-9, 4}, -0.7};
  Rng gen(99);
  std::vector<Vec2> src, dst;
  for (int i = 0; i < 40; ++i) {
    const Vec2 p{gen.uniform(-30, 30), gen.uniform(-30, 30)};
    src.push_back(p);
    dst.push_back((i % 2 == 0 ? poseA : poseB).apply(p));
  }
  RansacParams prm;
  prm.iterations = 2000;  // 8 chunks of hypotheses
  prm.inlierThreshold = 0.5;
  prm.refineRounds = 0;

  struct Pinned {
    std::uint64_t seed;
    int firstInlier;  // 0: set A won, 1: set B won
    std::uint64_t x, y, theta;
  };
  const Pinned cases[] = {
      {4, 0, 0x4017fffffffffffc, 0xc00000000000000c, 0x3fd99999999999a0},
      {7, 1, 0xc021fffffffffffd, 0x4010000000000000, 0xbfe6666666666664},
  };
  for (const Pinned& c : cases) {
    std::vector<int> set;
    for (int i = c.firstInlier; i < 40; i += 2) set.push_back(i);
    for (int threads : {1, 8}) {
      SCOPED_TRACE(::testing::Message()
                   << "seed " << c.seed << ", " << threads << " threads");
      ThreadLimit limit(threads);
      Rng rng(c.seed);
      const RansacResult r = ransacRigid2D(src, dst, prm, rng);
      ASSERT_TRUE(r.ok);
      EXPECT_EQ(bitsOf(r.transform.t.x), c.x);
      EXPECT_EQ(bitsOf(r.transform.t.y), c.y);
      EXPECT_EQ(bitsOf(r.transform.theta), c.theta);
      EXPECT_EQ(r.inlierIndices, set);
    }
  }
}

TEST(RansacTranslation, RecoversPureTranslationUnderOutliers) {
  Rng rng(6);
  const Vec2 t{1.5, -2.5};
  std::vector<Vec2> src, dst;
  for (int i = 0; i < 100; ++i) {
    const Vec2 p{rng.uniform(-30, 30), rng.uniform(-30, 30)};
    src.push_back(p);
    dst.push_back(rng.bernoulli(0.4)
                      ? Vec2{rng.uniform(-30, 30), rng.uniform(-30, 30)}
                      : p + t + Vec2{rng.normal(0, 0.05),
                                     rng.normal(0, 0.05)});
  }
  RansacParams prm;
  prm.inlierThreshold = 0.3;
  const RansacResult r = ransacTranslation2D(src, dst, prm, rng);
  ASSERT_TRUE(r.ok);
  EXPECT_NEAR(r.transform.theta, 0.0, 1e-12);
  EXPECT_LT((r.transform.t - t).norm(), 0.1);
}

TEST(RansacVerified, VerifierOverridesInlierCount) {
  // Two consistent clusters: the larger supports a wrong transform, the
  // smaller the true one. A verifier that knows the truth must win.
  Rng rng(7);
  const Pose2 truth{Vec2{3, 0}, 0.0};
  const Pose2 impostor{Vec2{-8, 2}, 0.0};
  std::vector<Vec2> src, dst;
  for (int i = 0; i < 20; ++i) {  // true cluster
    const Vec2 p{rng.uniform(-30, 30), rng.uniform(-30, 30)};
    src.push_back(p);
    dst.push_back(truth.apply(p));
  }
  for (int i = 0; i < 60; ++i) {  // impostor cluster (more support!)
    const Vec2 p{rng.uniform(-30, 30), rng.uniform(-30, 30)};
    src.push_back(p);
    dst.push_back(impostor.apply(p));
  }
  RansacParams prm;
  prm.inlierThreshold = 0.5;
  prm.minInliers = 4;

  // Plain RANSAC picks the impostor.
  const RansacResult plain = ransacRigid2D(src, dst, prm, rng);
  EXPECT_LT((plain.transform.t - impostor.t).norm(), 0.5);

  // Verified RANSAC follows the verifier.
  const auto verifier = [&](const Pose2& T) {
    return -((T.t - truth.t).norm() + angularDistance(T.theta, truth.theta));
  };
  const VerifiedRansacResult v =
      ransacRigid2DVerified(src, dst, prm, rng, verifier);
  ASSERT_TRUE(v.ransac.ok);
  EXPECT_LT((v.ransac.transform.t - truth.t).norm(), 0.5);
}

TEST(RefineRigid2D, PolishesApproximateTransform) {
  Rng rng(8);
  const Pose2 truth{Vec2{4, 4}, 0.5};
  std::vector<Vec2> src, dst;
  for (int i = 0; i < 80; ++i) {
    const Vec2 p{rng.uniform(-30, 30), rng.uniform(-30, 30)};
    src.push_back(p);
    dst.push_back(truth.apply(p) +
                  Vec2{rng.normal(0, 0.05), rng.normal(0, 0.05)});
  }
  const Pose2 rough{Vec2{4.4, 3.7}, 0.52};
  RansacParams prm;
  prm.inlierThreshold = 1.0;
  const RansacResult r = refineRigid2D(rough, src, dst, prm);
  ASSERT_TRUE(r.ok);
  EXPECT_LT((r.transform.t - truth.t).norm(), 0.05);
  EXPECT_EQ(r.inlierCount, 80);
}

}  // namespace
}  // namespace bba
