// SIMD determinism: every vectorized kernel must produce BYTE-identical
// results at both dispatched ISA levels (scalar / AVX2). This is the
// determinism contract DESIGN.md promises; every comparison here is on raw
// bits, not within a tolerance.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <span>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"
#include "core/bb_align.hpp"
#include "dataset/generator.hpp"
#include "features/descriptor.hpp"
#include "features/mim.hpp"
#include "obs/trace.hpp"
#include "signal/fft.hpp"
#include "signal/log_gabor.hpp"
#include "stream/pose_tracker.hpp"

namespace bba {
namespace {

/// Restore the process-wide dispatch level on scope exit, whatever the
/// test did to it.
class SimdLevelGuard {
 public:
  SimdLevelGuard() : saved_(simdLevel()) {}
  ~SimdLevelGuard() { setSimdLevel(saved_); }

 private:
  SimdLevel saved_;
};

/// Levels this host can actually dispatch to (setSimdLevel clamps, so
/// requesting an unsupported level would silently re-test a lower one).
std::vector<SimdLevel> dispatchableLevels() {
  std::vector<SimdLevel> levels{SimdLevel::Scalar};
  if (maxSupportedSimdLevel() == SimdLevel::Avx2)
    levels.push_back(SimdLevel::Avx2);
  return levels;
}

template <typename T>
bool bitsEqual(std::span<const T> a, std::span<const T> b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

template <typename T, typename A>
bool bitsEqual(const std::vector<T, A>& a, const std::vector<T, A>& b) {
  return bitsEqual(std::span<const T>(a), std::span<const T>(b));
}

/// The pinned seed-4242 frame pair every identity test runs on: a real
/// generated scene (structure, boxes, two viewpoints), not synthetic
/// noise, so the kernels see production-shaped data.
struct PinnedPair {
  CarPerceptionData ego;
  CarPerceptionData other;
};

const PinnedPair& pinnedPair(const BBAlign& aligner) {
  static const PinnedPair pair = [&] {
    DatasetConfig cfg;
    cfg.seed = 4242;
    const DatasetGenerator gen(cfg);
    const auto p = gen.generatePair(0);
    BBA_ASSERT(p.has_value());
    PinnedPair out;
    out.ego = aligner.makeCarData(p->egoCloud, p->egoDets);
    out.other = aligner.makeCarData(p->otherCloud, p->otherDets);
    return out;
  }();
  return pair;
}

TEST(SimdDispatch, EnvironmentAndOverrideClampToHardware) {
  SimdLevelGuard guard;
  setSimdLevel(SimdLevel::Avx2);
  EXPECT_LE(static_cast<int>(simdLevel()),
            static_cast<int>(maxSupportedSimdLevel()));
  setSimdLevel(SimdLevel::Scalar);
  EXPECT_EQ(simdLevel(), SimdLevel::Scalar);
}

TEST(SimdIdentity, Fft1dBitIdenticalAcrossLevels) {
  SimdLevelGuard guard;
  // A 256-point line as one row (the row pass) and as one column (the
  // column pass).
  for (const bool asRow : {true, false}) {
    Rng rng(4242);
    ComplexImage input(asRow ? 256 : 1, asRow ? 1 : 256);
    for (Complexf& c : input.data())
      c = Complexf(static_cast<float>(rng.uniform(-1.0, 1.0)),
                   static_cast<float>(rng.uniform(-1.0, 1.0)));

    setSimdLevel(SimdLevel::Scalar);
    ComplexImage reference = input;
    fft2d(reference, false);

    for (SimdLevel level : dispatchableLevels()) {
      setSimdLevel(level);
      ComplexImage probe = input;
      fft2d(probe, false);
      EXPECT_TRUE(bitsEqual(probe.data(), reference.data()))
          << toString(level) << (asRow ? " row" : " column");
      // And the inverse returns bit-stable data too.
      fft2d(probe, true);
      setSimdLevel(SimdLevel::Scalar);
      ComplexImage scalarInv = reference;
      fft2d(scalarInv, true);
      EXPECT_TRUE(bitsEqual(probe.data(), scalarInv.data()))
          << toString(level) << (asRow ? " row" : " column");
    }
  }
}

TEST(SimdIdentity, FilteredModuliBitIdenticalAcrossLevels) {
  SimdLevelGuard guard;
  // Whole 8-lane strips, and part strips where an image side is below 8.
  const std::pair<int, int> sizes[] = {
      {4, 4}, {2, 8}, {8, 2}, {16, 16}, {256, 8}};
  for (const auto& [w, h] : sizes) {
    Rng rng(static_cast<std::uint64_t>(4242 + w * 1000 + h));
    ComplexImage spectrum(w, h);
    for (Complexf& c : spectrum.data())
      c = Complexf(static_cast<float>(rng.uniform(-10.0, 10.0)),
                   static_cast<float>(rng.uniform(-10.0, 10.0)));
    std::vector<ImageF> filters(2, ImageF(w, h));
    for (ImageF& f : filters)
      for (float& v : f.data()) v = static_cast<float>(rng.uniform(0.0, 1.0));
    ImageF init(w, h);
    for (float& v : init.data()) v = static_cast<float>(rng.uniform(0.0, 5.0));

    // The unfused steps at the scalar level: multiply into a complex
    // image, inverse fft2d, accumulate sqrt(re*re + im*im).
    setSimdLevel(SimdLevel::Scalar);
    ImageF reference = init;
    for (const ImageF& f : filters) {
      ComplexImage response(w, h);
      for (std::size_t i = 0; i < response.data().size(); ++i)
        response.data()[i] = spectrum.data()[i] * f.data()[i];
      fft2d(response, true);
      for (std::size_t i = 0; i < response.data().size(); ++i) {
        const float re = response.data()[i].real();
        const float im = response.data()[i].imag();
        reference.data()[i] += std::sqrt(re * re + im * im);
      }
    }

    const std::vector<const ImageF*> bank{&filters[0], &filters[1]};
    for (SimdLevel level : dispatchableLevels()) {
      setSimdLevel(level);
      ImageF probe = init;
      accumulateFilteredModuli(spectrum, bank, probe);
      EXPECT_TRUE(bitsEqual(probe.data(), reference.data()))
          << toString(level) << " " << w << "x" << h;
    }
  }
}

TEST(SimdIdentity, MimByteIdenticalAcrossLevels) {
  SimdLevelGuard guard;
  const BBAlign aligner;
  const PinnedPair& pair = pinnedPair(aligner);

  setSimdLevel(SimdLevel::Scalar);
  const MimResult refEgo = aligner.computeImageMim(pair.ego.bvImage);
  const MimResult refOther = aligner.computeImageMim(pair.other.bvImage);

  for (SimdLevel level : dispatchableLevels()) {
    setSimdLevel(level);
    const MimResult ego = aligner.computeImageMim(pair.ego.bvImage);
    const MimResult other = aligner.computeImageMim(pair.other.bvImage);
    EXPECT_TRUE(bitsEqual(ego.mim.data(), refEgo.mim.data()))
        << toString(level);
    EXPECT_TRUE(bitsEqual(ego.peakAmplitude.data(),
                          refEgo.peakAmplitude.data()))
        << toString(level);
    EXPECT_TRUE(bitsEqual(ego.totalAmplitude.data(),
                          refEgo.totalAmplitude.data()))
        << toString(level);
    EXPECT_TRUE(bitsEqual(ego.orientation.data(), refEgo.orientation.data()))
        << toString(level);
    EXPECT_TRUE(bitsEqual(other.mim.data(), refOther.mim.data()))
        << toString(level);
    EXPECT_TRUE(bitsEqual(other.orientation.data(),
                          refOther.orientation.data()))
        << toString(level);
  }
}

TEST(SimdIdentity, DescriptorsByteIdenticalAcrossLevels) {
  SimdLevelGuard guard;
  // A non-trivial fixed angle exercises the rotated-patch coordinate path
  // (the zero-angle path is covered by the MIM/service identity tests).
  const double fixedAngle = 0.37;

  // The production 48-sample patch rows are whole AVX2 blocks; 46-sample
  // rows leave a 2-sample rest for the patch kernel's scalar remainder.
  for (const int patchSize : {48, 46}) {
    BBAlignConfig cfg;
    cfg.descriptor.patchSize = patchSize;
    const BBAlign aligner(cfg);
    const PinnedPair& pair = pinnedPair(aligner);
    // The peer image's pass at fixedAngle, every stage run at the current
    // level.
    const auto describe = [&] {
      const auto feats = aligner.computeEgoFeatures(pair.other);
      return computeDescriptors(feats->mim, feats->keypoints, fixedAngle,
                                cfg.descriptor);
    };

    setSimdLevel(SimdLevel::Scalar);
    const DescriptorSet ref = describe();
    ASSERT_GT(ref.size(), 0u) << "patch " << patchSize;

    for (SimdLevel level : dispatchableLevels()) {
      setSimdLevel(level);
      const DescriptorSet probe = describe();
      ASSERT_EQ(probe.size(), ref.size())
          << toString(level) << " patch " << patchSize;
      for (std::size_t i = 0; i < ref.size(); ++i) {
        EXPECT_TRUE(bitsEqual(probe.descriptor(i), ref.descriptor(i)))
            << toString(level) << " patch " << patchSize << " descriptor "
            << i;
      }
    }
  }
}

TEST(SimdIdentity, DescriptorDistanceBitIdenticalAcrossLevels) {
  SimdLevelGuard guard;
  Rng rng(4242);
  // 192 floats = the production descriptor dimension (4*4 grid x 12
  // orientations), a multiple of the 8-lane block.
  std::vector<float> a(192), b(192), shortA(37), shortB(37);
  for (float& v : a) v = static_cast<float>(rng.uniform(0.0, 1.0));
  for (float& v : b) v = static_cast<float>(rng.uniform(0.0, 1.0));
  for (float& v : shortA) v = static_cast<float>(rng.uniform(0.0, 1.0));
  for (float& v : shortB) v = static_cast<float>(rng.uniform(0.0, 1.0));

  setSimdLevel(SimdLevel::Scalar);
  const float ref = descriptorDistance2(a, b);
  const float refShort = descriptorDistance2(shortA, shortB);

  for (SimdLevel level : dispatchableLevels()) {
    setSimdLevel(level);
    const float d = descriptorDistance2(a, b);
    const float dShort = descriptorDistance2(shortA, shortB);
    EXPECT_EQ(std::memcmp(&d, &ref, sizeof d), 0) << toString(level);
    EXPECT_EQ(std::memcmp(&dShort, &refShort, sizeof dShort), 0)
        << toString(level);
  }
}

TEST(SimdIdentity, EndToEndRecoverByteIdenticalAcrossLevels) {
  SimdLevelGuard guard;
  const BBAlign aligner;
  const PinnedPair& pair = pinnedPair(aligner);

  auto runAt = [&](SimdLevel level) {
    setSimdLevel(level);
    Rng rng(7);
    return aligner.recover(pair.other, pair.ego, rng);
  };

  const PoseRecoveryResult ref = runAt(SimdLevel::Scalar);
  for (SimdLevel level : dispatchableLevels()) {
    const PoseRecoveryResult r = runAt(level);
    EXPECT_EQ(r.success, ref.success) << toString(level);
    EXPECT_EQ(std::memcmp(&r.estimate, &ref.estimate, sizeof r.estimate), 0)
        << toString(level);
    EXPECT_EQ(r.inliersBv, ref.inliersBv) << toString(level);
    EXPECT_EQ(r.inliersBox, ref.inliersBox) << toString(level);
    EXPECT_EQ(r.keypointMatches, ref.keypointMatches) << toString(level);
  }
}

TEST(ImageFeatures, SuppliedRecoverIsByteIdenticalToInline) {
  const BBAlign aligner;
  const PinnedPair& pair = pinnedPair(aligner);

  Rng rngInline(7);
  const PoseRecoveryResult inlineRun =
      aligner.recover(pair.other, pair.ego, rngInline);

  const auto feats = aligner.computeEgoFeatures(pair.ego);
  Rng rngSupplied(7);
  const PoseRecoveryResult suppliedRun = aligner.recover(
      pair.other, pair.ego, rngSupplied, nullptr, nullptr, feats.get());

  EXPECT_EQ(suppliedRun.success, inlineRun.success);
  EXPECT_EQ(std::memcmp(&suppliedRun.estimate, &inlineRun.estimate,
                        sizeof suppliedRun.estimate),
            0);
  EXPECT_EQ(suppliedRun.inliersBv, inlineRun.inliersBv);
  EXPECT_EQ(suppliedRun.inliersBox, inlineRun.inliersBox);
  EXPECT_EQ(suppliedRun.keypointMatches, inlineRun.keypointMatches);
  EXPECT_EQ(suppliedRun.overlapScore, inlineRun.overlapScore);
}

struct MemoRun {
  std::vector<PoseRecoveryResult> results;
  std::vector<PoseRecoveryReport> reports;
  std::vector<long> matchSpans;  ///< matchDescriptors calls per recover()
};

/// Run one recover() per aligner, in order, on the pinned pair from one
/// Rng(7), as a tracker step does. Every call reads `ego` and the peer
/// memo `memo`; where one is null, each call computes that side's
/// features itself under its own config.
MemoRun runSequence(const PinnedPair& pair,
                    const std::vector<const BBAlign*>& aligners,
                    const ImageFeatures* ego, ImageFeatures* memo) {
  MemoRun out;
  Rng rng(7);
  for (const BBAlign* aligner : aligners) {
    PoseRecoveryReport rep;
    obs::TraceRecorder rec;
    obs::installTraceRecorder(&rec);
    out.results.push_back(aligner->recover(pair.other, pair.ego, rng, &rep,
                                           nullptr, ego, memo));
    obs::installTraceRecorder(nullptr);
    out.reports.push_back(rep);
    const std::vector<obs::ExportedEvent> events = rec.events();
    out.matchSpans.push_back(std::count_if(
        events.begin(), events.end(),
        [](const obs::ExportedEvent& e) { return e.name == "match"; }));
  }
  return out;
}

void expectSameRuns(const MemoRun& a, const MemoRun& b) {
  ASSERT_EQ(a.results.size(), b.results.size());
  for (std::size_t i = 0; i < a.results.size(); ++i) {
    const PoseRecoveryResult& ra = a.results[i];
    const PoseRecoveryResult& rb = b.results[i];
    EXPECT_EQ(ra.success, rb.success) << "call " << i;
    EXPECT_EQ(std::memcmp(&ra.estimate, &rb.estimate, sizeof ra.estimate), 0)
        << "call " << i;
    EXPECT_EQ(ra.inliersBv, rb.inliersBv) << "call " << i;
    EXPECT_EQ(ra.inliersBox, rb.inliersBox) << "call " << i;
    EXPECT_EQ(ra.keypointMatches, rb.keypointMatches) << "call " << i;
    EXPECT_EQ(ra.overlapScore, rb.overlapScore) << "call " << i;
    EXPECT_EQ(a.reports[i].toJson(false), b.reports[i].toJson(false))
        << "call " << i;
  }
}

TEST(ImageFeatures, RelaxedRungReusesPrimaryFeaturesByteIdentically) {
  const BBAlign primary;
  const PinnedPair& pair = pinnedPair(primary);
  const BBAlign relaxed(relaxedRecoveryConfig(primary.config()));
  BBAlignConfig wideCfg = relaxedRecoveryConfig(primary.config());
  wideCfg.yawSpreadSteps = primary.config().yawSpreadSteps + 1;
  const BBAlign wide(wideCfg);
  const auto ego = primary.computeEgoFeatures(pair.ego);

  const std::vector<const BBAlign*> calls{&primary, &relaxed, &wide};
  const MemoRun fresh = runSequence(pair, calls, nullptr, nullptr);
  ImageFeatures memo;
  // Ranked as deep as the relaxed rung reads, as PoseTracker does.
  memo.rankDepth = std::max(primary.config().matching.topK,
                            relaxed.config().matching.topK);
  const MemoRun shared = runSequence(pair, calls, ego.get(), &memo);
  expectSameRuns(fresh, shared);

  // The relaxed rung found every yaw in the memo; the wider spread found
  // some and computed the rest.
  const auto yaws = [&](std::size_t i) {
    return static_cast<std::size_t>(shared.reports[i].yawCandidates);
  };
  EXPECT_EQ(yaws(1), yaws(0));
  EXPECT_GT(memo.passes.size(), yaws(0));
  EXPECT_LT(memo.passes.size(), yaws(0) + yaws(2));
  // Matching follows the passes: the relaxed rung read every yaw's ranked
  // list and matched nothing; the wider spread matched only its new yaws.
  for (std::size_t i = 0; i < calls.size(); ++i) {
    EXPECT_EQ(fresh.matchSpans[i], static_cast<long>(yaws(i))) << i;
  }
  EXPECT_EQ(shared.matchSpans[0], static_cast<long>(yaws(0)));
  EXPECT_EQ(shared.matchSpans[1], 0);
  EXPECT_EQ(shared.matchSpans[2],
            static_cast<long>(memo.passes.size() - yaws(0)));
  // Every pass holds its ranked list, at the memo's depth.
  for (const auto& [yaw, pass] : memo.passes) {
    EXPECT_EQ(pass.depth, memo.rankDepth) << yaw;
  }
}

TEST(ImageFeatures, CallerHeldMemoNeedsACallerHeldEgoValue) {
  // A memo's ranked lists are bound to the ego value they were ranked
  // against, so recover() rejects a memo that comes without one.
  const BBAlign aligner;
  const PinnedPair& pair = pinnedPair(aligner);
  ImageFeatures memo;
  Rng rng(7);
  EXPECT_THROW((void)aligner.recover(pair.other, pair.ego, rng, nullptr,
                                     nullptr, nullptr, &memo),
               AssertionError);
  EXPECT_TRUE(memo.passes.empty());
}

TEST(ImageFeatures, PeerSideReadsFeaturesBuiltForTheEgoSide) {
  // An image's features do not depend on which car it belongs to: the
  // other image's features, built by computeEgoFeatures() as if it were
  // the ego's, serve recover() as the peer-side value.
  const BBAlign aligner;
  const PinnedPair& pair = pinnedPair(aligner);
  for (const int threads : {1, 8}) {
    const ThreadLimit limit(threads);
    Rng rngInline(7);
    PoseRecoveryReport repInline;
    const PoseRecoveryResult inlineRun =
        aligner.recover(pair.other, pair.ego, rngInline, &repInline);

    ImageFeatures asPeer = *aligner.computeEgoFeatures(pair.other);
    const auto ego = aligner.computeEgoFeatures(pair.ego);
    Rng rngSupplied(7);
    PoseRecoveryReport repSupplied;
    const PoseRecoveryResult suppliedRun =
        aligner.recover(pair.other, pair.ego, rngSupplied, &repSupplied,
                        nullptr, ego.get(), &asPeer);

    EXPECT_EQ(std::memcmp(&suppliedRun.estimate, &inlineRun.estimate,
                          sizeof inlineRun.estimate),
              0)
        << threads << " threads";
    EXPECT_EQ(std::memcmp(&suppliedRun.estimate3D, &inlineRun.estimate3D,
                          sizeof inlineRun.estimate3D),
              0)
        << threads << " threads";
    EXPECT_EQ(std::memcmp(&suppliedRun.stage1, &inlineRun.stage1,
                          sizeof inlineRun.stage1),
              0)
        << threads << " threads";
    EXPECT_EQ(suppliedRun.success, inlineRun.success) << threads;
    EXPECT_EQ(suppliedRun.overlapScore, inlineRun.overlapScore) << threads;
    EXPECT_EQ(repSupplied.toJson(false), repInline.toJson(false))
        << threads << " threads";
    EXPECT_FALSE(asPeer.passes.empty());  // recover() added its yaw passes
  }
}

}  // namespace
}  // namespace bba
