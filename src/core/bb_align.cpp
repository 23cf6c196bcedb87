#include "core/bb_align.hpp"

#include <algorithm>
#include <cmath>

#include <chrono>

#include "common/assert.hpp"
#include "features/mim.hpp"
#include "geom/iou.hpp"
#include "geom/kabsch.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "spatial/kdtree.hpp"

namespace bba {

std::size_t CarPerceptionData::approxPayloadBytes() const {
  std::size_t nonzero = 0;
  for (float v : bvImage.data()) {
    if (v > 0.0f) ++nonzero;
  }
  // Sparse encoding: (u, v, intensity) triplets at 5 bytes, plus 20 bytes
  // per BV box (center, half extents, yaw as floats).
  return nonzero * 5 + boxes.size() * 20;
}

BBAlign::BBAlign(BBAlignConfig config) : cfg_(std::move(config)) {
  const int h = cfg_.bev.imageSize();
  BBA_ASSERT_MSG(isPowerOfTwo(h),
                 "BevParams must give a power-of-two image size");
  bank_ = sharedLogGaborBank(h, h, cfg_.logGabor);
}

CarPerceptionData BBAlign::makeCarData(const PointCloud& cloud,
                                       const Detections& dets) const {
  BBA_SPAN("make-car-data");
  CarPerceptionData data;
  data.bvImage = makeHeightBV(cloud, cfg_.bev);
  data.boxes = projectBV(dets);
  return data;
}

namespace {
/// Keypoints of one BV image; the one place detection runs, so
/// stage1.keypoints_detected counts each detection once, however many
/// recover() calls then read the list.
std::vector<Keypoint> detectKeypoints(const BBAlignConfig& cfg,
                                      const ImageF& bvImage,
                                      const MimResult& mim) {
  BBA_SPAN("keypoints");
  std::vector<Keypoint> keypoints = [&] {
    switch (cfg.keypointSurface) {
      case BBAlignConfig::KeypointSurface::BvDense:
        return detectBlockMaxima(bvImage, cfg.blockMax);
      case BBAlignConfig::KeypointSurface::Amplitude:
        return detectLocalMaxima(mim.totalAmplitude, cfg.localMax);
      case BBAlignConfig::KeypointSurface::BvFast:
        return detectFast(bvImage, cfg.fast);
    }
    throw ComputationError("unknown keypoint surface");
  }();
  BBA_COUNTER_ADD("stage1.keypoints_detected",
                  static_cast<std::int64_t>(keypoints.size()));
  return keypoints;
}

/// Millisecond lap timer for the per-call report; reads the clock only
/// when a report was requested, so the unreported path stays clock-free.
class LapTimer {
 public:
  explicit LapTimer(bool enabled) : enabled_(enabled) {
    if (enabled_) last_ = std::chrono::steady_clock::now();
  }

  /// Milliseconds since construction or the previous lap() call.
  double lap() {
    if (!enabled_) return 0.0;
    const auto now = std::chrono::steady_clock::now();
    const double ms =
        std::chrono::duration<double, std::milli>(now - last_).count();
    last_ = now;
    return ms;
  }

 private:
  bool enabled_;
  std::chrono::steady_clock::time_point last_;
};
}  // namespace

MimResult BBAlign::computeImageMim(const ImageF& bvImage) const {
  // Box-blur the BV image before the Log-Gabor bank: it thickens the dotted
  // lines of sparse scans, so MIM orientations are stable across sensors
  // with different sampling densities. Keypoints still anchor to the raw
  // height map.
  return computeMim(boxBlur3(bvImage), *bank_);
}

DescriptorSet BBAlign::extractFeatures(const ImageF& bvImage,
                                       ImageFeatures& features,
                                       std::optional<double> fixedAngle,
                                       PoseRecoveryReport* times) const {
  LapTimer lap(times != nullptr);
  if (features.mim.mim.empty()) {
    features.mim = computeImageMim(bvImage);
    if (times) times->msMim += lap.lap();
    features.keypoints = detectKeypoints(cfg_, bvImage, features.mim);
    if (times) times->msKeypoints += lap.lap();
  }
  if (!fixedAngle) return {};
  DescriptorParams dp = cfg_.descriptor;
  dp.fixedAngle = *fixedAngle;
  DescriptorSet pass = computeDescriptors(features.mim, features.keypoints, dp);
  if (times) times->msDescriptors += lap.lap();
  return pass;
}

DescriptorSet BBAlign::describe(const ImageF& bvImage,
                                double fixedAngle) const {
  ImageFeatures features;
  return extractFeatures(bvImage, features, fixedAngle, nullptr);
}

std::shared_ptr<const ImageFeatures> BBAlign::computeEgoFeatures(
    const CarPerceptionData& ego) const {
  BBA_SPAN("ego-features");
  auto out = std::make_shared<ImageFeatures>();
  out->descriptors = extractFeatures(ego.bvImage, *out, 0.0, nullptr);
  return out;
}

namespace {

/// Occupancy-overlap verifier for stage-1 hypotheses: projects the other
/// car's occupied BV pixels through a candidate transform and measures the
/// fraction landing on (3x3-dilated) occupied ego pixels.
class OverlapScorer {
 public:
  OverlapScorer(const ImageF& egoBv, const ImageF& otherBv,
                const BevParams& bev, float intensityThreshold)
      : bev_(bev), occ_(egoBv.width(), egoBv.height(), 0) {
    const int w = egoBv.width();
    const int h = egoBv.height();
    for (int y = 0; y < h; ++y) {
      for (int x = 0; x < w; ++x) {
        if (egoBv(x, y) <= intensityThreshold) continue;
        for (int dy = -1; dy <= 1; ++dy) {
          for (int dx = -1; dx <= 1; ++dx) {
            if (occ_.inBounds(x + dx, y + dy)) occ_(x + dx, y + dy) = 1;
          }
        }
      }
    }
    // Occupied pixels of the other image, in metric coordinates
    // (subsampled for bounded cost).
    std::size_t count = 0;
    for (float v : otherBv.data()) {
      if (v > intensityThreshold) ++count;
    }
    const std::size_t stride = std::max<std::size_t>(1, count / 1200);
    std::size_t seen = 0;
    for (int y = 0; y < otherBv.height(); ++y) {
      for (int x = 0; x < otherBv.width(); ++x) {
        if (otherBv(x, y) <= intensityThreshold) continue;
        if (seen++ % stride != 0) continue;
        otherPts_.push_back(bev.toMeters(
            Vec2{static_cast<double>(x), static_cast<double>(y)}));
      }
    }
  }

  /// Occupied pixels of the other BV image, metric coordinates.
  [[nodiscard]] const std::vector<Vec2>& otherPoints() const {
    return otherPts_;
  }

  /// Overlap score in [0, 1]; 0 when too few pixels project into the ego
  /// field of view to judge.
  [[nodiscard]] double score(const Pose2& T) const {
    if (otherPts_.empty()) return 0.0;
    int inFov = 0, hits = 0;
    for (const Vec2& p : otherPts_) {
      const Vec2 px = bev_.toPixel(T.apply(p));
      const int u = static_cast<int>(std::lround(px.x));
      const int v = static_cast<int>(std::lround(px.y));
      if (!occ_.inBounds(u, v)) continue;
      ++inFov;
      hits += occ_(u, v);
    }
    const int minInFov = std::max<int>(
        30, static_cast<int>(otherPts_.size() / 6));
    if (inFov < minInFov) return 0.0;
    return static_cast<double>(hits) / static_cast<double>(inFov);
  }

 private:
  BevParams bev_;
  Image<unsigned char> occ_;
  std::vector<Vec2> otherPts_;
};

/// Short 2-D point-to-point ICP between the BV structure point sets,
/// starting from the stage-1 transform. The keypoint matches constrain the
/// pose with a few dozen points; this polish uses every occupied pixel.
Pose2 icpPolishBv(const std::vector<Vec2>& srcPts, const ImageF& egoBv,
                  const BevParams& bev, float intensityThreshold,
                  const Pose2& init) {
  std::vector<Vec2> dstPts;
  std::vector<KdTree2::Point> arr;
  for (int y = 0; y < egoBv.height(); ++y) {
    for (int x = 0; x < egoBv.width(); ++x) {
      if (egoBv(x, y) <= intensityThreshold) continue;
      const Vec2 m = bev.toMeters(
          Vec2{static_cast<double>(x), static_cast<double>(y)});
      dstPts.push_back(m);
      arr.push_back({m.x, m.y});
    }
  }
  if (srcPts.size() < 20 || dstPts.size() < 20) return init;
  const KdTree2 tree(std::move(arr));

  Pose2 T = init;
  constexpr double kMaxDist2 = 2.5 * 2.5;
  for (int iter = 0; iter < 12; ++iter) {
    std::vector<Vec2> a, b;
    for (const Vec2& p : srcPts) {
      const Vec2 tp = T.apply(p);
      const auto nn = tree.nearest({tp.x, tp.y});
      if (nn.squaredDistance > kMaxDist2) continue;
      a.push_back(tp);
      b.push_back(dstPts[nn.index]);
    }
    if (a.size() < 20) break;
    const Pose2 delta = estimateRigid2D(a, b);
    T = delta.compose(T);
    if (delta.t.norm() < 1e-3 && std::abs(delta.theta) < 1e-4) break;
  }
  return T;
}

/// Greedy nearest-center box pairing: each of the other car's boxes, in
/// order, is moved into the ego frame by `T` and takes the nearest unpaired
/// ego box closer than `cfg.boxPairMaxCenterDistance` (strict `<`: a tie
/// goes to the lower ego index). Calls `onPair(moved, egoBox)` per pair.
template <typename OnPair>
void pairBoxes(const std::vector<OrientedBox2>& otherBoxes,
               const std::vector<OrientedBox2>& egoBoxes, const Pose2& T,
               const BBAlignConfig& cfg, OnPair&& onPair) {
  std::vector<bool> egoUsed(egoBoxes.size(), false);
  for (const OrientedBox2& ob : otherBoxes) {
    const OrientedBox2 moved = ob.transformed(T);
    int bestIdx = -1;
    double bestDist = cfg.boxPairMaxCenterDistance;
    for (std::size_t j = 0; j < egoBoxes.size(); ++j) {
      if (egoUsed[j]) continue;
      const double d = (egoBoxes[j].center - moved.center).norm();
      if (d < bestDist) {
        bestDist = d;
        bestIdx = static_cast<int>(j);
      }
    }
    if (bestIdx < 0) continue;
    egoUsed[static_cast<std::size_t>(bestIdx)] = true;
    onPair(moved, egoBoxes[static_cast<std::size_t>(bestIdx)]);
  }
}

/// Stage 2 (§IV-B): pair up overlapping boxes and align their corners.
struct BoxAlignment {
  RansacResult ransac;
  int pairs = 0;
  bool ransacRan = false;  ///< enough corner pairs to attempt a model
};

BoxAlignment alignBoxes(const std::vector<OrientedBox2>& otherBoxes,
                        const std::vector<OrientedBox2>& egoBoxes,
                        const Pose2& stage1, const BBAlignConfig& cfg,
                        Rng& rng) {
  BoxAlignment out;
  std::vector<Vec2> src, dst;

  // Boxes arrive in the other car's frame; stage 1 brings them into the
  // ego frame to within a couple of meters (Algorithm 1 line 12).
  pairBoxes(otherBoxes, egoBoxes, stage1, cfg,
            [&](const OrientedBox2& moved, const OrientedBox2& eb) {
              ++out.pairs;
              // Consistently ordered corners pair up index-for-index
              // (§IV-B). The canonicalization collapses the 180-degree
              // heading ambiguity of symmetric car boxes detected from
              // opposite viewpoints.
              const auto sc = moved.canonicalized().corners();
              const auto dc = eb.canonicalized().corners();
              for (int k = 0; k < 4; ++k) {
                src.push_back(sc[static_cast<std::size_t>(k)]);
                dst.push_back(dc[static_cast<std::size_t>(k)]);
              }
            });

  if (src.size() >= 4) {
    bool rigid = false;
    switch (cfg.stage2Mode) {
      case BBAlignConfig::Stage2Mode::TranslationOnly:
        rigid = false;
        break;
      case BBAlignConfig::Stage2Mode::Rigid:
        rigid = true;
        break;
      case BBAlignConfig::Stage2Mode::Auto:
        rigid = out.pairs >= cfg.autoRigidMinPairs;
        break;
    }
    BBA_SPAN("ransac-box");
    out.ransac = rigid ? ransacRigid2D(src, dst, cfg.ransacBox, rng)
                       : ransacTranslation2D(src, dst, cfg.ransacBox, rng);
    out.ransacRan = true;
  }
  return out;
}

RecoveryFailure classifyFailure(const BBAlignConfig& cfg,
                                const PoseRecoveryResult& r,
                                bool stage1Consensus, bool stage2Consensus) {
  if (r.success) return RecoveryFailure::None;
  if (!r.stage1Ok) {
    return stage1Consensus ? RecoveryFailure::Stage1LowOverlap
                           : RecoveryFailure::Stage1NoConsensus;
  }
  if (!cfg.enableBoxAlignment) return RecoveryFailure::BoxAlignmentDisabled;
  if (!r.stage2Ok) {
    return stage2Consensus ? RecoveryFailure::Stage2Unbounded
                           : RecoveryFailure::Stage2NoConsensus;
  }
  return RecoveryFailure::InlierThreshold;
}

/// Gt-free validation of a successful estimate (§ tentpole of PR 5): score
/// the FINAL transform by the same occupancy verifier stage 1 used on T_bv,
/// and by how well it lands the other car's boxes on the ego boxes. The two
/// residuals fail independently under attack — spoofed boxes drag the
/// stage-2 correction off the BV structure (bv term collapses), while an
/// impostor BV alignment misplaces the boxes (box term collapses) — so the
/// combined score is the MINIMUM of the two terms.
PoseValidation validatePose(const Pose2& estimate, const OverlapScorer& scorer,
                            const std::vector<OrientedBox2>& otherBoxes,
                            const std::vector<OrientedBox2>& egoBoxes,
                            const BBAlignConfig& cfg) {
  PoseValidation v;
  v.computed = true;
  v.bvOverlap = scorer.score(estimate);

  // The stage-2 pairing, under the final estimate T_2D instead of T_bv.
  double residualSum = 0.0;
  double iouSum = 0.0;
  pairBoxes(otherBoxes, egoBoxes, estimate, cfg,
            [&](const OrientedBox2& moved, const OrientedBox2& eb) {
              const auto mc = moved.canonicalized().corners();
              const auto ec = eb.canonicalized().corners();
              double corner = 0.0;
              for (int k = 0; k < 4; ++k) {
                corner += (mc[static_cast<std::size_t>(k)] -
                           ec[static_cast<std::size_t>(k)])
                              .norm();
              }
              residualSum += corner / 4.0;
              iouSum += rotatedIoU(moved, eb);
              ++v.boxesCompared;
            });
  if (v.boxesCompared > 0) {
    v.meanCornerResidual = residualSum / v.boxesCompared;
    v.meanBoxIou = iouSum / v.boxesCompared;
  }

  // BV term: the final overlap, normalized between the stage-1
  // verification floor (minOverlapScore -> 0) and the level honest
  // recoveries reach on the pinned scenarios (>= ~0.63 empirically;
  // kBvHealthyOverlap -> 1). A coherent box lie drags the estimate off the
  // BV structure and lands here at <= ~0.47 (tests/stream_test.cpp pins
  // the separation), so the term must not saturate below that band.
  constexpr double kBvHealthyOverlap = 0.65;
  const double floor_ = cfg.minOverlapScore;
  const double bvTerm = std::clamp(
      (v.bvOverlap - floor_) / std::max(1e-9, kBvHealthyOverlap - floor_),
      0.0, 1.0);
  // Box term: corner residual normalized by the pairing radius, blended
  // with the IoU (IoU alone saturates to 0 past ~half a box of error).
  double boxTerm = bvTerm;  // no boxes paired: only the BV term speaks
  if (v.boxesCompared > 0) {
    const double residTerm =
        std::clamp(1.0 - v.meanCornerResidual / cfg.boxPairMaxCenterDistance,
                   0.0, 1.0);
    boxTerm = 0.5 * residTerm + 0.5 * std::clamp(v.meanBoxIou, 0.0, 1.0);
  }
  v.score = std::min(bvTerm, boxTerm);
  return v;
}

/// Registry-side account of one finished recover() call. Counter names
/// are static so the failure taxonomy stays greppable.
void recordRecoveryMetrics(const PoseRecoveryReport& rep) {
#if defined(BBA_OBSERVABILITY_ENABLED)
  obs::MetricsRegistry* reg = obs::metricsRegistry();
  if (!reg) return;
  reg->counter("recover.calls").increment();
  if (rep.success) reg->counter("recover.success").increment();
  switch (rep.failure) {
    case RecoveryFailure::None:
      break;
    case RecoveryFailure::Stage1NoConsensus:
      reg->counter("recover.failure.stage1_no_consensus").increment();
      break;
    case RecoveryFailure::Stage1LowOverlap:
      reg->counter("recover.failure.stage1_low_overlap").increment();
      break;
    case RecoveryFailure::BoxAlignmentDisabled:
      reg->counter("recover.failure.box_alignment_disabled").increment();
      break;
    case RecoveryFailure::Stage2NoConsensus:
      reg->counter("recover.failure.stage2_no_consensus").increment();
      break;
    case RecoveryFailure::Stage2Unbounded:
      reg->counter("recover.failure.stage2_unbounded").increment();
      break;
    case RecoveryFailure::InlierThreshold:
      reg->counter("recover.failure.inlier_threshold").increment();
      break;
  }
  reg->counter("stage1.ransac_iterations").add(rep.ransacBvIterations);
  reg->counter("stage2.ransac_iterations").add(rep.ransacBoxIterations);
  reg->histogram("stage1.keypoints").observe(rep.keypointsEgo);
  reg->histogram("stage1.keypoints").observe(rep.keypointsOther);
  reg->histogram("stage1.descriptor_matches").observe(rep.descriptorMatches);
  reg->histogram("stage1.inliers_bv").observe(rep.inliersBv);
  reg->histogram("stage1.overlap_score").observe(rep.overlapScore);
  reg->histogram("stage2.box_pairs").observe(rep.boxPairs);
  reg->histogram("stage2.inliers_box").observe(rep.inliersBox);
  if (rep.validation.computed) {
    reg->counter("validate.computed").increment();
    reg->histogram("validate.score").observe(rep.validation.score);
    reg->histogram("validate.bv_overlap").observe(rep.validation.bvOverlap);
    reg->histogram("validate.corner_residual")
        .observe(rep.validation.meanCornerResidual);
    reg->histogram("validate.box_iou").observe(rep.validation.meanBoxIou);
  }
#else
  (void)rep;
#endif
}

}  // namespace

PoseRecoveryResult BBAlign::recover(const CarPerceptionData& other,
                                    const CarPerceptionData& ego, Rng& rng,
                                    PoseRecoveryReport* report,
                                    const Pose2* posePrior,
                                    const ImageFeatures* egoFeatures,
                                    ImageFeatures* otherFeatures) const {
  BBA_SPAN("recover");
  PoseRecoveryResult result;
  PoseRecoveryReport rep;
  PoseRecoveryReport* const times = report != nullptr ? &rep : nullptr;
  LapTimer total(report != nullptr);
  LapTimer lap(report != nullptr);

  // ---- Stage 1: BV image matching (Algorithm 1 lines 5–11) -------------
  // Each side's features come from the caller when it holds them (the
  // frame's shared ego features; the tracker step's peer memo) and are
  // computed here otherwise, so the report's stage times cover exactly the
  // work this call did.
  ImageFeatures egoLocal;
  if (egoFeatures == nullptr) {
    egoLocal.descriptors = extractFeatures(ego.bvImage, egoLocal, 0.0, times);
    egoFeatures = &egoLocal;
  } else {
    BBA_ASSERT_MSG(egoFeatures->mim.mim.width() == bank_->width() &&
                       egoFeatures->mim.mim.height() == bank_->height(),
                   "shared ego features sized for a different bank");
  }
  ImageFeatures otherLocal;
  if (otherFeatures == nullptr) otherFeatures = &otherLocal;
  // MIM and keypoints only: the peer's passes are per yaw candidate.
  extractFeatures(other.bvImage, *otherFeatures, std::nullopt, times);
  const DescriptorSet& descEgo = egoFeatures->descriptors;
  rep.keypointsEgo = static_cast<int>(egoFeatures->keypoints.size());
  rep.keypointsOther = static_cast<int>(otherFeatures->keypoints.size());
  rep.descriptorsEgo = static_cast<int>(descEgo.size());

  // Global relative-yaw candidates: a V2V frame pair has ONE relative
  // rotation, visible as a circular shift between the two images' MIM
  // orientation histograms. Each candidate gets its own fixed-rotation
  // descriptor pass for the other image (per-keypoint normalization would
  // inject orientation jitter on blob features like tree tops).
  std::vector<double> yawCands{0.0};
  const bool fixedMode =
      cfg_.descriptor.rotationMode == RotationMode::FixedAngle;
  if (fixedMode) {
    std::vector<double> peaks = globalYawCandidates(
        egoFeatures->mim, otherFeatures->mim, cfg_.yawCandidates);
    // A caller-side pose prior (streaming tracker prediction) becomes the
    // first candidate evaluated; the histogram peaks still follow, so a
    // wrong prior costs one extra candidate but can never hide the
    // histogram-derived hypotheses.
    if (posePrior) peaks.insert(peaks.begin(), posePrior->theta);
    yawCands.clear();
    for (const double peak : peaks) {
      for (int k = -cfg_.yawSpreadSteps; k <= cfg_.yawSpreadSteps; ++k) {
        double yaw = peak + k * cfg_.yawSpreadDeg * kDegToRad;
        yaw = std::fmod(yaw, 3.14159265358979323846);
        if (yaw < 0.0) yaw += 3.14159265358979323846;
        bool dup = false;
        for (const double kept : yawCands) {
          double d = std::abs(yaw - kept);
          d = std::min(d, 3.14159265358979323846 - d);
          if (d < 4.0 * kDegToRad) {
            dup = true;
            break;
          }
        }
        if (!dup) yawCands.push_back(yaw);
      }
    }
    if (yawCands.empty()) yawCands.push_back(0.0);
  }

  const OverlapScorer scorer(ego.bvImage, other.bvImage, cfg_.bev,
                             cfg_.overlapIntensityThreshold);
  VerifiedRansacResult bestVerified;
  int bestMatches = 0;
  int bestDescOther = 0;
  rep.yawCandidates = static_cast<int>(yawCands.size());
  for (const double yaw : yawCands) {
    // yaw is the other->ego rotation (ego pixels = R(yaw) * other pixels
    // + shift); sampling the other image's patches with offsets rotated by
    // -yaw reads the content that ego's unrotated offsets read. Each pass
    // is computed on the first request for its yaw.
    auto pass = otherFeatures->passes.find(yaw);
    if (pass == otherFeatures->passes.end()) {
      pass = otherFeatures->passes
                 .emplace(yaw, extractFeatures(other.bvImage, *otherFeatures,
                                               -yaw, times))
                 .first;
    }
    const DescriptorSet& descOther = pass->second;
    lap.lap();
    const std::vector<Match> matches =
        matchDescriptors(descOther, descEgo, cfg_.matching);
    rep.msMatching += lap.lap();

    std::vector<Vec2> src, dst;
    std::vector<double> srcOrient, dstOrient;
    src.reserve(matches.size());
    dst.reserve(matches.size());
    for (const Match& m : matches) {
      // RANSAC runs in metric vehicle-frame coordinates so its thresholds
      // and the resulting transform are directly physical.
      const Keypoint& ks =
          descOther.keypoint(static_cast<std::size_t>(m.srcIndex));
      const Keypoint& kd =
          descEgo.keypoint(static_cast<std::size_t>(m.dstIndex));
      src.push_back(cfg_.bev.toMeters(ks.px));
      dst.push_back(cfg_.bev.toMeters(kd.px));
      srcOrient.push_back(ks.orientation);
      dstOrient.push_back(kd.orientation);
    }

    // Verified RANSAC: the inlier count alone cannot separate the true
    // pose from impostor consensus in repetitive scenes, so every
    // qualifying hypothesis is scored by how well it overlays the other
    // car's BV structure onto the ego car's, and the best score wins.
    RansacParams prm = cfg_.ransacBv;
    if (fixedMode) prm.thetaPriorModPi = yaw;
    VerifiedRansacResult verified;
    {
      BBA_SPAN("ransac-bv");
      verified = ransacRigid2DVerified(
          src, dst, prm, rng,
          [&scorer](const Pose2& T) { return scorer.score(T); }, srcOrient,
          dstOrient);
    }
    rep.msRansacBv += lap.lap();
    rep.ransacBvIterations += prm.iterations;
    if (verified.verifierScore > bestVerified.verifierScore) {
      bestVerified = verified;
      bestMatches = static_cast<int>(matches.size());
      bestDescOther = static_cast<int>(descOther.size());
    }
  }

  RansacResult bv = bestVerified.ransac;
  result.keypointMatches = bestMatches;
  result.overlapScore = std::max(
      std::max(bestVerified.verifierScore, scorer.score(bv.transform)), 0.0);
  result.inliersBv = bv.inlierCount;
  result.stage1Ok = bv.ok && result.overlapScore >= cfg_.minOverlapScore;
  rep.descriptorsOther = bestDescOther;
  rep.descriptorMatches = bestMatches;

  // Dense polish over all BV structure pixels; kept only if the overlap
  // verification agrees it did not get worse.
  lap.lap();
  if (cfg_.bvIcpPolish && result.stage1Ok) {
    BBA_SPAN("icp-polish");
    const Pose2 polished =
        icpPolishBv(scorer.otherPoints(), ego.bvImage, cfg_.bev,
                    cfg_.overlapIntensityThreshold, bv.transform);
    const double polishedScore = scorer.score(polished);
    if (polishedScore >= result.overlapScore - 0.02) {
      bv.transform = polished;
      result.overlapScore = std::max(result.overlapScore, polishedScore);
    }
  }
  rep.msIcpPolish = lap.lap();

  result.stage1 = bv.transform;
  result.estimate = bv.transform;

  // ---- Stage 2: bounding-box alignment (lines 12–15) --------------------
  bool stage2Consensus = false;
  if (cfg_.enableBoxAlignment && result.stage1Ok) {
    BBA_SPAN("stage2");
    const BoxAlignment boxes =
        alignBoxes(other.boxes, ego.boxes, bv.transform, cfg_, rng);
    result.boxPairs = boxes.pairs;
    result.inliersBox = boxes.ransac.inlierCount;
    stage2Consensus = boxes.ransac.ok;
    if (boxes.ransacRan) rep.ransacBoxIterations += cfg_.ransacBox.iterations;
    // Accept the refinement only while it stays a *refinement* — a large
    // correction after refinement means mispaired boxes won the vote.
    const Pose2& tBox = boxes.ransac.transform;
    const bool bounded =
        (cfg_.ransacBox.maxTranslationNorm < 0.0 ||
         tBox.t.norm() <= cfg_.ransacBox.maxTranslationNorm + 0.5) &&
        angularDistance(tBox.theta, 0.0) <=
            cfg_.ransacBox.thetaPriorTolerance + 0.05;
    result.stage2Ok = boxes.ransac.ok && bounded;
    if (result.stage2Ok) {
      // T_2D = T_box * T_bv (line 15).
      result.estimate = tBox.compose(bv.transform);
    }
  }
  rep.msStage2 = lap.lap();

  result.success = result.stage1Ok && result.stage2Ok &&
                   result.inliersBv > cfg_.successInliersBv &&
                   result.inliersBox > cfg_.successInliersBox;
  // Gt-free self-validation of the final estimate: deterministic geometry,
  // no Rng draws, so requesting it can never perturb the pose.
  if (result.success) {
    BBA_SPAN("validate-pose");
    result.validation =
        validatePose(result.estimate, scorer, other.boxes, ego.boxes, cfg_);
  }
  // Eq. 1 lift with the ground-vehicle constants (line 17).
  result.estimate3D = Pose3::fromPose2(result.estimate);

  rep.inliersBv = result.inliersBv;
  rep.overlapScore = result.overlapScore;
  rep.boxPairs = result.boxPairs;
  rep.inliersBox = result.inliersBox;
  rep.validation = result.validation;
  rep.stage1Ok = result.stage1Ok;
  rep.stage2Ok = result.stage2Ok;
  rep.success = result.success;
  rep.failure = classifyFailure(cfg_, result, bv.ok, stage2Consensus);
  rep.msTotal = total.lap();
  recordRecoveryMetrics(rep);
  if (report) *report = rep;
  return result;
}

}  // namespace bba
