#pragma once

#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "bev/bev_image.hpp"
#include "common/rng.hpp"
#include "detect/detection.hpp"
#include "features/descriptor.hpp"
#include "features/fast.hpp"
#include "geom/pose3.hpp"
#include "match/matcher.hpp"
#include "match/ransac.hpp"
#include "obs/report.hpp"
#include "signal/log_gabor.hpp"

namespace bba {

/// Configuration of the full two-stage framework. The Log-Gabor bank is
/// fixed at the paper's N_s = 4 scales and N_o = 12 orientations
/// (signal/log_gabor.hpp); the success criterion keeps §V-A's form (see
/// successInliersBv).
struct BBAlignConfig {
  BevParams bev;
  DescriptorParams descriptor;
  MatchParams matching;
  /// Stage-1 RANSAC. The inlier threshold must absorb BV discretization
  /// (0.5 m cells) plus self-motion distortion (the paper's stage-1
  /// residual is 2–3 m).
  /// Iteration count is sized for true-inlier rates of ~2% among the
  /// top-K descriptor matches (repetitive scenes at long separations).
  RansacParams ransacBv{.iterations = 12000, .inlierThreshold = 2.0,
                        .minInliers = 4, .minPairSeparation = 3.0,
                        .refineRounds = 2};
  /// Stage-2 RANSAC. The correction is bounded: its rotation must be
  /// small (prior 0 mod pi) and its translation under the worst plausible
  /// stage-1 residual, otherwise consensus among mispaired boxes (e.g. a
  /// queue of equally spaced cars) could hijack the refinement.
  /// minInliers = 6 requires support beyond a single box (4 corners are
  /// always self-consistent).
  RansacParams ransacBox{.iterations = 600, .inlierThreshold = 0.8,
                         .minInliers = 6, .minPairSeparation = 0.5,
                         .refineRounds = 2, .orientationToleranceRad = 0.30,
                         .thetaPriorModPi = 0.0, .thetaPriorTolerance = 0.12,
                         .maxTranslationNorm = 4.0};
  /// What stage 2 estimates from the paired box corners.
  ///  - TranslationOnly: pure translation (the paper's Fig. 14 finding —
  ///    box alignment predominantly corrects translation);
  ///  - Rigid: full rotation + translation (lets the yaw noise of a few
  ///    box corners perturb an already-good stage-1 rotation);
  ///  - Auto: rigid when at least 4 boxes support it (yaw noise averages
  ///    out), translation-only otherwise.
  enum class Stage2Mode { TranslationOnly, Rigid, Auto };
  Stage2Mode stage2Mode = Stage2Mode::Auto;

  /// Polish the stage-1 transform with a short 2-D ICP over the two BV
  /// images' occupied pixels: the matched keypoints constrain the pose
  /// with a few dozen points, the polish with every structure pixel.
  /// Rejected if it lowers the overlap score.
  bool bvIcpPolish = true;

  /// Number of global relative-yaw peaks taken from the orientation-
  /// histogram correlation (used when descriptor.rotationMode ==
  /// RotationMode::FixedAngle). Each candidate gets its own descriptor
  /// pass + matching + verified RANSAC; the best overlap score wins.
  int yawCandidates = 2;
  /// Each histogram peak is expanded with +-k*yawSpreadDeg offsets,
  /// k = 1..yawSpreadSteps. On curved roads the scene orientation varies
  /// along the road, biasing the histogram correlation toward 0/90
  /// degrees; the spread recovers the true yaw lying near — not at — a
  /// peak.
  double yawSpreadDeg = 9.0;
  int yawSpreadSteps = 1;

  /// Stage-1 hypothesis verification. Repetitive road corridors give rise
  /// to impostor RANSAC consensus sets (translations sliding along walls,
  /// 180-degree flips); every hypothesis that reaches ransacBv.minInliers
  /// is therefore scored by projecting the other car's occupied BV pixels
  /// into the ego BV image — the true pose overlays structure on
  /// structure, the impostors land on empty road. Hypotheses whose overlap
  /// score falls below this fail verification.
  double minOverlapScore = 0.2;

  /// Stage-2 toggle (disabled for the Fig. 14 ablation).
  bool enableBoxAlignment = true;
  /// Max center distance (meters) after stage 1 for two boxes to be
  /// considered detections of the same object (§IV-B: residual is 2–3 m).
  double boxPairMaxCenterDistance = 3.0;

  /// Success criterion (§V-A form: Inliers_bv > a && Inliers_box > b,
  /// plus both stages' internal checks). The paper's a = 25 was calibrated
  /// to its keypoint counts; recalibrated here to this implementation's
  /// match counts (see EXPERIMENTS.md).
  int successInliersBv = 15;
  /// ...and inliers_box > this (the paper's value).
  int successInliersBox = 6;

  /// Keypoint detection strategy, each detector at its default parameters
  /// (features/fast.hpp). `BvDense` (block maxima on the height map:
  /// keypoints anchored to occupied pixels, repeatable across viewpoints
  /// and sensors because they sit on physical structure) is the robust
  /// default for sparse BV images; `Amplitude` takes local maxima of the
  /// summed Log-Gabor energy; `BvFast` runs FAST-9 on the raw height map
  /// (the corner test mostly stays silent on straight building edges —
  /// kept as an ablation).
  enum class KeypointSurface { BvDense, Amplitude, BvFast };
  KeypointSurface keypointSurface = KeypointSurface::BvDense;
};

/// What one car computes locally and transmits: its BV image and its BV-
/// projected detection boxes (Algorithm 1 lines 1–3). This is the entire
/// over-the-air payload — the bandwidth argument of the paper.
struct CarPerceptionData {
  ImageF bvImage;
  std::vector<OrientedBox2> boxes;

  /// Approximate transmission size in bytes (8-bit BV image, assuming the
  /// sparse image compresses to ~nonzero pixels; 20 bytes per box).
  [[nodiscard]] std::size_t approxPayloadBytes() const;
};

/// Full output of one pose-recovery attempt.
struct PoseRecoveryResult {
  Pose2 estimate;       ///< T_2D = T_box * T_bv (other -> ego)
  Pose3 estimate3D;     ///< Eq. 1 lift of `estimate`
  Pose2 stage1;         ///< T_bv alone (for the stage-wise studies)
  int inliersBv = 0;    ///< Inliers_bv (confidence signal)
  int inliersBox = 0;   ///< Inliers_box
  int keypointMatches = 0;  ///< descriptor matches fed to stage-1 RANSAC
  double overlapScore = 0.0;  ///< BV-overlap verification score of stage 1
  int boxPairs = 0;     ///< overlapping box pairs found in stage 2
  bool stage1Ok = false;
  bool stage2Ok = false;
  /// The paper's empirical success criterion.
  bool success = false;
  /// Gt-free self-validation of a successful estimate (computed == false
  /// when the call failed). Callers replacing a trusted pose with this
  /// estimate should gate on `validation.score` (PoseTracker does).
  PoseValidation validation;
};

/// One BV image's stage-1 features (Algorithm 1 lines 5–11): its MIM
/// (through the aligner's Log-Gabor bank), its keypoints with their
/// orientation (computed once per image, see orientKeypoints) and its
/// descriptor passes. Every such product is an RNG-free function of the
/// image and the feature-side config, whichever car the image belongs to,
/// so a value computed once is byte-identical to a recomputed one and can
/// serve every recover() on that image: CooperationService hands the
/// frame's ego value to all its sessions, and a tracker step's peer value
/// carries over from the primary rung to the relaxed one. Bind one value
/// to one image, and share it only between aligners whose configs agree
/// on every feature-side field (see relaxedRecoveryConfig).
///
/// On the peer side, recover() also keeps each yaw pass's ranked match
/// list, which depends on the ego value too: it binds the value to the
/// first ego value it ranks against (`rankedAgainst`) and asserts that
/// every later call brings the same one. The tracker keeps its peer value
/// for one step only, so the lists, like the rest of it, die with the
/// step; a recover() called without a peer value ranks into one of its
/// own.
struct ImageFeatures {
  MimResult mim;  ///< empty until the features are computed
  std::vector<Keypoint> keypoints;
  /// The pass sampled at angle 0: what the ego side is matched against and
  /// what the keyframe map indexes (computeEgoFeatures() fills it).
  DescriptorSet descriptors;

  /// What the peer side adds on demand for one relative-yaw candidate.
  struct YawPass {
    DescriptorSet descriptors;  ///< the pass sampled at -yaw
    /// The pass's matches against the ego pass, as matchDescriptors()
    /// returns them at topK = depth; a call whose topK is at most `depth`
    /// reads each row's first topK entries (firstMatchesPerRow).
    std::vector<Match> ranked;
    int depth = 0;
  };
  /// One entry per yaw candidate, keyed by that yaw.
  std::map<double, YawPass> passes;
  /// The ego value every ranked list in `passes` was ranked against.
  const ImageFeatures* rankedAgainst = nullptr;
  /// How deep a list is ranked when first computed, when that exceeds the
  /// calling aligner's topK: the deepest topK among the aligners that will
  /// read the value (PoseTracker sets it from its two rungs).
  int rankDepth = 0;
};

/// How far recover() searches its global-yaw candidates (see recover()).
enum class YawSearch {
  Full,                 ///< evaluate every listed candidate
  StopAtDecisivePrior,  ///< stop after the prior's own candidates when decisive
};

/// The BB-Align two-stage pose recovery framework (Algorithm 1).
///
/// Typical use:
///   BBAlign aligner;                         // paper-default config
///   auto egoData   = aligner.makeCarData(egoCloud, egoDetections);
///   auto otherData = aligner.makeCarData(otherCloud, otherDetections);
///   Rng rng(7);
///   PoseRecoveryResult r = aligner.recover(otherData, egoData, rng);
///   if (r.success) fuse(transformed(otherCloud, r.estimate3D), ...);
class BBAlign {
 public:
  explicit BBAlign(BBAlignConfig config = {});

  [[nodiscard]] const BBAlignConfig& config() const { return cfg_; }

  /// Per-car preprocessing (runs on each car): rasterize the BV image and
  /// project detection boxes (Algorithm 1 lines 1–2).
  [[nodiscard]] CarPerceptionData makeCarData(const PointCloud& cloud,
                                              const Detections& dets) const;

  /// Recover the relative pose from the other car to the ego car
  /// (Algorithm 1 lines 4–17). `rng` drives RANSAC sampling.
  ///
  /// `report` (optional) receives a structured per-call account — stage
  /// wall times, keypoint/match/inlier counts, RANSAC iteration totals and
  /// the failure cause — so callers consume these numbers instead of
  /// recomputing them. Requesting a report never changes the estimate.
  ///
  /// `posePrior` (optional) is a caller-side predicted other -> ego
  /// transform: a streaming tracker (src/stream) supplies its
  /// constant-velocity motion prediction so the global-yaw search starts
  /// from the predicted rotation. The prior's yaw, spread by
  /// +-yawSpreadDeg, heads the candidate list; each histogram peak and its
  /// spread follow. The prior never gates, replaces or biases a
  /// measurement.
  ///
  /// `yawSearch` decides whether the prior may also end the search. With
  /// YawSearch::StopAtDecisivePrior and a prior, the search stops once the
  /// prior's own candidates are evaluated if their best verified
  /// hypothesis is decisive: a verifier overlap of at least 0.4
  /// (kDecisiveOverlap) and more than this config's successInliersBv
  /// refined inliers. The remaining candidates' descriptor passes,
  /// matching and RANSAC are skipped. Every listed candidate owns exactly
  /// one draw of `rng`, evaluated or skipped, so stage 2 and later calls
  /// draw what a full search would have them draw, and the stop changes a
  /// result only where a skipped candidate would have won. PoseTracker
  /// asks for it on its motion prediction (rungs 0 and 1); relocalization
  /// against a dead-reckoned map prior, and every call without a prior,
  /// search in full.
  ///
  /// `egoFeatures` (optional) supplies `ego`'s features as
  /// computeEgoFeatures() builds them. `otherFeatures` (optional) is the
  /// memo of `other`'s features: read where it holds a product, filled
  /// where it does not. Either must come from a config whose feature-side
  /// fields equal this aligner's — then the result is byte-identical to
  /// computing them inline. Without either argument, recover() computes
  /// that side's features itself. Every yaw is matched through the memo's
  /// ranked lists, which are bound to the ego value (see ImageFeatures):
  /// a caller-held memo therefore needs a caller-held `egoFeatures`
  /// (asserted).
  [[nodiscard]] PoseRecoveryResult recover(
      const CarPerceptionData& other, const CarPerceptionData& ego, Rng& rng,
      PoseRecoveryReport* report = nullptr,
      const Pose2* posePrior = nullptr,
      const ImageFeatures* egoFeatures = nullptr,
      ImageFeatures* otherFeatures = nullptr,
      YawSearch yawSearch = YawSearch::Full) const;

  /// The image's features with their angle-0 pass, exactly as recover()
  /// computes the ego side inline — the sharable, peer-independent half of
  /// the pipeline (see ImageFeatures).
  [[nodiscard]] std::shared_ptr<const ImageFeatures> computeEgoFeatures(
      const CarPerceptionData& ego) const;

  /// The image's MIM through this aligner's Log-Gabor bank (exposed for
  /// tests and the stage-wise experiments).
  [[nodiscard]] MimResult computeImageMim(const ImageF& bvImage) const;

 private:
  /// The one recipe every ImageFeatures is built by: gives `features` the
  /// image's MIM (blurred image → Log-Gabor bank) and keypoints when it
  /// holds none yet, then returns the descriptor pass sampled at
  /// `fixedAngle` (an empty set when nullopt). With `times` set, each stage's
  /// wall time is added to its msMim / msKeypoints / msDescriptors.
  DescriptorSet extractFeatures(const ImageF& bvImage, ImageFeatures& features,
                                std::optional<double> fixedAngle,
                                PoseRecoveryReport* times) const;

  BBAlignConfig cfg_;
  std::shared_ptr<const LogGaborBank> bank_;  // immutable, sized to the BV image
};

}  // namespace bba
