#pragma once

#include <functional>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "geom/pose2.hpp"

namespace bba {

/// RANSAC parameters for rigid 2-D transform estimation.
struct RansacParams {
  int iterations = 2000;
  /// Residual threshold (meters) for a correspondence to count as an inlier.
  double inlierThreshold = 1.0;
  /// Minimum inlier count for the result to be flagged `ok`.
  int minInliers = 3;
  /// Reject hypothesis pairs closer than this (degenerate geometry).
  double minPairSeparation = 1.0;
  /// Number of final refine-and-recount rounds on the inlier set.
  int refineRounds = 2;
  /// When per-correspondence orientations are supplied, an inlier must
  /// also satisfy |(dstOrient - srcOrient) - theta| < tolerance (mod pi).
  /// This suppresses the "sliding along a wall" false consensus endemic to
  /// repetitive road scenes.
  double orientationToleranceRad = 0.30;
  /// Optional prior on the transform's rotation (mod pi, radians):
  /// hypotheses with |theta - prior| (mod pi) above the tolerance are
  /// skipped. Negative disables. BB-Align supplies the global-yaw
  /// candidate under evaluation.
  double thetaPriorModPi = -1.0;
  double thetaPriorTolerance = 0.35;
  /// Optional bound on the hypothesis translation norm (meters); negative
  /// disables. Stage 2 uses it: a box-alignment correction larger than the
  /// worst plausible stage-1 residual is a mispaired consensus, not a fix.
  double maxTranslationNorm = -1.0;
};

/// RANSAC output: the estimated transform plus the paper's confidence
/// signal — the inlier count (used by the success criterion §V-A).
struct RansacResult {
  Pose2 transform;
  int inlierCount = 0;
  std::vector<int> inlierIndices;
  bool ok = false;
};

/// Robustly estimate the rigid 2-D transform mapping src[i] -> dst[i]
/// (Algorithm 1 lines 11 & 14). Minimal sample: 2 correspondences. The
/// winning hypothesis — the first in iteration order with the most
/// inliers — is refined by least squares over its inliers.
///
/// `srcOrientations`/`dstOrientations` (optional, pi-periodic radians —
/// e.g. dominant MIM orientations) enable the orientation-consistency
/// inlier gate; pass empty spans to disable.
[[nodiscard]] RansacResult ransacRigid2D(
    std::span<const Vec2> src, std::span<const Vec2> dst,
    const RansacParams& params, Rng& rng,
    std::span<const double> srcOrientations = {},
    std::span<const double> dstOrientations = {});

/// Translation-only RANSAC (1-point hypotheses): estimates the best pure
/// translation mapping src[i] -> dst[i]. Stage 2 of BB-Align uses it: box
/// alignment predominantly corrects the *translation* residual left by
/// self-motion distortion (the paper's Fig. 14), and solving rotation from
/// a handful of noisy box corners would inject their yaw noise into an
/// already-good stage-1 rotation.
[[nodiscard]] RansacResult ransacTranslation2D(std::span<const Vec2> src,
                                               std::span<const Vec2> dst,
                                               const RansacParams& params,
                                               Rng& rng);

/// External verification signal for a candidate transform (higher is
/// better; e.g. BB-Align's BV occupancy-overlap score).
using PoseVerifier = std::function<double(const Pose2&)>;

/// Verified RANSAC: every distinct hypothesis that reaches `minInliers`
/// support is scored by `verifier`, and the *highest-scoring* hypothesis —
/// not the highest-inlier one — wins, then gets least-squares refined.
/// This is how BB-Align's stage 1 survives repetitive road corridors where
/// impostor consensus sets out-count the true pose. `verifierScore` of the
/// returned result is the winner's score (-1 if nothing qualified).
struct VerifiedRansacResult {
  RansacResult ransac;
  double verifierScore = -1.0;
};
[[nodiscard]] VerifiedRansacResult ransacRigid2DVerified(
    std::span<const Vec2> src, std::span<const Vec2> dst,
    const RansacParams& params, Rng& rng, const PoseVerifier& verifier,
    std::span<const double> srcOrientations = {},
    std::span<const double> dstOrientations = {});

}  // namespace bba
