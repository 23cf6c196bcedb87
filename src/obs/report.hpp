#pragma once

#include <cstdint>
#include <string>

namespace bba {

/// Why one BBAlign::recover call did not reach the paper's success
/// criterion (None on success). The causes mirror §V-A's failure analysis:
/// stage-1 consensus, stage-1 verification, stage-2 consensus, the bounded-
/// correction guard, and the final inlier-count thresholds.
enum class RecoveryFailure {
  None,                  ///< success
  Stage1NoConsensus,     ///< BV RANSAC found no qualifying hypothesis
  Stage1LowOverlap,      ///< best hypothesis failed occupancy verification
  BoxAlignmentDisabled,  ///< stage 2 turned off (Fig. 14 ablation config)
  Stage2NoConsensus,     ///< box-corner RANSAC found no qualifying model
  Stage2Unbounded,       ///< correction exceeded the refinement bound
  InlierThreshold,       ///< both stages ok, Inliers_bv/Inliers_box too low
};

[[nodiscard]] const char* toString(RecoveryFailure f);

/// Ground-truth-free validation of one *successful* recovery: how well the
/// recovered transform explains the payload it was estimated from. Two
/// complementary residuals — the BV-occupancy overlap under the FINAL
/// estimate (a box-spoofing attack shifts the estimate off the structure)
/// and the transformed-box corner residual / IoU against the ego boxes (a
/// BV-level impostor alignment misplaces the boxes) — so an adversary has
/// to fake both modalities consistently to pass. Computed without any
/// ground truth; a trusted-pose replacement (the whole point of BB-Align)
/// must be able to score itself.
struct PoseValidation {
  /// The validation ran (recover() reached a successful estimate).
  bool computed = false;
  /// Occupancy-overlap score of the final estimate (same verifier as the
  /// stage-1 hypothesis check, but on T_2D instead of T_bv).
  double bvOverlap = 0.0;
  /// Mean corner distance (meters) between transformed other boxes and
  /// their paired ego boxes; 0 when no boxes paired.
  double meanCornerResidual = 0.0;
  /// Mean rotated IoU over the paired boxes; 0 when none paired.
  double meanBoxIou = 0.0;
  /// Box pairs entering the residuals (pairing by nearest center).
  int boxesCompared = 0;
  /// Combined score in [0, 1]: the minimum of the BV term and the box
  /// term — an attack only has to break one modality, so the gate must
  /// listen to the weaker one.
  double score = 0.0;
};

/// Structured per-call account of one pose recovery: where the time went,
/// how much material each stage had to work with, and why the call
/// succeeded or failed. Returned alongside the pose (pass a report pointer
/// to BBAlign::recover) so callers and benches consume these numbers
/// instead of recomputing them. Filling a report never perturbs the
/// estimate: poses are byte-identical with and without one.
struct PoseRecoveryReport {
  // ---- stage wall-clock, milliseconds (0 between untimed stages) -------
  double msMim = 0.0;          ///< both BV images through the Log-Gabor bank
  double msKeypoints = 0.0;    ///< keypoint detection, both images
  double msDescriptors = 0.0;  ///< keypoint orientation + descriptor passes
  double msMatching = 0.0;     ///< descriptor matching this call did
  double msRansacBv = 0.0;     ///< stage-1 verified RANSAC, all candidates
  double msIcpPolish = 0.0;    ///< dense BV-ICP polish
  double msStage2 = 0.0;       ///< box pairing + box-corner RANSAC
  double msTotal = 0.0;        ///< whole recover() call

  // ---- stage-1 material ------------------------------------------------
  int keypointsEgo = 0;
  int keypointsOther = 0;
  int descriptorsEgo = 0;    ///< keypoints surviving descriptor extraction
  int descriptorsOther = 0;  ///< same, for the winning yaw candidate
  int yawCandidates = 0;     ///< global-yaw hypotheses evaluated
  /// Global-yaw hypotheses listed; those past `yawCandidates` were skipped
  /// by the decisive-prior stop (BBAlign::recover's YawSearch).
  int yawCandidatesListed = 0;
  /// List index of the candidate whose verified hypothesis won stage 1;
  /// -1 when no candidate verified one.
  int yawWinner = -1;
  /// Best verified overlap among the other evaluated candidates: the
  /// runner-up to the winner's overlapScore; -1 when none verified.
  double yawRunnerUpOverlap = -1.0;
  int descriptorMatches = 0; ///< matches fed to RANSAC (winning candidate)
  std::int64_t ransacBvIterations = 0;  ///< total across yaw candidates
  int inliersBv = 0;
  double overlapScore = 0.0;

  // ---- stage-2 material ------------------------------------------------
  int boxPairs = 0;
  std::int64_t ransacBoxIterations = 0;
  int inliersBox = 0;

  // ---- outcome ---------------------------------------------------------
  bool stage1Ok = false;
  bool stage2Ok = false;
  bool success = false;
  RecoveryFailure failure = RecoveryFailure::None;

  // ---- gt-free validation (filled on success) --------------------------
  PoseValidation validation;

  /// One JSON object with every field above (stable key names). With
  /// `includeTimings == false` the wall-clock "ms" object is omitted — the
  /// remaining fields are deterministic, so the export is byte-comparable
  /// across runs and thread counts.
  [[nodiscard]] std::string toJson(bool includeTimings = true) const;
};

}  // namespace bba
