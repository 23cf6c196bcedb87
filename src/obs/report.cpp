#include "obs/report.hpp"

#include <cstdio>

namespace bba {

const char* toString(RecoveryFailure f) {
  switch (f) {
    case RecoveryFailure::None:
      return "none";
    case RecoveryFailure::Stage1NoConsensus:
      return "stage1_no_consensus";
    case RecoveryFailure::Stage1LowOverlap:
      return "stage1_low_overlap";
    case RecoveryFailure::BoxAlignmentDisabled:
      return "box_alignment_disabled";
    case RecoveryFailure::Stage2NoConsensus:
      return "stage2_no_consensus";
    case RecoveryFailure::Stage2Unbounded:
      return "stage2_unbounded";
    case RecoveryFailure::InlierThreshold:
      return "inlier_threshold";
  }
  return "?";
}

std::string PoseRecoveryReport::toJson(bool includeTimings) const {
  std::string out;
  out.reserve(1536);
  char buf[1024];
  out += '{';
  if (includeTimings) {
    std::snprintf(
        buf, sizeof buf,
        "\"ms\":{\"mim\":%.3f,\"keypoints\":%.3f,\"descriptors\":%.3f,"
        "\"matching\":%.3f,\"ransac_bv\":%.3f,\"icp_polish\":%.3f,"
        "\"stage2\":%.3f,\"total\":%.3f},",
        msMim, msKeypoints, msDescriptors, msMatching, msRansacBv,
        msIcpPolish, msStage2, msTotal);
    out += buf;
  }
  std::snprintf(
      buf, sizeof buf,
      "\"stage1\":{\"keypoints_ego\":%d,\"keypoints_other\":%d,"
      "\"descriptors_ego\":%d,\"descriptors_other\":%d,"
      "\"yaw_candidates\":%d,\"yaw_candidates_listed\":%d,"
      "\"yaw_winner\":%d,\"yaw_runner_up_overlap\":%.6f,"
      "\"descriptor_matches\":%d,"
      "\"ransac_iterations\":%lld,\"inliers_bv\":%d,\"overlap_score\":%.6f},"
      "\"stage2\":{\"box_pairs\":%d,\"ransac_iterations\":%lld,"
      "\"inliers_box\":%d},"
      "\"outcome\":{\"stage1_ok\":%s,\"stage2_ok\":%s,\"success\":%s,"
      "\"failure\":\"%s\"},"
      "\"validation\":{\"computed\":%s,\"bv_overlap\":%.6f,"
      "\"corner_residual\":%.6f,\"box_iou\":%.6f,\"boxes_compared\":%d,"
      "\"score\":%.6f}}",
      keypointsEgo, keypointsOther, descriptorsEgo, descriptorsOther,
      yawCandidates, yawCandidatesListed, yawWinner, yawRunnerUpOverlap,
      descriptorMatches,
      static_cast<long long>(ransacBvIterations), inliersBv, overlapScore,
      boxPairs, static_cast<long long>(ransacBoxIterations), inliersBox,
      stage1Ok ? "true" : "false", stage2Ok ? "true" : "false",
      success ? "true" : "false", toString(failure),
      validation.computed ? "true" : "false", validation.bvOverlap,
      validation.meanCornerResidual, validation.meanBoxIou,
      validation.boxesCompared, validation.score);
  out += buf;
  return out;
}

}  // namespace bba
