// Adversarial robustness sweep — peer-health quarantine speed and the
// gt-free validation gate under active attacks.
//
// Two experiments:
//
//  A. Pose-claim spoofing vs the cross-peer consistency vote: a 3-peer
//     service streams one recoverable scenario; peer 2 attaches spoofed
//     pose claims of increasing magnitude. The table reports how many
//     frames the liar survives before quarantine and what the attack
//     costs the honest peers (mean translation error delta vs the
//     no-adversary run — pinned to ~0 by the exclusion design).
//
//  B. Coherent box lies vs the validation gate: every transmitted box
//     teleported by one common offset makes recover() "succeed" meters
//     off the truth. Honest and attacked recoveries are scored by the
//     gt-free PoseValidation, and a threshold sweep reports the
//     reject-rate separation (the operating curve behind the tracker's
//     kMinValidationScore = 0.5).
//
// Reproduce:  build/bench/adversarial   (BBA_BENCH_PAIRS scales the frame
// count; the sweep is deterministic for a fixed count).
#include <cstdio>
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "common/stats.hpp"
#include "dataset/fault.hpp"
#include "dataset/sequence.hpp"
#include "service/cooperation_service.hpp"
#include "stream/pose_tracker.hpp"

namespace {

using namespace bba;
using namespace bba::service;

/// Reduced-iteration aligner (6x fewer RANSAC draws than the defaults):
/// still recovers every frame of the seed-7 scenario, keeps the 3-peer
/// sweep affordable on one core.
BBAlignConfig cheapAligner() {
  BBAlignConfig a;
  a.ransacBv.iterations = 2000;
  a.ransacBox.iterations = 200;
  return a;
}

const std::vector<StreamFrame>& scenarioFrames(int count) {
  static int cached = -1;
  static std::vector<StreamFrame> frames;
  if (cached != count) {
    SequenceConfig sc;
    sc.seed = 7;
    sc.frames = count;
    sc.scenario.separation = 30.0;
    frames = SequenceGenerator(sc).generate();
    cached = count;
  }
  return frames;
}

struct SpoofResult {
  int framesToQuarantine = -1;  ///< -1: never quarantined
  int quarantinedFrames = 0;
  int consistencyOutliers = 0;
  double honestTerr = 0.0;  ///< mean over honest peers' valid poses
};

/// One service run: peers 1 and 3 honest, peer 2 spoofing its pose claim
/// by `spoofOffset` meters (0 = fully honest control run). Claims feed
/// only the cross-peer vote (usePosePriors off), so honest inputs are
/// bit-identical across every cell of the sweep.
SpoofResult runSpoofCell(double spoofOffset, int frameCount) {
  const std::vector<StreamFrame>& frames = scenarioFrames(frameCount);

  ServiceConfig cfg;
  cfg.seed = 42;
  cfg.usePosePriors = false;
  cfg.tracker.aligner = cheapAligner();
  CooperationService svc(cfg);
  const BBAlign aligner(cfg.tracker.aligner);

  FaultConfig fc;
  fc.seed = 5;
  fc.poseSpoofProb = spoofOffset > 0.0 ? 1.0 : 0.0;
  fc.poseSpoofOffset = spoofOffset;
  fc.poseSpoofYawDeg = spoofOffset * 3.0;  // yaw lie rides along
  const FaultInjector adv(fc);

  SpoofResult out;
  double terrSum = 0.0;
  int terrCount = 0;
  for (std::size_t k = 0; k < frames.size(); ++k) {
    const StreamFrame& f = frames[k];
    const CarPerceptionData ego = aligner.makeCarData(f.egoCloud, f.egoDets);
    const CarPerceptionData other =
        aligner.makeCarData(f.otherCloud, f.otherDets);
    const Pose2 claim = f.gtDeliveredOtherToEgo;
    const auto honest =
        svc.sendFrame(other, 1, static_cast<std::uint32_t>(k), nullptr,
                      &claim, static_cast<std::int64_t>(k + 1) * 100000);
    const AdversarialFaults af = adv.adversarialFaults(static_cast<int>(k));
    const Pose2 lie = af.poseSpoofed ? af.spoofDelta.compose(claim) : claim;
    const auto spoofed =
        svc.sendFrame(other, 2, static_cast<std::uint32_t>(k), nullptr,
                      &lie, static_cast<std::int64_t>(k + 1) * 100000);

    std::vector<PeerFrameInput> inputs;
    inputs.push_back({1, &honest});
    inputs.push_back({2, &spoofed});
    inputs.push_back({3, &honest});
    const auto results = svc.processFrame(ego, inputs);

    if (out.framesToQuarantine < 0 &&
        results[1].health == PeerHealth::Quarantined)
      out.framesToQuarantine = static_cast<int>(k) + 1;
    for (std::size_t s : {std::size_t{0}, std::size_t{2}}) {
      if (!results[s].track.poseValid) continue;
      terrSum +=
          poseError(results[s].track.pose, f.gtDeliveredOtherToEgo)
              .translation;
      ++terrCount;
    }
    std::fprintf(stderr, "\r  spoof=%.1fm  frame %zu/%zu   ", spoofOffset,
                 k + 1, frames.size());
  }
  std::fprintf(stderr, "\r%*s\r", 60, "");
  const ServiceReport rep = svc.report();
  out.quarantinedFrames = rep.sessions[1].quarantinedFrames;
  out.consistencyOutliers = rep.sessions[1].consistencyOutliers;
  out.honestTerr = terrCount > 0 ? terrSum / terrCount : 0.0;
  return out;
}

struct ScoredRecovery {
  double score = 0.0;
  double terr = 0.0;
  bool success = false;
};

ScoredRecovery scoreOne(const BBAlign& aligner, const CarPerceptionData& other,
                        const CarPerceptionData& ego, const Pose2& gt,
                        Rng& rng) {
  PoseRecoveryReport rep;
  const PoseRecoveryResult r = aligner.recover(other, ego, rng, &rep);
  ScoredRecovery out;
  out.success = r.success;
  if (r.success) {
    out.score = rep.validation.score;
    out.terr = poseError(r.estimate, gt).translation;
  }
  return out;
}

}  // namespace

int main() {
  bench::printHeader(
      std::cout, "Adversarial robustness — quarantine speed and the gt-free "
                 "validation gate",
      "a lying peer is outvoted and excluded within two frames while honest "
      "peers' results are untouched; coherent box lies that fool recover() "
      "are caught by the validation score");

  const int frames = bench::pairCount(5);

  // ---- A: pose-claim spoofing vs the consistency vote ---------------------
  std::printf("\nA. Pose-claim spoofing (3 peers, 1 liar, %d frames)\n",
              frames);
  std::printf("%-10s | %-12s %-9s %-9s | %-12s %-12s\n", "spoof", "to-quar",
              "quar-frm", "outliers", "honest-terr", "terr-delta");
  std::printf("%.*s\n", 76,
              "--------------------------------------------------------------"
              "--------------");
  std::printf("# CSV: spoof_m,frames_to_quarantine,quarantined_frames,"
              "consistency_outliers,honest_terr_m,honest_terr_delta_m\n");
  const SpoofResult clean = runSpoofCell(0.0, frames);
  for (double spoof : {0.0, 1.0, 3.0, 8.0}) {
    const SpoofResult r =
        spoof == 0.0 ? clean : runSpoofCell(spoof, frames);
    char toQuar[16];
    if (r.framesToQuarantine < 0)
      std::snprintf(toQuar, sizeof(toQuar), "never");
    else
      std::snprintf(toQuar, sizeof(toQuar), "%d", r.framesToQuarantine);
    std::printf("%-10.1f | %-12s %-9d %-9d | %-12.4f %-+12.4f\n", spoof,
                toQuar, r.quarantinedFrames, r.consistencyOutliers,
                r.honestTerr, r.honestTerr - clean.honestTerr);
    std::printf("# CSV: %.1f,%d,%d,%d,%.4f,%.4f\n", spoof,
                r.framesToQuarantine, r.quarantinedFrames,
                r.consistencyOutliers, r.honestTerr,
                r.honestTerr - clean.honestTerr);
  }
  std::printf(
      "Sub-threshold lies (< 2 m consistency gate) are indistinguishable "
      "from noise and\ntolerated; super-threshold lies are outvoted and "
      "quarantined. Honest error delta\nstays ~0: exclusion never reshapes "
      "honest sessions.\n");

  // ---- B: validation-score separation under coherent box lies -------------
  std::printf("\nB. Validation gate vs coherent box teleports (%d frames)\n",
              frames);
  const BBAlign aligner(cheapAligner());
  FaultConfig fc;
  fc.seed = 5;
  fc.boxTeleportProb = 1.0;
  const FaultInjector inj(fc);

  std::vector<ScoredRecovery> honest, attacked;
  const std::vector<StreamFrame>& fs = scenarioFrames(frames);
  Rng rng(11);
  for (int k = 0; k < frames; ++k) {
    const StreamFrame& f = fs[static_cast<std::size_t>(k)];
    const CarPerceptionData ego = aligner.makeCarData(f.egoCloud, f.egoDets);
    const CarPerceptionData other =
        aligner.makeCarData(f.otherCloud, f.otherDets);
    CarPerceptionData lied = other;
    inj.applyAdversarialBoxFaults(lied.boxes, k);
    honest.push_back(
        scoreOne(aligner, other, ego, f.gtDeliveredOtherToEgo, rng));
    attacked.push_back(
        scoreOne(aligner, lied, ego, f.gtDeliveredOtherToEgo, rng));
    std::fprintf(stderr, "\r  validation  frame %d/%d   ", k + 1, frames);
  }
  std::fprintf(stderr, "\r%*s\r", 60, "");

  std::printf("%-9s %-9s %-9s | %-9s %-9s %-9s\n", "", "score", "terr(m)",
              "", "score", "terr(m)");
  for (int k = 0; k < frames; ++k) {
    std::printf("%-9s %-9.4f %-9.4f | %-9s %-9.4f %-9.4f\n",
                k == 0 ? "honest" : "", honest[k].score, honest[k].terr,
                k == 0 ? "attacked" : "", attacked[k].score,
                attacked[k].terr);
  }
  std::printf("\n%-10s | %-14s %-14s\n", "threshold", "attack-reject",
              "honest-reject");
  std::printf("# CSV: threshold,attack_reject_rate,honest_reject_rate\n");
  for (double th : {0.30, 0.40, 0.50, 0.60, 0.70, 0.80}) {
    int ar = 0, hr = 0;
    for (const auto& s : attacked)
      if (!s.success || s.score < th) ++ar;
    for (const auto& s : honest)
      if (!s.success || s.score < th) ++hr;
    std::printf("%-10.2f | %7d/%-6d %7d/%-6d\n", th, ar, frames, hr, frames);
    std::printf("# CSV: %.2f,%.4f,%.4f\n", th,
                static_cast<double>(ar) / frames,
                static_cast<double>(hr) / frames);
  }
  std::printf(
      "\nThe default gate (0.5) sits inside the honest/attacked score gap: "
      "it rejects the\nsuccessful-but-wrong recoveries without taxing honest "
      "traffic.\n");
  return 0;
}
