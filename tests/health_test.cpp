// service trust layer: the per-peer health FSM (transition table, pinned
// backoff schedule), the replay guard, quarantine exclusion, and the pinned
// 3-peer adversarial scenario — one lying peer is outvoted and quarantined
// while the honest peers' results stay byte-identical to a no-liar run.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "core/bb_align.hpp"
#include "dataset/fault.hpp"
#include "dataset/sequence.hpp"
#include "obs/metrics.hpp"
#include "service/cooperation_service.hpp"
#include "service/peer_health.hpp"
#include "wire/message.hpp"

namespace bba::service {
namespace {

struct ScopedMetrics {
  explicit ScopedMetrics(obs::MetricsRegistry& r) {
    obs::installMetricsRegistry(&r);
  }
  ~ScopedMetrics() { obs::installMetricsRegistry(nullptr); }
};

// ---- FSM unit tests (no service, no recover()) ----------------------------

int edge(const PeerHealthFsm& fsm, PeerHealth from, PeerHealth to) {
  return fsm.transitions()[static_cast<std::size_t>(from)]
                          [static_cast<std::size_t>(to)];
}

TEST(PeerHealthFsm, StateNamesAreStable) {
  EXPECT_STREQ(toString(PeerHealth::Healthy), "healthy");
  EXPECT_STREQ(toString(PeerHealth::Suspect), "suspect");
  EXPECT_STREQ(toString(PeerHealth::Quarantined), "quarantined");
  EXPECT_STREQ(toString(PeerHealth::Probing), "probing");
}

TEST(PeerHealthFsm, EscalatesThroughSuspectToQuarantine) {
  PeerHealthFsm fsm;  // suspect at 2, quarantine at 4
  EXPECT_EQ(fsm.state(), PeerHealth::Healthy);
  EXPECT_TRUE(fsm.shouldProcess());
  EXPECT_EQ(fsm.onFrame(1), PeerHealth::Healthy);   // suspicion 1
  EXPECT_EQ(fsm.onFrame(1), PeerHealth::Suspect);   // suspicion 2
  EXPECT_EQ(fsm.onFrame(1), PeerHealth::Suspect);   // suspicion 3
  EXPECT_EQ(fsm.onFrame(1), PeerHealth::Quarantined);  // suspicion 4
  EXPECT_FALSE(fsm.shouldProcess());
  EXPECT_EQ(fsm.quarantines(), 1);
  EXPECT_EQ(edge(fsm, PeerHealth::Healthy, PeerHealth::Suspect), 1);
  EXPECT_EQ(edge(fsm, PeerHealth::Suspect, PeerHealth::Quarantined), 1);
}

TEST(PeerHealthFsm, DecayAbsorbsOccasionalHonestFailures) {
  PeerHealthFsm fsm;
  // Alternate one offense with one clean frame: suspicion oscillates 1/0
  // and never reaches the suspect threshold.
  for (int k = 0; k < 16; ++k) {
    EXPECT_EQ(fsm.onFrame(k % 2 == 0 ? 1 : 0), PeerHealth::Healthy) << k;
  }
  EXPECT_EQ(fsm.quarantines(), 0);
  EXPECT_EQ(edge(fsm, PeerHealth::Healthy, PeerHealth::Suspect), 0);
}

TEST(PeerHealthFsm, SuspectRecoversToHealthyOnCleanTraffic) {
  PeerHealthFsm fsm;
  (void)fsm.onFrame(2);  // suspicion 2 -> suspect
  ASSERT_EQ(fsm.state(), PeerHealth::Suspect);
  EXPECT_EQ(fsm.onFrame(0), PeerHealth::Suspect);  // suspicion 1
  EXPECT_EQ(fsm.onFrame(0), PeerHealth::Healthy);  // suspicion 0
  EXPECT_EQ(edge(fsm, PeerHealth::Suspect, PeerHealth::Healthy), 1);
}

TEST(PeerHealthFsm, SingleMassiveOffenseQuarantinesImmediately) {
  PeerHealthFsm fsm;
  // A penalty at or past the quarantine threshold takes the
  // healthy->quarantined edge directly, skipping suspect.
  EXPECT_EQ(fsm.onFrame(5), PeerHealth::Quarantined);
  EXPECT_EQ(edge(fsm, PeerHealth::Healthy, PeerHealth::Quarantined), 1);
  EXPECT_EQ(edge(fsm, PeerHealth::Healthy, PeerHealth::Suspect), 0);
}

TEST(PeerHealthFsm, PinnedBackoffScheduleDoublesToTheCap) {
  PeerHealthFsm fsm;
  // Offend every processed frame: quarantine n has backoff
  // min(64, 4 * 2^(n-1)) frames -> pinned schedule 4, 8, 16, 32, 64, 64.
  const int expected[] = {4, 8, 16, 32, 64, 64};
  for (int q = 0; q < 6; ++q) {
    while (fsm.state() != PeerHealth::Quarantined) (void)fsm.onFrame(2);
    EXPECT_EQ(fsm.quarantines(), q + 1);
    EXPECT_EQ(fsm.backoffFrames(), expected[q]) << "quarantine " << q + 1;
    // The backoff counts down one frame per onFrame call, then probation.
    for (int k = 0; k < expected[q]; ++k) {
      EXPECT_EQ(fsm.state(), PeerHealth::Quarantined) << k;
      (void)fsm.onFrame(0);
    }
    EXPECT_EQ(fsm.state(), PeerHealth::Probing);
  }
  EXPECT_EQ(edge(fsm, PeerHealth::Quarantined, PeerHealth::Probing), 6);
  EXPECT_EQ(edge(fsm, PeerHealth::Probing, PeerHealth::Quarantined), 5);
}

TEST(PeerHealthFsm, ProbationRestoresFullTrustAfterCleanStreak) {
  PeerHealthFsm fsm;  // probation: 2 clean frames
  (void)fsm.onFrame(4);                                   // quarantine
  for (int k = 0; k < fsm.backoffFrames(); ++k) (void)fsm.onFrame(0);
  ASSERT_EQ(fsm.state(), PeerHealth::Probing);
  EXPECT_EQ(fsm.onFrame(0), PeerHealth::Probing);  // clean probe 1 of 2
  EXPECT_EQ(fsm.onFrame(0), PeerHealth::Healthy);  // clean probe 2 of 2
  EXPECT_EQ(fsm.suspicion(), 0);
  EXPECT_EQ(edge(fsm, PeerHealth::Probing, PeerHealth::Healthy), 1);
}

TEST(PeerHealthFsm, TrajectoryIsAPureFunctionOfThePenaltySequence) {
  // Same penalty sequence -> byte-identical trajectory, including the
  // transition tally (no clocks, no randomness anywhere in the FSM).
  const int penalties[] = {0, 1, 2, 0, 3, 2, 0, 0, 0, 0, 0, 0, 1, 0, 4, 0};
  PeerHealthFsm a, b;
  for (int p : penalties) {
    EXPECT_EQ(a.onFrame(p), b.onFrame(p));
    EXPECT_EQ(a.suspicion(), b.suspicion());
    EXPECT_EQ(a.backoffFrames(), b.backoffFrames());
  }
  EXPECT_EQ(a.transitions(), b.transitions());
  EXPECT_EQ(a.quarantines(), b.quarantines());
}

// ---- replay guard + quarantine exclusion (cheap payloads) -----------------

/// A tiny valid payload that decodes cleanly but cannot match the
/// service's aligner (8x8 BV image): it traverses the replay guard and the
/// mismatch path without the cost of a real recovery.
std::vector<std::uint8_t> metaPayload(std::uint32_t frame,
                                      std::int64_t captureMicros) {
  wire::CooperativeMessage msg;
  msg.senderId = 1;
  msg.frameIndex = frame;
  msg.captureTimeMicros = captureMicros;
  msg.bvImage = ImageF(8, 8);
  msg.bvImage(2, 3) = 0.5f;
  return wire::encode(msg, wire::WireConfig{});
}

TEST(ReplayGuard, RejectsNonIncreasingFrameIndex) {
  // Health off: the accumulated mismatch+replay penalties would otherwise
  // quarantine the peer mid-test and mask the pure replay-guard semantics.
  ServiceConfig cfg;
  cfg.enableHealth = false;
  CooperationService svc(cfg);
  const CarPerceptionData ego;
  const auto f0 = metaPayload(0, 0);
  const auto f1 = metaPayload(1, 0);

  (void)svc.processFrame(ego, {{7, &f0}});
  // Same frame index again: a replay, rejected before the mismatch check.
  auto r = svc.processFrame(ego, {{7, &f0}});
  EXPECT_TRUE(r[0].replayRejected);
  EXPECT_FALSE(r[0].payloadMismatch);
  // A fresh index is accepted (and then counted as the usual mismatch).
  r = svc.processFrame(ego, {{7, &f1}});
  EXPECT_FALSE(r[0].replayRejected);
  EXPECT_TRUE(r[0].payloadMismatch);
  // Going backwards is rejected too.
  r = svc.processFrame(ego, {{7, &f0}});
  EXPECT_TRUE(r[0].replayRejected);

  const ServiceReport rep = svc.report();
  ASSERT_EQ(rep.sessions.size(), 1u);
  EXPECT_EQ(rep.sessions[0].replayRejects, 2);
  EXPECT_EQ(rep.sessions[0].payloadMismatch, 2);  // frames 0 and 1
  EXPECT_EQ(rep.sessions[0].decodeFailed, 0);     // replays are not decode errors
}

TEST(ReplayGuard, RejectsBackwardCaptureTimeButExemptsUnstamped) {
  CooperationService svc;
  const CarPerceptionData ego;
  const auto a = metaPayload(1, 5000);
  const auto stale = metaPayload(2, 4000);   // index advances, clock rewinds
  const auto unstamped = metaPayload(3, 0);  // capture time not set

  (void)svc.processFrame(ego, {{7, &a}});
  auto r = svc.processFrame(ego, {{7, &stale}});
  EXPECT_TRUE(r[0].replayRejected);
  // Capture time 0 means "not stamped": the frame-index guard alone
  // applies, so this one passes.
  r = svc.processFrame(ego, {{7, &unstamped}});
  EXPECT_FALSE(r[0].replayRejected);
}

TEST(ReplayGuard, CanBeDisabled) {
  ServiceConfig cfg;
  cfg.enableReplayGuard = false;
  CooperationService svc(cfg);
  const CarPerceptionData ego;
  const auto f0 = metaPayload(0, 0);
  (void)svc.processFrame(ego, {{7, &f0}});
  const auto r = svc.processFrame(ego, {{7, &f0}});
  EXPECT_FALSE(r[0].replayRejected);
  EXPECT_TRUE(r[0].payloadMismatch);
}

TEST(ServiceHealth, PersistentReplayQuarantinesAndBacksOff) {
  ServiceConfig cfg;  // defaults: replay penalty 2, quarantine at 4
  CooperationService svc(cfg);
  const CarPerceptionData ego;
  const auto f0 = metaPayload(0, 0);

  obs::MetricsRegistry reg;
  ScopedMetrics install(reg);
  // Frame 0 accepts the metadata (mismatch, penalty 1). Every further
  // delivery of the same payload is a replay (penalty 2): suspicion
  // 1, 3, 5 -> quarantined after the third frame.
  std::vector<PeerHealth> states;
  for (int k = 0; k < 8; ++k) {
    const auto r = svc.processFrame(ego, {{7, &f0}});
    states.push_back(r[0].health);
  }
  EXPECT_EQ(states[0], PeerHealth::Healthy);      // suspicion 1
  EXPECT_EQ(states[1], PeerHealth::Suspect);      // suspicion 3
  EXPECT_EQ(states[2], PeerHealth::Quarantined);  // suspicion 5
  // Backoff of the first quarantine is 4 frames: 3, 4, 5, 6 excluded.
  for (int k = 3; k <= 5; ++k)
    EXPECT_EQ(states[static_cast<std::size_t>(k)], PeerHealth::Quarantined);
  EXPECT_EQ(states[6], PeerHealth::Probing);
  // The probe frame replays again -> straight back to quarantine with a
  // doubled backoff.
  EXPECT_EQ(states[7], PeerHealth::Quarantined);

  const ServiceReport rep = svc.report();
  ASSERT_EQ(rep.sessions.size(), 1u);
  const SessionStats& st = rep.sessions[0];
  EXPECT_EQ(st.quarantines, 2);
  EXPECT_EQ(st.quarantinedFrames, 4);  // frames 3..6 skipped
  EXPECT_EQ(st.replayRejects, 3);      // frames 1, 2 and the probe frame 7
  EXPECT_EQ(st.health, PeerHealth::Quarantined);
  EXPECT_EQ(st.healthTransitions[static_cast<int>(PeerHealth::Probing)]
                                [static_cast<int>(PeerHealth::Quarantined)],
            1);
#if defined(BBA_OBSERVABILITY_ENABLED)
  EXPECT_EQ(reg.counter("health.replay_rejected").value(), 3);
  EXPECT_EQ(reg.counter("health.quarantined_frames").value(), 4);
  EXPECT_EQ(reg.counter("health.to_suspect").value(), 1);
  EXPECT_EQ(reg.counter("health.to_quarantined").value(), 2);
  EXPECT_EQ(reg.counter("health.to_probing").value(), 1);
  EXPECT_EQ(reg.counter("health.frames").value(), 8);
#endif
}

TEST(ServiceHealth, QuarantinedPeerIsNotEvenDecoded) {
  CooperationService svc;
  const CarPerceptionData ego;
  const auto f0 = metaPayload(0, 0);
  for (int k = 0; k < 3; ++k) (void)svc.processFrame(ego, {{7, &f0}});
  // Quarantined now: the next frame's payload is never decoded.
  const auto r = svc.processFrame(ego, {{7, &f0}});
  EXPECT_TRUE(r[0].quarantined);
  EXPECT_FALSE(r[0].received);
  EXPECT_EQ(r[0].payloadBytes, 0u);
  const ServiceReport rep = svc.report();
  // decode counters froze at the pre-quarantine values.
  EXPECT_EQ(rep.sessions[0].payloadMismatch, 1);
  EXPECT_EQ(rep.sessions[0].replayRejects, 2);
}

TEST(ServiceHealth, DisabledHealthNeverQuarantines) {
  ServiceConfig cfg;
  cfg.enableHealth = false;
  CooperationService svc(cfg);
  const CarPerceptionData ego;
  const auto f0 = metaPayload(0, 0);
  for (int k = 0; k < 8; ++k) {
    const auto r = svc.processFrame(ego, {{7, &f0}});
    EXPECT_FALSE(r[0].quarantined) << k;
    EXPECT_EQ(r[0].health, PeerHealth::Healthy) << k;
  }
  EXPECT_EQ(svc.report().sessions[0].quarantines, 0);
}

TEST(ServiceHealth, ReportJsonCarriesTheHealthBlock) {
  CooperationService svc;
  const CarPerceptionData ego;
  const auto f0 = metaPayload(0, 0);
  for (int k = 0; k < 3; ++k) (void)svc.processFrame(ego, {{7, &f0}});
  const std::string json = svc.report().toJson();
  EXPECT_NE(json.find("\"health\":{\"state\":\"quarantined\""),
            std::string::npos);
  EXPECT_NE(json.find("\"replay_rejects\":2"), std::string::npos);
  EXPECT_NE(json.find("\"healthy>suspect\":1"), std::string::npos);
  EXPECT_NE(json.find("\"suspect>quarantined\":1"), std::string::npos);
  int depth = 0;
  for (char c : json) {
    if (c == '{') ++depth;
    if (c == '}') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

// ---- pinned 3-peer adversarial scenario (real recover()) ------------------

/// Four frames of the stream_test scenario family (seed 7, 30 m
/// separation): every payload is recoverable by the reduced-iteration
/// aligner below.
const std::vector<StreamFrame>& advScenarioFrames() {
  static const std::vector<StreamFrame> frames = [] {
    SequenceConfig sc;
    sc.seed = 7;
    sc.frames = 4;
    sc.scenario.separation = 30.0;
    return SequenceGenerator(sc).generate();
  }();
  return frames;
}

struct AdvRun {
  ServiceReport report;
  std::string reportJson;
  std::vector<std::vector<SessionFrameResult>> frames;
};

/// Three peers stream the same recoverable payload with pose-prior CLAIMS
/// attached; with `withSpoofer`, peer 2's claim is offset by the
/// adversarial pose-spoof channel (8 m + 25 deg) while its geometry stays
/// honest — only the cross-peer consistency vote can catch it.
/// usePosePriors is off so claims feed the vote and never the trackers:
/// the honest peers' inputs are bit-identical across both variants.
AdvRun runAdversarial(int threads, bool withSpoofer) {
  ThreadLimit limit(threads);
  const std::vector<StreamFrame>& frames = advScenarioFrames();

  ServiceConfig cfg;
  cfg.seed = 42;
  cfg.usePosePriors = false;
  // 6x fewer RANSAC draws than the defaults: still recovers every frame
  // of this scenario, keeps the 3-peer sweep affordable on one core.
  cfg.tracker.aligner.ransacBv.iterations = 2000;
  cfg.tracker.aligner.ransacBox.iterations = 200;
  CooperationService svc(cfg);
  const BBAlign aligner(cfg.tracker.aligner);

  FaultConfig fc;
  fc.seed = 5;
  fc.poseSpoofProb = 1.0;  // lie every frame
  const FaultInjector adv(fc);

  AdvRun run;
  for (std::size_t k = 0; k < frames.size(); ++k) {
    const StreamFrame& f = frames[k];
    const CarPerceptionData ego =
        aligner.makeCarData(f.egoCloud, f.egoDets);
    const CarPerceptionData other =
        aligner.makeCarData(f.otherCloud, f.otherDets);
    const Pose2 claim = f.gtDeliveredOtherToEgo;
    const std::vector<std::uint8_t> honest =
        svc.sendFrame(other, 1, static_cast<std::uint32_t>(k), nullptr,
                      &claim, static_cast<std::int64_t>(k + 1) * 100000);
    const Pose2 lie =
        adv.adversarialFaults(static_cast<int>(k)).spoofDelta.compose(claim);
    const std::vector<std::uint8_t> spoofed =
        svc.sendFrame(other, 2, static_cast<std::uint32_t>(k), nullptr,
                      &lie, static_cast<std::int64_t>(k + 1) * 100000);

    std::vector<PeerFrameInput> inputs;
    inputs.push_back({1, &honest});
    inputs.push_back({2, withSpoofer ? &spoofed : &honest});
    inputs.push_back({3, &honest});
    run.frames.push_back(svc.processFrame(ego, inputs));
  }
  run.report = svc.report();
  run.reportJson = run.report.toJson();
  return run;
}

const AdvRun& advAt1Thread() {
  static const AdvRun r = runAdversarial(1, /*withSpoofer=*/true);
  return r;
}

const AdvRun& advAt8Threads() {
  static const AdvRun r = runAdversarial(8, /*withSpoofer=*/true);
  return r;
}

const AdvRun& cleanAt1Thread() {
  static const AdvRun r = runAdversarial(1, /*withSpoofer=*/false);
  return r;
}

TEST(AdversarialScenario, SpooferIsOutvotedAndQuarantinedWithinTwoFrames) {
  const AdvRun& run = advAt1Thread();
  ASSERT_EQ(run.frames.size(), 4u);
  // Frame 0: all three recover; the spoofer's claim disagrees with both
  // honest pairs -> outlier (penalty 2, suspect).
  EXPECT_TRUE(run.frames[0][1].track.poseValid);
  EXPECT_TRUE(run.frames[0][1].consistencyOutlier);
  EXPECT_EQ(run.frames[0][1].health, PeerHealth::Suspect);
  // Frame 1: outvoted again -> quarantined (detection within 2 frames).
  EXPECT_TRUE(run.frames[1][1].consistencyOutlier);
  EXPECT_EQ(run.frames[1][1].health, PeerHealth::Quarantined);
  // Frames 2..3: excluded from processing entirely.
  EXPECT_TRUE(run.frames[2][1].quarantined);
  EXPECT_TRUE(run.frames[3][1].quarantined);

  ASSERT_EQ(run.report.sessions.size(), 3u);
  const SessionStats& spoofer = run.report.sessions[1];
  EXPECT_EQ(spoofer.consistencyOutliers, 2);
  EXPECT_EQ(spoofer.quarantines, 1);
  EXPECT_EQ(spoofer.quarantinedFrames, 2);
  EXPECT_EQ(spoofer.health, PeerHealth::Quarantined);
}

TEST(AdversarialScenario, HonestPeersAreNeverFlagged) {
  const AdvRun& run = advAt1Thread();
  for (std::size_t k = 0; k < run.frames.size(); ++k) {
    for (std::size_t s : {std::size_t{0}, std::size_t{2}}) {
      EXPECT_FALSE(run.frames[k][s].consistencyOutlier) << k;
      EXPECT_FALSE(run.frames[k][s].quarantined) << k;
      EXPECT_EQ(run.frames[k][s].health, PeerHealth::Healthy) << k;
      EXPECT_EQ(run.frames[k][s].track.outcome, TrackerOutcome::Recovered)
          << k;
    }
  }
  // With the spoofer quarantined (frames 2..3) only two voters remain —
  // below consistencyMinPeers, so no vote runs and nobody gets flagged.
  EXPECT_EQ(run.report.sessions[0].consistencyOutliers, 0);
  EXPECT_EQ(run.report.sessions[2].consistencyOutliers, 0);
}

TEST(AdversarialScenario, HonestResultsAreByteIdenticalToTheCleanRun) {
  const AdvRun& adv = advAt1Thread();
  const AdvRun& clean = cleanAt1Thread();
  const std::vector<StreamFrame>& frames = advScenarioFrames();
  ASSERT_EQ(adv.frames.size(), clean.frames.size());
  for (std::size_t k = 0; k < adv.frames.size(); ++k) {
    for (std::size_t s : {std::size_t{0}, std::size_t{2}}) {
      const SessionFrameResult& a = adv.frames[k][s];
      const SessionFrameResult& c = clean.frames[k][s];
      // Byte-identical poses: the liar was excluded, not averaged in.
      EXPECT_EQ(a.track.pose.t.x, c.track.pose.t.x) << k;
      EXPECT_EQ(a.track.pose.t.y, c.track.pose.t.y) << k;
      EXPECT_EQ(a.track.pose.theta, c.track.pose.theta) << k;
      EXPECT_EQ(a.track.confidence, c.track.confidence) << k;
      // The acceptance criterion spelled out: the honest translation
      // error moves by less than a centimeter (here: not at all).
      const double terrAdv =
          poseError(a.track.pose, frames[k].gtDeliveredOtherToEgo)
              .translation;
      const double terrClean =
          poseError(c.track.pose, frames[k].gtDeliveredOtherToEgo)
              .translation;
      EXPECT_NEAR(terrAdv, terrClean, 0.01);
    }
  }
}

TEST(AdversarialScenario, ByteIdenticalAt1And8Threads) {
  const AdvRun& one = advAt1Thread();
  const AdvRun& eight = advAt8Threads();
  EXPECT_EQ(one.reportJson, eight.reportJson);
  ASSERT_EQ(one.frames.size(), eight.frames.size());
  for (std::size_t k = 0; k < one.frames.size(); ++k) {
    for (std::size_t s = 0; s < one.frames[k].size(); ++s) {
      const SessionFrameResult& a = one.frames[k][s];
      const SessionFrameResult& b = eight.frames[k][s];
      EXPECT_EQ(a.quarantined, b.quarantined);
      EXPECT_EQ(a.consistencyOutlier, b.consistencyOutlier);
      EXPECT_EQ(a.health, b.health);
      EXPECT_EQ(a.track.pose.t.x, b.track.pose.t.x);
      EXPECT_EQ(a.track.pose.t.y, b.track.pose.t.y);
      EXPECT_EQ(a.track.pose.theta, b.track.pose.theta);
    }
  }
}

}  // namespace
}  // namespace bba::service
