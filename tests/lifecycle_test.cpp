// session lifecycle (PR 10): typed admission outcomes, deterministic
// eviction under maxSessions pressure, the silent-peer reaper, reconnect
// semantics, and the fleet-churn fault channel — plus the property test
// that random join/leave/silence schedules conserve stats and stay
// byte-identical at any thread count.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/parallel.hpp"
#include "dataset/fault.hpp"
#include "dataset/sequence.hpp"
#include "obs/metrics.hpp"
#include "service/cooperation_service.hpp"
#include "service/session_lifecycle.hpp"
#include "wire/message.hpp"

namespace bba::service {
namespace {

// ---- eviction score: pure, ordered, protective ---------------------------

EvictionCandidate candidate(std::uint64_t id, PeerHealth h, int silent,
                            int stale, bool track, double conf) {
  EvictionCandidate c;
  c.peerId = id;
  c.health = h;
  c.silentRunFrames = silent;
  c.lockStaleFrames = stale;
  c.hasTrack = track;
  c.lastConfidence = conf;
  return c;
}

TEST(EvictionScore, IsAPureFunctionOfTheCandidate) {
  const EvictionCandidate c =
      candidate(7, PeerHealth::Suspect, 3, 12, true, 0.4);
  EXPECT_EQ(evictionScore(c), evictionScore(c));
}

TEST(EvictionScore, OrdersByHealthSilenceAndLockQuality) {
  const double fresh =
      evictionScore(candidate(1, PeerHealth::Healthy, 0, 0, true, 1.0));
  const double stale =
      evictionScore(candidate(2, PeerHealth::Healthy, 0, 50, true, 1.0));
  const double silent =
      evictionScore(candidate(3, PeerHealth::Healthy, 6, 0, true, 1.0));
  const double trackless =
      evictionScore(candidate(4, PeerHealth::Healthy, 0, 0, false, 0.0));
  const double quarantined =
      evictionScore(candidate(5, PeerHealth::Quarantined, 0, 0, true, 1.0));
  EXPECT_LT(fresh, stale);
  EXPECT_LT(fresh, silent);
  EXPECT_LT(fresh, trackless);
  EXPECT_LT(stale, quarantined);
  EXPECT_LT(silent, quarantined);
  EXPECT_LT(trackless, quarantined);
  // Lock staleness saturates at the cap: an ancient lock is not
  // infinitely worse than a merely old one.
  const double ancient =
      evictionScore(candidate(6, PeerHealth::Healthy, 0, 100000, true, 1.0));
  EXPECT_EQ(ancient, evictionScore(candidate(6, PeerHealth::Healthy, 0,
                                             kLockStalenessCapFrames, true,
                                             1.0)));
}

TEST(EvictionScore, FreshHealthyLockedSessionIsProtected) {
  const LifecycleConfig cfg;
  const std::vector<EvictionCandidate> only = {
      candidate(9, PeerHealth::Healthy, 0, 0, true, 1.0)};
  EXPECT_LT(evictionScore(only[0]), cfg.minEvictionScore);
  EXPECT_FALSE(pickEvictionVictim(only, cfg).has_value());
}

TEST(EvictionScore, VictimIsHighestScoreLowestIdRegardlessOfOrder) {
  const LifecycleConfig cfg;
  const EvictionCandidate worse =
      candidate(20, PeerHealth::Quarantined, 5, 50, false, 0.0);
  const EvictionCandidate bad =
      candidate(10, PeerHealth::Healthy, 5, 50, false, 0.0);
  const EvictionCandidate tieOfBad =
      candidate(11, PeerHealth::Healthy, 5, 50, false, 0.0);
  auto v1 = pickEvictionVictim({bad, tieOfBad, worse}, cfg);
  auto v2 = pickEvictionVictim({worse, tieOfBad, bad}, cfg);
  ASSERT_TRUE(v1 && v2);
  EXPECT_EQ(*v1, 20u);  // strictly highest score wins...
  EXPECT_EQ(*v1, *v2);  // ...independent of input order
  auto tie = pickEvictionVictim({tieOfBad, bad}, cfg);
  ASSERT_TRUE(tie.has_value());
  EXPECT_EQ(*tie, 10u);  // equal scores: lowest peer id
}

// ---- churn channel: pure (seed, frame, peer) schedules -------------------

TEST(ChurnChannel, DisabledMeansAlwaysPresent) {
  FaultConfig fc;
  for (int k = 0; k < 20; ++k)
    EXPECT_EQ(churnState(fc, k, 7), ChurnState::Present);
}

TEST(ChurnChannel, IsAPureFunctionEvaluableInAnyOrder) {
  FaultConfig fc;
  fc.seed = 99;
  fc.churn.enable = true;
  fc.churn.silenceProb = 0.2;
  std::vector<ChurnState> forward;
  for (int k = 0; k < 40; ++k) forward.push_back(churnState(fc, k, 3));
  for (int k = 39; k >= 0; --k)
    EXPECT_EQ(churnState(fc, k, 3), forward[static_cast<std::size_t>(k)])
        << "frame " << k;
}

TEST(ChurnChannel, PeersCycleBetweenPresenceAndAbsence) {
  FaultConfig fc;
  fc.seed = 4242;
  fc.churn.enable = true;
  // One full worst-case period is dwellMax + gapMax frames: every peer
  // must show BOTH states within two periods.
  const int horizon = 2 * (fc.churn.dwellMaxFrames + fc.churn.gapMaxFrames);
  for (std::uint64_t peer = 1; peer <= 16; ++peer) {
    int present = 0;
    int absent = 0;
    for (int k = 0; k < horizon; ++k) {
      const ChurnState s = churnState(fc, k, peer);
      if (s == ChurnState::Absent) ++absent;
      else ++present;
    }
    EXPECT_GT(present, 0) << "peer " << peer;
    EXPECT_GT(absent, 0) << "peer " << peer;
  }
}

TEST(ChurnChannel, SilenceOverlaysPresentFramesOnly) {
  FaultConfig quiet;
  quiet.seed = 7;
  quiet.churn.enable = true;
  FaultConfig noisy = quiet;
  noisy.churn.silenceProb = 1.0;
  for (int k = 0; k < 60; ++k) {
    for (std::uint64_t peer = 1; peer <= 8; ++peer) {
      const ChurnState base = churnState(quiet, k, peer);
      const ChurnState withSilence = churnState(noisy, k, peer);
      if (base == ChurnState::Absent) {
        EXPECT_EQ(withSilence, ChurnState::Absent);
      } else {
        EXPECT_EQ(withSilence, ChurnState::Silent);
      }
    }
  }
}

TEST(ChurnChannel, DoesNotRerandomizeOtherFaultChannels) {
  FaultConfig fc;
  fc.seed = 11;
  fc.frameDropProb = 0.3;
  fc.sectorDropProb = 0.3;
  fc.poseSpoofProb = 0.3;
  FaultConfig churny = fc;
  churny.churn.enable = true;
  churny.churn.silenceProb = 0.5;
  const FaultInjector a(fc);
  const FaultInjector b(churny);
  for (int k = 0; k < 30; ++k) {
    const FrameFaults fa = a.frameFaults(k);
    const FrameFaults fb = b.frameFaults(k);
    EXPECT_EQ(fa.dropped, fb.dropped);
    EXPECT_EQ(fa.lagFrames, fb.lagFrames);
    EXPECT_EQ(fa.sectorDropped, fb.sectorDropped);
    EXPECT_EQ(fa.sectorCenterRad, fb.sectorCenterRad);
    const AdversarialFaults aa = a.adversarialFaults(k);
    const AdversarialFaults ab = b.adversarialFaults(k);
    EXPECT_EQ(aa.poseSpoofed, ab.poseSpoofed);
    EXPECT_EQ(aa.replayed, ab.replayed);
  }
}

TEST(ChurnChannel, SequenceGeneratorKeysByStableVehicleId) {
  SequenceConfig sc;
  sc.seed = 21;
  sc.frames = 30;
  sc.scenario.cooperativePeers = 3;
  sc.faults.churn.enable = true;
  const SequenceGenerator gen(sc);
  ASSERT_GE(gen.peerCount(), 3);
  // The generator's view must agree with the free function over the
  // peer's stable vehicle id (pure function, no generator state).
  for (int k = 0; k < sc.frames; ++k) {
    for (int p = 0; p < 3; ++p) {
      const std::uint64_t vid =
          static_cast<std::uint64_t>(gen.peerObservation(0, p).vehicleId);
      EXPECT_EQ(gen.peerChurnState(k, p), churnState(sc.faults, k, vid));
    }
  }
}

// ---- service lifecycle: cheap decode-path traffic ------------------------

/// Tiny valid payload with a mis-sized BV image (same trick as
/// service_test.cpp): decodes fine, coasts the tracker, costs no recover().
/// An optional pose-prior claim feeds the spatial pre-gate.
std::vector<std::uint8_t> tinyPayload(std::uint64_t sender,
                                      std::uint32_t frame,
                                      const Pose2* claim = nullptr) {
  wire::CooperativeMessage msg;
  msg.senderId = sender;
  msg.frameIndex = frame;
  if (claim != nullptr) {
    msg.hasPosePrior = true;
    msg.posePrior = *claim;
  }
  msg.bvImage = ImageF(8, 8);
  msg.bvImage(1, 1) = 0.25f;
  return wire::encode(msg, wire::WireConfig{});
}

TEST(SessionLifecycle, ReaperRetiresSilentPeerWithoutTouchingSurvivors) {
  ServiceConfig cfg;
  cfg.lifecycle.maxSilentFrames = 2;
  CooperationService svc(cfg);
  const CarPerceptionData ego;
  (void)svc.processFrame(ego, {{1, nullptr}, {2, nullptr}});
  EXPECT_EQ(svc.sessionCount(), 2);
  // Peer 2 goes dark: silent runs of 1, 2, then 3 > maxSilentFrames.
  for (int k = 0; k < 3; ++k) (void)svc.processFrame(ego, {{1, nullptr}});
  EXPECT_EQ(svc.sessionCount(), 1);
  EXPECT_EQ(svc.retiredCount(), 1);
  const ServiceReport rep = svc.report();
  ASSERT_EQ(rep.sessions.size(), 2u);  // live survivor + retired row
  EXPECT_EQ(rep.sessions[0].peerId, 1u);
  EXPECT_FALSE(rep.sessions[0].retired);
  EXPECT_EQ(rep.sessions[0].frames, 4);
  EXPECT_EQ(rep.sessions[0].linkDrops, 4);  // survivor counted every frame
  EXPECT_EQ(rep.sessions[1].peerId, 2u);
  EXPECT_TRUE(rep.sessions[1].retired);
  EXPECT_EQ(rep.sessions[1].frames, 1);
  EXPECT_EQ(rep.sessions[1].silentFrames, 3);
  EXPECT_EQ(rep.sessions[1].reaps, 1);
}

TEST(SessionLifecycle, ReaperDisabledByZeroMaxSilentFrames) {
  ServiceConfig cfg;
  cfg.lifecycle.maxSilentFrames = 0;
  CooperationService svc(cfg);
  const CarPerceptionData ego;
  (void)svc.processFrame(ego, {{1, nullptr}, {2, nullptr}});
  for (int k = 0; k < 10; ++k) (void)svc.processFrame(ego, {{1, nullptr}});
  EXPECT_EQ(svc.sessionCount(), 2);
  EXPECT_EQ(svc.retiredCount(), 0);
}

TEST(SessionLifecycle, ReadmissionRestoresStatsAndReplayGuard) {
  ServiceConfig cfg;
  cfg.lifecycle.maxSilentFrames = 1;
  CooperationService svc(cfg);
  const CarPerceptionData ego;
  const std::vector<std::uint8_t> first = tinyPayload(2, 5);
  (void)svc.processFrame(ego, {{1, nullptr}, {2, &first}});
  // Two silent frames: peer 2 is reaped after the second.
  (void)svc.processFrame(ego, {{1, nullptr}});
  (void)svc.processFrame(ego, {{1, nullptr}});
  EXPECT_EQ(svc.retiredCount(), 1);
  // The peer returns REPLAYING its old frame 5: the restored replay-guard
  // metadata must reject it — retirement is not a replay amnesty.
  auto back = svc.processFrame(ego, {{1, nullptr}, {2, &first}});
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[1].admission, SessionAdmission::Admitted);
  EXPECT_TRUE(back[1].readmission);
  EXPECT_TRUE(back[1].replayRejected);
  EXPECT_EQ(svc.retiredCount(), 0);
  const ServiceReport rep = svc.report();
  ASSERT_EQ(rep.sessions.size(), 2u);
  EXPECT_EQ(rep.sessions[1].peerId, 2u);
  EXPECT_EQ(rep.sessions[1].frames, 2);  // cumulative across the reap
  EXPECT_EQ(rep.sessions[1].silentFrames, 2);
  EXPECT_EQ(rep.sessions[1].reaps, 1);
  EXPECT_EQ(rep.sessions[1].readmissions, 1);
  EXPECT_EQ(rep.sessions[1].replayRejects, 1);
}

TEST(SessionLifecycle, EvictionPrefersWorstAbsentSessionAndArchivesIt) {
  ServiceConfig cfg;
  cfg.maxSessions = 3;
  CooperationService svc(cfg);
  const CarPerceptionData ego;
  (void)svc.processFrame(ego, {{1, nullptr}, {2, nullptr}, {3, nullptr}});
  // Age the incumbents differently: 2 and 3 go silent, 1 stays.
  (void)svc.processFrame(ego, {{1, nullptr}});
  (void)svc.processFrame(ego, {{1, nullptr}, {3, nullptr}});
  // Newcomer 9: 2 (silent run 2) outscores 3 (silent run 0 after
  // reappearing) and 1 (present, protected).
  auto res = svc.processFrame(ego, {{1, nullptr}, {9, nullptr}});
  ASSERT_EQ(res.size(), 2u);
  EXPECT_EQ(res[1].admission, SessionAdmission::AdmittedEvicting);
  EXPECT_EQ(res[1].evictedPeerId, 2u);
  EXPECT_FALSE(res[1].readmission);
  EXPECT_EQ(svc.sessionCount(), 3);
  EXPECT_EQ(svc.retiredCount(), 1);
  const ServiceReport rep = svc.report();
  // Retired row for peer 2 carries the eviction tally.
  ASSERT_EQ(rep.sessions.size(), 4u);
  EXPECT_EQ(rep.sessions[3].peerId, 2u);
  EXPECT_TRUE(rep.sessions[3].retired);
  EXPECT_EQ(rep.sessions[3].evictions, 1);
}

TEST(SessionLifecycle, EvictionDisabledRejectsInsteadOfDisplacing) {
  ServiceConfig cfg;
  cfg.maxSessions = 1;
  // No session can reach an infinite eviction bar: nothing is evictable.
  cfg.lifecycle.minEvictionScore = std::numeric_limits<double>::infinity();
  cfg.lifecycle.maxSilentFrames = 1;
  CooperationService svc(cfg);
  const CarPerceptionData ego;
  (void)svc.processFrame(ego, {{1, nullptr}});
  auto res = svc.processFrame(ego, {{5, nullptr}});
  EXPECT_EQ(res[0].admission, SessionAdmission::RejectedFull);
  // ...until the reaper frees the slot (1's silent run reaches 2 > 1 at
  // the end of the next frame), after which the newcomer admits normally.
  (void)svc.processFrame(ego, {{5, nullptr}});
  auto after = svc.processFrame(ego, {{5, nullptr}});
  EXPECT_EQ(after[0].admission, SessionAdmission::Admitted);
  EXPECT_EQ(svc.report().rejectedFull, 2);
}

#if defined(BBA_OBSERVABILITY_ENABLED)
struct ScopedMetrics {
  explicit ScopedMetrics(obs::MetricsRegistry& r) {
    obs::installMetricsRegistry(&r);
  }
  ~ScopedMetrics() { obs::installMetricsRegistry(nullptr); }
};

TEST(SessionLifecycle, CountersMirrorTheReport) {
  // Every fact the service keeps both as a report field and as a counter
  // must read the same in both places. Decode-only traffic over a 4-slot
  // table with a 3-slot recover budget walks link drops, a corrupt
  // payload, a replay, a far claim, a shed, a duplicate, a full-table
  // rejection, an eviction, reaps, a readmission and a quarantine.
  obs::MetricsRegistry reg;
  ScopedMetrics scoped(reg);
  ServiceConfig cfg;
  cfg.maxSessions = 4;
  cfg.lifecycle.maxSilentFrames = 2;
  cfg.budget = {.frameDeadlineMs = 3 * kAssumedRecoverCostMs};
  CooperationService svc(cfg);
  const CarPerceptionData ego;
  const Pose2 far{Vec2{400.0, 0.0}, 0.0};
  const std::vector<std::uint8_t> p2 = tinyPayload(2, 1);
  const std::vector<std::uint8_t> p3 = tinyPayload(3, 1);
  const std::vector<std::uint8_t> p4 = tinyPayload(4, 1);
  const std::vector<std::uint8_t> p4far = tinyPayload(4, 2, &far);
  const std::vector<std::uint8_t> p2back = tinyPayload(2, 9);
  std::vector<std::uint8_t> corrupt = tinyPayload(3, 2);
  corrupt[corrupt.size() / 2] ^= 0xFF;
  for (std::uint32_t k = 0; k < 12; ++k) {
    // Peer 1 sends a fresh mis-sized payload every frame: its mismatch
    // penalties add up to a quarantine.
    const std::vector<std::uint8_t> p1 = tinyPayload(1, k + 1);
    std::vector<PeerFrameInput> in = {{1, &p1}};
    if (k == 0) {
      // Four payload peers for three slots (4 is shed), plus a duplicate.
      in.insert(in.end(), {{2, &p2}, {3, &p3}, {4, &p4}, {1, nullptr}});
    } else if (k == 1) {
      // A replay, a corrupt payload, a far claim, and a newcomer the full
      // table of present peers must reject.
      in.insert(in.end(), {{2, &p2}, {3, &corrupt}, {4, &p4far}, {5, nullptr}});
    } else if (k < 6) {
      in.push_back({5, nullptr});  // 5 evicts one absent peer at k == 2
    } else if (k == 6) {
      in.insert(in.end(), {{5, nullptr}, {2, &p2back}});  // 2 returns
    }
    (void)svc.processFrame(ego, in);
  }

  const ServiceReport rep = svc.report();
  const SessionStats& agg = rep.aggregate;
  const std::vector<std::pair<const char*, std::int64_t>> mirrored = {
      {"service.frames", rep.framesProcessed},
      {"service.link_drops", agg.linkDrops},
      {"service.decode_failed", agg.decodeFailed},
      {"service.payload_mismatch", agg.payloadMismatch},
      {"service.pregate_skipped", agg.pregateSkips},
      {"service.shed", agg.shedFrames},
      {"service.recover_slots", agg.recoverSlots},
      {"service.poses_reported", agg.posesReported},
      {"health.replay_rejected", agg.replayRejects},
      {"health.quarantined_frames", agg.quarantinedFrames},
      {"health.consistency_outliers", agg.consistencyOutliers},
      {"session.evicted", agg.evictions},
      {"session.reaped", agg.reaps},
      {"session.readmitted", agg.readmissions},
      {"session.silent_frames", agg.silentFrames},
      {"session.rejected_full", rep.rejectedFull},
  };
  for (const auto& [name, field] : mirrored) {
    EXPECT_EQ(reg.counter(name).value(), field) << name;
    // Only a real lock can report a pose or win a consistency vote.
    const std::string n = name;
    if (n != "service.poses_reported" && n != "health.consistency_outliers") {
      EXPECT_GT(field, 0) << name << " is not exercised";
    }
  }
  EXPECT_GT(agg.duplicateRejects, 0);
}
#endif  // BBA_OBSERVABILITY_ENABLED

// ---- property test: random schedules conserve stats, thread-invariant ----

struct ChurnRun {
  std::string reportJson;
  ServiceReport report;
  int maxLiveSessions = 0;
};

/// Drive a 20-peer fleet through an 8-slot table for 30 frames under the
/// churn channel (join/leave/silence all from the pure schedule). Traffic
/// is decode-only (mis-sized BV), so the run is cheap enough for TSan yet
/// walks admission, eviction, reaping and readmission continuously.
ChurnRun runChurnSchedule(std::uint64_t seed, int threads) {
  ThreadLimit limit(threads);
  FaultConfig fc;
  fc.seed = seed;
  fc.churn.enable = true;
  fc.churn.dwellMinFrames = 3;
  fc.churn.dwellMaxFrames = 8;
  fc.churn.gapMinFrames = 2;
  fc.churn.gapMaxFrames = 6;
  fc.churn.silenceProb = 0.15;

  ServiceConfig cfg;
  cfg.seed = seed;
  cfg.maxSessions = 8;
  cfg.lifecycle.maxSilentFrames = 3;
  CooperationService svc(cfg);
  const CarPerceptionData ego;

  ChurnRun run;
  std::vector<std::vector<std::uint8_t>> payloads(21);
  for (int k = 0; k < 30; ++k) {
    std::vector<PeerFrameInput> inputs;
    for (std::uint64_t peer = 1; peer <= 20; ++peer) {
      const ChurnState s = churnState(fc, k, peer);
      if (s == ChurnState::Absent) continue;
      if (s == ChurnState::Silent) {
        inputs.push_back({peer, nullptr});  // on the link, radio silent
        continue;
      }
      payloads[peer] =
          tinyPayload(peer, static_cast<std::uint32_t>(k + 1));
      inputs.push_back({peer, &payloads[peer]});
    }
    (void)svc.processFrame(ego, inputs);
    EXPECT_LE(svc.sessionCount(), cfg.maxSessions);
    run.maxLiveSessions = std::max(run.maxLiveSessions, svc.sessionCount());
  }
  run.report = svc.report();
  run.reportJson = run.report.toJson();
  return run;
}

TEST(SessionLifecycle, PropertyChurnConservesStatsAndIsThreadInvariant) {
  for (const std::uint64_t seed : {11ull, 23ull, 37ull}) {
    const ChurnRun one = runChurnSchedule(seed, 1);
    const ChurnRun eight = runChurnSchedule(seed, 8);
    // Byte-identical schedules and stats at 1 vs 8 threads.
    EXPECT_EQ(one.reportJson, eight.reportJson) << "seed " << seed;
    EXPECT_LE(one.maxLiveSessions, 8) << "seed " << seed;

    // Conservation: every session frame is accounted to exactly one
    // bucket — decode ok/failed, link drop, replay reject, pre-gate skip,
    // shed, or quarantined — for live and retired rows alike.
    int evictions = 0;
    int reaps = 0;
    int readmissions = 0;
    for (const SessionStats& st : one.report.sessions) {
      EXPECT_EQ(st.frames, st.decodeOk + st.decodeFailed + st.linkDrops +
                               st.replayRejects + st.pregateSkips +
                               st.shedFrames + st.quarantinedFrames)
          << "seed " << seed << " peer " << st.peerId;
      evictions += st.evictions;
      reaps += st.reaps;
      readmissions += st.readmissions;
    }
    // The schedule actually exercises the whole lifecycle.
    EXPECT_GT(evictions + reaps, 0) << "seed " << seed;
    EXPECT_GT(readmissions, 0) << "seed " << seed;
  }
}

// ---- heavy end-to-end scenarios (real recover()) -------------------------

struct ScenarioRig {
  SequenceConfig sc;
  std::vector<StreamFrame> frames;
  ServiceConfig cfg;

  explicit ScenarioRig(int frameCount) {
    sc.seed = 7;
    sc.frames = frameCount;
    sc.scenario.separation = 30.0;
    frames = SequenceGenerator(sc).generate();
    cfg.seed = 42;
    // Reduced RANSAC draws: recovers every frame of this scenario at a
    // fraction of the cost (same trick as service_test.cpp).
    cfg.tracker.aligner.ransacBv.iterations = 2000;
    cfg.tracker.aligner.ransacBox.iterations = 200;
  }
};

TEST(LifecycleScenario, SteadyPeersAreByteIdenticalUnderPhantomChurn) {
  // Two honest peers tracking real payloads while phantom far-claim
  // churners rotate through the table (pre-gate skipped: zero decode, zero
  // RNG). The honest sessions' entire output must be byte-identical to a
  // run with no churn at all — at 1 and at 8 threads — even though the
  // churners drive admissions, reaps and readmissions around them.
  const ScenarioRig rig(6);
  const Pose2 farClaim{{1000.0, 1000.0}, 0.0};

  auto run = [&](bool churn, int threads) {
    ThreadLimit limit(threads);
    ServiceConfig cfg = rig.cfg;
    cfg.lifecycle.maxSilentFrames = 1;
    CooperationService svc(cfg);
    const BBAlign aligner(cfg.tracker.aligner);
    FaultConfig fc;
    fc.seed = 77;
    fc.churn.enable = true;
    // Pinned 1-present / 2-absent cycle: every phantom is on the link at
    // some frame <= 2 and then dark for two frames, so with
    // maxSilentFrames = 1 each one is reaped (and, on return, readmitted)
    // inside the 6-frame window whatever its phase offset.
    fc.churn.dwellMinFrames = 1;
    fc.churn.dwellMaxFrames = 1;
    fc.churn.gapMinFrames = 2;
    fc.churn.gapMaxFrames = 2;
    std::vector<std::vector<SessionFrameResult>> out;
    std::vector<std::vector<std::uint8_t>> phantomPayloads(110);
    for (std::size_t k = 0; k < rig.frames.size(); ++k) {
      const StreamFrame& f = rig.frames[k];
      const CarPerceptionData ego =
          aligner.makeCarData(f.egoCloud, f.egoDets);
      const CarPerceptionData other =
          aligner.makeCarData(f.otherCloud, f.otherDets);
      const std::vector<std::uint8_t> clean =
          svc.sendFrame(other, 1, static_cast<std::uint32_t>(k));
      std::vector<PeerFrameInput> inputs;
      inputs.push_back({1, &clean});
      inputs.push_back({2, &clean});
      if (churn) {
        for (std::uint64_t phantom = 100; phantom < 106; ++phantom) {
          if (churnState(fc, static_cast<int>(k), phantom) !=
              ChurnState::Present)
            continue;
          phantomPayloads[phantom] = svc.sendFrame(
              other, phantom, static_cast<std::uint32_t>(k), nullptr,
              &farClaim);
          inputs.push_back({phantom, &phantomPayloads[phantom]});
        }
      }
      auto results = svc.processFrame(ego, inputs);
      results.resize(2);  // honest slots only; phantoms are their own test
      out.push_back(std::move(results));
    }
    // Sanity on the churn arm: phantoms never cost a decode, and the
    // lifecycle actually turned over.
    if (churn) {
      const ServiceReport rep = svc.report();
      int phantomDecodes = 0;
      int reaps = 0;
      for (const SessionStats& st : rep.sessions) {
        if (st.peerId < 100) continue;
        phantomDecodes += st.decodeOk + st.decodeFailed;
        reaps += st.reaps;
      }
      EXPECT_EQ(phantomDecodes, 0);
      EXPECT_GT(reaps, 0);
    }
    return out;
  };

  const auto baseline1 = run(false, 1);
  for (const bool churn : {false, true}) {
    for (const int threads : {1, 8}) {
      if (!churn && threads == 1) continue;
      const auto arm = run(churn, threads);
      ASSERT_EQ(arm.size(), baseline1.size());
      for (std::size_t k = 0; k < arm.size(); ++k) {
        for (std::size_t s = 0; s < 2; ++s) {
          const SessionFrameResult& a = baseline1[k][s];
          const SessionFrameResult& b = arm[k][s];
          EXPECT_EQ(a.track.outcome, b.track.outcome);
          EXPECT_EQ(a.track.pose.t.x, b.track.pose.t.x);
          EXPECT_EQ(a.track.pose.t.y, b.track.pose.t.y);
          EXPECT_EQ(a.track.pose.theta, b.track.pose.theta);
          EXPECT_EQ(a.track.confidence, b.track.confidence);
          EXPECT_EQ(a.report.toJson(/*includeTimings=*/false),
                    b.report.toJson(/*includeTimings=*/false));
        }
      }
    }
  }
}

TEST(LifecycleScenario, EvictedHonestPeerRelocksWithinMissBudgetPlusTwo) {
  const ScenarioRig rig(12);
  ServiceConfig cfg = rig.cfg;
  cfg.maxSessions = 1;
  CooperationService svc(cfg);
  const BBAlign aligner(cfg.tracker.aligner);

  auto honestInput = [&](std::size_t k, std::vector<std::uint8_t>& buf) {
    const StreamFrame& f = rig.frames[k];
    const CarPerceptionData other =
        aligner.makeCarData(f.otherCloud, f.otherDets);
    buf = svc.sendFrame(other, 1, static_cast<std::uint32_t>(k));
  };
  auto egoAt = [&](std::size_t k) {
    const StreamFrame& f = rig.frames[k];
    return aligner.makeCarData(f.egoCloud, f.egoDets);
  };

  // Frames 0-1: peer 1 locks.
  std::vector<std::uint8_t> buf;
  for (std::size_t k = 0; k < 2; ++k) {
    honestInput(k, buf);
    auto r = svc.processFrame(egoAt(k), {{1, &buf}});
    ASSERT_EQ(r[0].track.outcome, TrackerOutcome::Recovered) << k;
  }
  // Frame 2: newcomer 9 cannot displace the barely-stale incumbent...
  const std::vector<std::uint8_t> cheap = tinyPayload(9, 1);
  auto rejected = svc.processFrame(egoAt(2), {{9, &cheap}});
  EXPECT_EQ(rejected[0].admission, SessionAdmission::RejectedFull);
  // Frame 3: ...but one silent frame later the eviction goes through.
  auto evicting = svc.processFrame(egoAt(3), {{9, &cheap}});
  EXPECT_EQ(evicting[0].admission, SessionAdmission::AdmittedEvicting);
  EXPECT_EQ(evicting[0].evictedPeerId, 1u);

  // Frame 4+: peer 1 returns (evicting the trackless 9 in turn) and must
  // re-lock within maxConsecutiveMisses + 2 frames of its readmission.
  int relockFrame = -1;
  bool readmitted = false;
  for (std::size_t k = 4; k < rig.frames.size(); ++k) {
    honestInput(k, buf);
    auto r = svc.processFrame(egoAt(k), {{1, &buf}});
    if (k == 4) {
      EXPECT_EQ(r[0].admission, SessionAdmission::AdmittedEvicting);
      readmitted = r[0].readmission;
    }
    if (r[0].track.outcome == TrackerOutcome::Recovered) {
      relockFrame = static_cast<int>(k);
      break;
    }
  }
  EXPECT_TRUE(readmitted);
  ASSERT_GE(relockFrame, 4);
  EXPECT_LE(relockFrame - 4, cfg.tracker.maxConsecutiveMisses + 2);

  const ServiceReport rep = svc.report();
  int evictions = 0;
  int readmissions = 0;
  for (const SessionStats& st : rep.sessions) {
    evictions += st.evictions;
    readmissions += st.readmissions;
  }
  EXPECT_GE(evictions, 2);     // peer 1 and peer 9 each displaced once
  EXPECT_GE(readmissions, 1);  // peer 1's return
}

TEST(LifecycleScenario, WarmStartReachesExactlyTheMaxGap) {
  // Peer 1 locks on frames 0-1, is reaped during empty frames and returns
  // later. A return whose last lock is exactly kWarmStartMaxGapFrames old
  // warm-starts from the archived pose: the tracker predicts on its first
  // frame back. One frame later the peer bootstraps blind.
  const ScenarioRig rig(3);
  const CarPerceptionData none;
  auto firstFrameBack = [&](int returnFrame, Pose2& lastLock) {
    ServiceConfig cfg = rig.cfg;
    cfg.lifecycle.maxSilentFrames = 1;
    CooperationService svc(cfg);
    const BBAlign aligner(cfg.tracker.aligner);
    auto step = [&](int frame, std::size_t rigFrame) {
      const StreamFrame& f = rig.frames[rigFrame];
      const std::vector<std::uint8_t> payload =
          svc.sendFrame(aligner.makeCarData(f.otherCloud, f.otherDets), 1,
                        static_cast<std::uint32_t>(frame));
      return svc.processFrame(aligner.makeCarData(f.egoCloud, f.egoDets),
                              {{1, &payload}})[0];
    };
    for (int k = 0; k < 2; ++k) {
      const SessionFrameResult r = step(k, static_cast<std::size_t>(k));
      EXPECT_EQ(r.track.outcome, TrackerOutcome::Recovered) << k;
      lastLock = r.track.pose;
    }
    for (int k = 2; k < returnFrame; ++k) (void)svc.processFrame(none, {});
    EXPECT_EQ(svc.retiredCount(), 1);
    const SessionFrameResult back = step(returnFrame, 2);
    EXPECT_EQ(back.admission, SessionAdmission::Admitted);
    EXPECT_TRUE(back.readmission);
    // Only the two lock frames and the return frame ran recover().
    const ServiceReport rep = svc.report();
    EXPECT_EQ(rep.aggregate.recoverSlots, 3);
    return back;
  };

  Pose2 lastLock;
  const SessionFrameResult warm =
      firstFrameBack(1 + kWarmStartMaxGapFrames, lastLock);
  EXPECT_TRUE(warm.report.predictionAvailable);
  EXPECT_EQ(warm.report.prediction.t.x, lastLock.t.x);
  EXPECT_EQ(warm.report.prediction.t.y, lastLock.t.y);
  EXPECT_EQ(warm.report.prediction.theta, lastLock.theta);

  const SessionFrameResult cold =
      firstFrameBack(2 + kWarmStartMaxGapFrames, lastLock);
  EXPECT_FALSE(cold.report.predictionAvailable);
}

TEST(LifecycleScenario, LyingClaimCannotHoldALockedInRangePeer) {
  // Once a session is locked the pre-gate runs on the tracker's own
  // dead-reckoned pose, so a spoofed out-of-range claim on an in-range
  // peer cannot withhold its (honest) payload. A bootstrapping far-claim
  // session is still gated on its claim.
  const ScenarioRig rig(3);
  const Pose2 lie{{2000.0, -500.0}, 1.0};

  ServiceConfig cfg = rig.cfg;
  cfg.usePosePriors = false;  // the lie must not seed any track
  CooperationService svc(cfg);
  const BBAlign aligner(cfg.tracker.aligner);
  std::vector<std::vector<SessionFrameResult>> gated;
  for (std::size_t k = 0; k < rig.frames.size(); ++k) {
    const StreamFrame& f = rig.frames[k];
    const CarPerceptionData ego = aligner.makeCarData(f.egoCloud, f.egoDets);
    const CarPerceptionData other =
        aligner.makeCarData(f.otherCloud, f.otherDets);
    // Frame 0 honest claim-less bootstrap; frames 1+ attach the lie.
    const std::vector<std::uint8_t> payload = svc.sendFrame(
        other, 1, static_cast<std::uint32_t>(k), nullptr,
        k == 0 ? nullptr : &lie);
    const std::vector<std::uint8_t> phantom = svc.sendFrame(
        other, 50, static_cast<std::uint32_t>(k), nullptr, &lie);
    gated.push_back(svc.processFrame(ego, {{1, &payload}, {50, &phantom}}));
  }

  // Frame 0: the honest peer locks (no claim, no gate).
  ASSERT_EQ(gated[0][0].track.outcome, TrackerOutcome::Recovered);
  for (std::size_t k = 1; k < gated.size(); ++k) {
    // The locked peer stays admitted and recovering despite the lie.
    EXPECT_EQ(gated[k][0].track.outcome, TrackerOutcome::Recovered) << k;
    EXPECT_TRUE(gated[k][0].pregatePriorFromTrack) << k;
    EXPECT_FALSE(gated[k][0].pregateSkipped) << k;
    // The bootstrapping phantom is claim-gated.
    EXPECT_TRUE(gated[k][1].pregateSkipped) << k;
  }
}

}  // namespace
}  // namespace bba::service
