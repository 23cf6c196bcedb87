// service module: multi-peer cooperation service — session scheduling,
// wire-decode robustness plumbing, and the byte-identical-at-any-thread-
// count contract of ServiceReport.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "dataset/sequence.hpp"
#include "map/keyframe_store.hpp"
#include "obs/metrics.hpp"
#include "service/cooperation_service.hpp"
#include "wire/message.hpp"

namespace bba::service {
namespace {

// ---- light decode-path tests (no recover(); cheap enough for TSan) -------

/// A tiny valid payload whose BV image cannot match the service's aligner
/// (wrong dimensions): exercises the payload-mismatch path without the
/// cost of a real recovery.
std::vector<std::uint8_t> tinyPayload(std::uint64_t sender,
                                      std::uint32_t frame) {
  wire::CooperativeMessage msg;
  msg.senderId = sender;
  msg.frameIndex = frame;
  msg.bvImage = ImageF(8, 8);
  msg.bvImage(2, 3) = 0.5f;
  msg.boxes.push_back(OrientedBox2{{1.0, 2.0}, {2.0, 1.0}, 0.1});
  return wire::encode(msg, wire::WireConfig{});
}

TEST(ServiceDecode, CreatesSessionsAndCountsCauses) {
  CooperationService svc;
  const CarPerceptionData ego;  // irrelevant: no frame reaches update()

  const std::vector<std::uint8_t> mismatch = tinyPayload(1, 0);
  std::vector<std::uint8_t> corrupt = tinyPayload(2, 0);
  corrupt[corrupt.size() / 2] ^= 0x10;  // CRC will catch it
  std::vector<std::uint8_t> truncated = tinyPayload(3, 0);
  truncated.resize(truncated.size() / 2);

  const std::vector<PeerFrameInput> inputs = {
      {10, &mismatch}, {20, &corrupt}, {30, &truncated}, {40, nullptr}};
  const std::vector<SessionFrameResult> results =
      svc.processFrame(ego, inputs);

  ASSERT_EQ(results.size(), 4u);
  EXPECT_EQ(svc.sessionCount(), 4);
  // Results come back in input order.
  EXPECT_EQ(results[0].peerId, 10u);
  EXPECT_TRUE(results[0].received);
  EXPECT_EQ(results[0].decodeError, wire::DecodeError::None);
  EXPECT_TRUE(results[0].payloadMismatch);
  EXPECT_EQ(results[1].decodeError, wire::DecodeError::CrcMismatch);
  EXPECT_EQ(results[2].decodeError, wire::DecodeError::TruncatedPayload);
  EXPECT_FALSE(results[3].received);
  // Every degraded input coasts: no session reports a pose yet.
  for (const SessionFrameResult& r : results)
    EXPECT_FALSE(r.track.poseValid);

  const ServiceReport rep = svc.report();
  ASSERT_EQ(rep.sessions.size(), 4u);
  EXPECT_EQ(rep.framesProcessed, 1);
  EXPECT_EQ(rep.sessions[0].peerId, 10u);  // session-id order
  EXPECT_EQ(rep.sessions[0].payloadMismatch, 1);
  EXPECT_EQ(rep.sessions[1].decodeFailed, 1);
  EXPECT_EQ(rep.sessions[1].rejectByCause[static_cast<int>(
                wire::DecodeError::CrcMismatch)],
            1);
  EXPECT_EQ(rep.sessions[2].rejectByCause[static_cast<int>(
                wire::DecodeError::TruncatedPayload)],
            1);
  EXPECT_EQ(rep.sessions[3].linkDrops, 1);
  EXPECT_EQ(rep.aggregate.frames, 4);
  EXPECT_EQ(rep.aggregate.decodeFailed, 2);
  EXPECT_EQ(rep.aggregate.linkDrops, 1);
  EXPECT_EQ(rep.aggregate.payloadMismatch, 1);
}

TEST(ServiceDecode, UnusableEgoHoldsTheGrantedSession) {
  // A good full-size payload meets an empty, then a mis-sized, ego image.
  // Nothing can be aligned, so the session holds its track (skipFrame)
  // with the reason on its result: no miss, no health penalty, no throw.
  CooperationService svc;
  const int size = svc.config().tracker.aligner.bev.imageSize();
  CarPerceptionData peer;
  peer.bvImage = ImageF(size, size);
  peer.bvImage(size / 2, size / 2) = 0.5f;
  const CarPerceptionData emptyEgo;
  const CarPerceptionData smallEgo{ImageF(8, 8), {}};
  int frames = 0;
  for (const CarPerceptionData* ego : {&emptyEgo, &smallEgo}) {
    const std::vector<std::uint8_t> payload =
        svc.sendFrame(peer, 1, static_cast<std::uint32_t>(frames));
    std::vector<SessionFrameResult> results;
    ASSERT_NO_THROW(results = svc.processFrame(*ego, {{1, &payload}}));
    ++frames;
    ASSERT_EQ(results.size(), 1u);
    const SessionFrameResult& r = results[0];
    EXPECT_TRUE(r.received);
    EXPECT_EQ(r.decodeError, wire::DecodeError::None);
    EXPECT_FALSE(r.replayRejected);
    EXPECT_FALSE(r.payloadMismatch);
    EXPECT_TRUE(r.egoUnusable);
    EXPECT_TRUE(r.report.schedulerSkipped);
    EXPECT_EQ(r.report.consecutiveMisses, 0);
    EXPECT_EQ(r.track.outcome, TrackerOutcome::Bootstrapping);
    EXPECT_EQ(r.health, PeerHealth::Healthy);
    EXPECT_EQ(svc.framesProcessed(), frames);
  }
  EXPECT_EQ(svc.sessionCount(), 1);
  const ServiceReport rep = svc.report();
  ASSERT_EQ(rep.sessions.size(), 1u);
  EXPECT_EQ(rep.sessions[0].decodeOk, 2);
  EXPECT_EQ(rep.sessions[0].suspicion, 0);
}

TEST(ServiceDecode, UnusableEgoGrantKeepsItsPlaceInLine) {
  // One recover slot, two peers, and ego images good, empty, good. The
  // second frame's grant meets the empty ego, so nothing is aligned and
  // that session ages like the shed one instead of going to the back of
  // the line: the third frame's slot is its again.
  ServiceConfig cfg;
  cfg.budget = {.frameDeadlineMs = kAssumedRecoverCostMs};  // one slot
  CooperationService svc(cfg);
  const int size = cfg.tracker.aligner.bev.imageSize();
  CarPerceptionData peer;
  peer.bvImage = ImageF(size, size);
  peer.bvImage(size / 2, size / 2) = 0.5f;
  const CarPerceptionData goodEgo = peer;
  const CarPerceptionData emptyEgo;
  std::vector<std::uint64_t> granted;
  std::uint32_t frame = 0;
  for (const CarPerceptionData* ego : {&goodEgo, &emptyEgo, &goodEgo}) {
    const std::vector<std::uint8_t> a = svc.sendFrame(peer, 1, frame);
    const std::vector<std::uint8_t> b = svc.sendFrame(peer, 2, frame);
    const std::vector<SessionFrameResult> results =
        svc.processFrame(*ego, {{1, &a}, {2, &b}});
    ASSERT_EQ(results.size(), 2u);
    for (const SessionFrameResult& r : results) {
      ASSERT_TRUE(r.received);
      if (r.shed) continue;
      granted.push_back(r.peerId);
      EXPECT_EQ(r.egoUnusable, ego == &emptyEgo) << "frame " << frame;
    }
    ++frame;
  }
  EXPECT_EQ(granted, (std::vector<std::uint64_t>{1, 2, 2}));
}

TEST(ServiceDecode, DuplicatePeerIdsAreTypedRejections) {
  // PR 10: a repeated peer id within one call is traffic, not a bug — the
  // first occurrence is processed, every later one is a typed rejection
  // surfaced in the result and tallied on the peer's SessionStats.
  CooperationService svc;
  const CarPerceptionData ego;
  const std::vector<std::uint8_t> payload = tinyPayload(5, 0);
  const std::vector<PeerFrameInput> inputs = {{5, &payload}, {5, nullptr}};
  const std::vector<SessionFrameResult> results =
      svc.processFrame(ego, inputs);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].admission, SessionAdmission::Admitted);
  EXPECT_TRUE(results[0].received);
  EXPECT_EQ(results[1].admission, SessionAdmission::RejectedDuplicate);
  EXPECT_FALSE(results[1].received);
  EXPECT_EQ(svc.sessionCount(), 1);
  const ServiceReport rep = svc.report();
  ASSERT_EQ(rep.sessions.size(), 1u);
  EXPECT_EQ(rep.sessions[0].frames, 1);  // only the first occurrence counts
  EXPECT_EQ(rep.sessions[0].duplicateRejects, 1);
}

TEST(ServiceDecode, SessionCapRejectsOrEvictsTyped) {
  // A full table with every incumbent present this frame (protected from
  // eviction) rejects the newcomer with a typed outcome; when the
  // incumbents sit out, the most evictable one is displaced instead.
  ServiceConfig cfg;
  cfg.maxSessions = 2;
  CooperationService svc(cfg);
  const CarPerceptionData ego;
  (void)svc.processFrame(ego, {{1, nullptr}, {2, nullptr}});
  auto full = svc.processFrame(ego, {{1, nullptr}, {2, nullptr}, {3, nullptr}});
  ASSERT_EQ(full.size(), 3u);
  EXPECT_EQ(full[2].admission, SessionAdmission::RejectedFull);
  EXPECT_EQ(svc.sessionCount(), 2);
  EXPECT_EQ(svc.report().rejectedFull, 1);
  // Peers 1 and 2 sit out: both are idle, trackless and silent — peer 3
  // displaces the lowest-id highest-scoring victim (1).
  auto evicting = svc.processFrame(ego, {{3, nullptr}});
  ASSERT_EQ(evicting.size(), 1u);
  EXPECT_EQ(evicting[0].admission, SessionAdmission::AdmittedEvicting);
  EXPECT_EQ(evicting[0].evictedPeerId, 1u);
  EXPECT_EQ(svc.sessionCount(), 2);
  EXPECT_EQ(svc.retiredCount(), 1);
}

TEST(ServiceDecode, ReportJsonIsIdenticalAt1And8Threads) {
  // Coast/decode-only traffic across 6 sessions and 4 frames: the report
  // must not depend on the thread count (cheap enough for TSan).
  auto run = [](int threads) {
    ThreadLimit limit(threads);
    CooperationService svc;
    const CarPerceptionData ego;
    std::vector<std::uint8_t> corrupt = tinyPayload(9, 0);
    corrupt[corrupt.size() - 1] ^= 0xFF;
    const std::vector<std::uint8_t> mismatch = tinyPayload(8, 1);
    for (int f = 0; f < 4; ++f) {
      std::vector<PeerFrameInput> inputs;
      for (std::uint64_t peer = 1; peer <= 6; ++peer) {
        inputs.push_back({peer, (peer + static_cast<std::uint64_t>(f)) % 3
                                        == 0
                                    ? nullptr
                                    : (peer % 2 == 0 ? &corrupt
                                                     : &mismatch)});
      }
      (void)svc.processFrame(ego, inputs);
    }
    return svc.report().toJson();
  };
  EXPECT_EQ(run(1), run(8));
}

// ---- pinned full-pipeline scenario (real recover()) -----------------------

/// Three frames of the stream_test scenario family (seed 7, 30 m
/// separation, no link faults): every delivered remote payload is
/// recoverable by the default aligner.
const std::vector<StreamFrame>& scenarioFrames() {
  static const std::vector<StreamFrame> frames = [] {
    SequenceConfig sc;
    sc.seed = 7;
    sc.frames = 3;
    sc.scenario.separation = 30.0;
    return SequenceGenerator(sc).generate();
  }();
  return frames;
}

struct ServiceRun {
  ServiceReport report;
  std::string reportJson;
  std::vector<std::vector<SessionFrameResult>> frames;
};

/// The pinned 3-session scenario: peer 1 receives clean traffic, peer 2's
/// payloads have one byte flipped every frame, peer 3 suffers link drops
/// on frames 1 and 2.
ServiceRun runService(int threads) {
  ThreadLimit limit(threads);
  const std::vector<StreamFrame>& frames = scenarioFrames();

  ServiceConfig cfg;
  cfg.seed = 42;
  CooperationService svc(cfg);
  const BBAlign aligner(cfg.tracker.aligner);

  ServiceRun run;
  for (std::size_t k = 0; k < frames.size(); ++k) {
    const StreamFrame& f = frames[k];
    const CarPerceptionData ego =
        aligner.makeCarData(f.egoCloud, f.egoDets);
    const CarPerceptionData other =
        aligner.makeCarData(f.otherCloud, f.otherDets);
    const std::vector<std::uint8_t> clean = svc.sendFrame(
        other, /*senderId=*/1, static_cast<std::uint32_t>(k));
    // A different byte each frame; the CRC catches every one.
    std::vector<std::uint8_t> corrupted = clean;
    corrupted[(k + 1) * corrupted.size() / 4] ^= 0x10;

    std::vector<PeerFrameInput> inputs;
    inputs.push_back({1, &clean});
    inputs.push_back({2, &corrupted});
    inputs.push_back({3, k >= 1 ? nullptr : &clean});
    run.frames.push_back(svc.processFrame(ego, inputs));
  }
  run.report = svc.report();
  run.reportJson = run.report.toJson();
  return run;
}

const ServiceRun& runAt1Thread() {
  static const ServiceRun r = runService(1);
  return r;
}

const ServiceRun& runAt8Threads() {
  static const ServiceRun r = runService(8);
  return r;
}

TEST(ServicePipeline, CleanSessionRecoversCorruptSessionDegrades) {
  const ServiceRun& run = runAt1Thread();
  ASSERT_EQ(run.frames.size(), 3u);
  for (std::size_t k = 0; k < run.frames.size(); ++k) {
    const std::vector<SessionFrameResult>& results = run.frames[k];
    ASSERT_EQ(results.size(), 3u);
    // Peer 1: clean traffic decodes and tracks every frame.
    EXPECT_EQ(results[0].decodeError, wire::DecodeError::None);
    EXPECT_TRUE(results[0].track.poseValid) << "frame " << k;
    // Peer 2: corrupted traffic is rejected typed and absorbed by the
    // ladder — the decoder never crashes, the tracker just coasts.
    EXPECT_NE(results[1].decodeError, wire::DecodeError::None)
        << "frame " << k;
    EXPECT_FALSE(results[1].track.poseValid);
  }
  // Peer 3: locked on frame 0, then extrapolates through the drops.
  EXPECT_TRUE(run.frames[0][2].track.poseValid);
  EXPECT_EQ(run.frames[1][2].track.outcome, TrackerOutcome::Extrapolated);
  EXPECT_EQ(run.frames[2][2].track.outcome, TrackerOutcome::Extrapolated);
}

TEST(ServicePipeline, ReportAggregatesAcrossSessions) {
  const ServiceReport& rep = runAt1Thread().report;
  EXPECT_EQ(rep.framesProcessed, 3);
  ASSERT_EQ(rep.sessions.size(), 3u);
  EXPECT_EQ(rep.sessions[0].peerId, 1u);
  EXPECT_EQ(rep.sessions[0].decodeOk, 3);
  EXPECT_EQ(rep.sessions[0].decodeFailed, 0);
  EXPECT_EQ(rep.sessions[0].posesReported, 3);
  EXPECT_GT(rep.sessions[0].bytesReceived, 0);
  EXPECT_EQ(rep.sessions[1].peerId, 2u);
  EXPECT_EQ(rep.sessions[1].decodeFailed, 3);
  EXPECT_EQ(rep.sessions[1].decodeOk, 0);
  EXPECT_EQ(rep.sessions[2].peerId, 3u);
  EXPECT_EQ(rep.sessions[2].decodeOk, 1);
  EXPECT_EQ(rep.sessions[2].linkDrops, 2);
  // The aggregate is the field-wise sum of the sessions.
  EXPECT_EQ(rep.aggregate.frames, 9);
  EXPECT_EQ(rep.aggregate.decodeOk, 4);
  EXPECT_EQ(rep.aggregate.decodeFailed, 3);
  EXPECT_EQ(rep.aggregate.linkDrops, 2);
  EXPECT_EQ(rep.aggregate.bytesReceived, rep.sessions[0].bytesReceived +
                                             rep.sessions[2].bytesReceived);
}

/// Field-wise byte comparison of two runs: poses via EXPECT_EQ on the
/// doubles, not EXPECT_NEAR, and per-frame reports as JSON without the
/// wall-clock stage timings (the one legitimately nondeterministic block).
void expectRunsByteIdentical(const ServiceRun& a, const ServiceRun& b) {
  EXPECT_EQ(a.reportJson, b.reportJson);
  ASSERT_EQ(a.frames.size(), b.frames.size());
  for (std::size_t k = 0; k < a.frames.size(); ++k) {
    ASSERT_EQ(a.frames[k].size(), b.frames[k].size());
    for (std::size_t s = 0; s < a.frames[k].size(); ++s) {
      const SessionFrameResult& x = a.frames[k][s];
      const SessionFrameResult& y = b.frames[k][s];
      EXPECT_EQ(x.peerId, y.peerId);
      EXPECT_EQ(x.decodeError, y.decodeError);
      EXPECT_EQ(x.track.poseValid, y.track.poseValid);
      EXPECT_EQ(x.track.outcome, y.track.outcome);
      EXPECT_EQ(x.track.pose.t.x, y.track.pose.t.x);
      EXPECT_EQ(x.track.pose.t.y, y.track.pose.t.y);
      EXPECT_EQ(x.track.pose.theta, y.track.pose.theta);
      EXPECT_EQ(x.track.confidence, y.track.confidence);
      EXPECT_EQ(x.report.toJson(/*includeTimings=*/false),
                y.report.toJson(/*includeTimings=*/false));
    }
  }
}

TEST(ServicePipeline, ByteIdenticalReportsAt1And8Threads) {
  expectRunsByteIdentical(runAt1Thread(), runAt8Threads());
}

// ---- one peer: the session step fans out on the pool ----------------------

/// The paper's setting: one peer with clean traffic for two frames. Its
/// session is the frame's only chunk, so recover()'s nested loops run on
/// the pool. Reduced RANSAC draws keep the run cheap enough for TSan.
ServiceRun runLonePeerService(int threads) {
  ThreadLimit limit(threads);
  ServiceConfig cfg;
  cfg.seed = 42;
  cfg.tracker.aligner.ransacBv.iterations = 2000;
  cfg.tracker.aligner.ransacBox.iterations = 200;
  CooperationService svc(cfg);
  const BBAlign aligner(cfg.tracker.aligner);

  ServiceRun run;
  for (std::size_t k = 0; k < 2; ++k) {
    const StreamFrame& f = scenarioFrames()[k];
    const CarPerceptionData ego = aligner.makeCarData(f.egoCloud, f.egoDets);
    const CarPerceptionData other =
        aligner.makeCarData(f.otherCloud, f.otherDets);
    const std::vector<std::uint8_t> payload =
        svc.sendFrame(other, 1, static_cast<std::uint32_t>(k));
    run.frames.push_back(svc.processFrame(ego, {{1, &payload}}));
  }
  run.report = svc.report();
  run.reportJson = run.report.toJson();
  return run;
}

TEST(ServiceLonePeer, ByteIdenticalAt1And8Threads) {
  const ServiceRun one = runLonePeerService(1);
  EXPECT_TRUE(one.frames[0][0].track.poseValid);
  expectRunsByteIdentical(one, runLonePeerService(8));
}

struct ScopedMetrics {
  explicit ScopedMetrics(obs::MetricsRegistry& r) {
    obs::installMetricsRegistry(&r);
  }
  ~ScopedMetrics() { obs::installMetricsRegistry(nullptr); }
};

TEST(ServiceEgoCache, HitMeansTheKeyframeAndTheFrameSharedFeatures) {
  // Three granted peers whose payloads cannot be aligned (wrong image
  // size), so each frame costs the ego features and nothing else.
  constexpr int kFrames = 3;
  // Three mismatches (penalty 1 each) leave each peer short of quarantine.
  ServiceConfig cfg;
  const BBAlign aligner(cfg.tracker.aligner);
  const StreamFrame& f = scenarioFrames()[0];
  const CarPerceptionData ego = aligner.makeCarData(f.egoCloud, f.egoDets);

  const auto run = [&](bool recordKeyframes) {
    obs::MetricsRegistry reg;
    ScopedMetrics scoped(reg);
    CooperationService svc(cfg);
    map::KeyframeStore store;
    if (recordKeyframes) svc.attachMapStore(&store);
    for (int k = 0; k < kFrames; ++k) {
      const auto frame = static_cast<std::uint32_t>(k);
      const std::vector<std::uint8_t> a = tinyPayload(1, frame);
      const std::vector<std::uint8_t> b = tinyPayload(2, frame);
      const std::vector<std::uint8_t> c = tinyPayload(3, frame);
      if (recordKeyframes)
        (void)svc.recordEgoKeyframe(ego, Pose2(10.0 * k, 0.0, 0.0));
      const auto results = svc.processFrame(ego, {{1, &a}, {2, &b}, {3, &c}});
      for (const SessionFrameResult& r : results)
        EXPECT_TRUE(r.payloadMismatch);
    }
    return std::make_pair(reg.counter("cache.ego_miss").value(),
                          reg.counter("cache.ego_hit").value());
  };

  // No map: one computation per frame, no reuse to count.
  EXPECT_EQ(run(false), std::make_pair(std::int64_t{kFrames}, std::int64_t{0}));
  // recordEgoKeyframe computes them first; the frame reuses them.
  EXPECT_EQ(run(true),
            std::make_pair(std::int64_t{kFrames}, std::int64_t{kFrames}));
}

}  // namespace
}  // namespace bba::service
