// service/admission: the fleet-scale admission pipeline — spatial
// pre-gate, per-frame recover budget, deterministic starvation-free slot
// rotation — both as pure functions and end-to-end through
// CooperationService::processFrame().
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/parallel.hpp"
#include "dataset/sequence.hpp"
#include "service/admission.hpp"
#include "service/cooperation_service.hpp"
#include "wire/message.hpp"

namespace bba::service {
namespace {

constexpr double kBvRange = 100.0;  // BevParams default

// ---- PreGate: pure-function geometry --------------------------------------

TEST(PreGate, IdentityClaimFullyOverlaps) {
  EXPECT_DOUBLE_EQ(bvFootprintOverlap(Pose2{}, kBvRange), 1.0);
  EXPECT_TRUE(preGateAdmits(Pose2{}, kBvRange, PreGateConfig{}));
}

TEST(PreGate, OverlapShrinksWithDistanceAndVanishes) {
  const double half =
      bvFootprintOverlap(Pose2{Vec2{kBvRange, 0.0}, 0.0}, kBvRange);
  EXPECT_DOUBLE_EQ(half, 0.5);
  // Two 2*range squares share nothing beyond 2*range of axis offset.
  EXPECT_DOUBLE_EQ(
      bvFootprintOverlap(Pose2{Vec2{2.0 * kBvRange + 1.0, 0.0}, 0.0},
                         kBvRange),
      0.0);
}

TEST(PreGate, RotationOnlyClaimStillAdmits) {
  const double rotated =
      bvFootprintOverlap(Pose2{Vec2{0.0, 0.0}, 0.785398}, kBvRange);
  EXPECT_GT(rotated, 0.8);  // 45 deg: octagon intersection, ~0.83
  EXPECT_LT(rotated, 1.0);
  EXPECT_TRUE(
      preGateAdmits(Pose2{Vec2{0.0, 0.0}, 0.785398}, kBvRange,
                    PreGateConfig{}));
}

TEST(PreGate, RangeCapRejectsBeforeOverlap) {
  // At 160 m the footprints still overlap substantially (squares of side
  // 200), but the claim exceeds maxPairingRangeM = 150 — range wins.
  const Pose2 claim{Vec2{160.0, 0.0}, 0.0};
  EXPECT_GT(bvFootprintOverlap(claim, kBvRange), PreGateConfig{}.minOverlapFrac);
  EXPECT_FALSE(preGateAdmits(claim, kBvRange, PreGateConfig{}));
  // Inside the cap the same geometry admits.
  EXPECT_TRUE(
      preGateAdmits(Pose2{Vec2{100.0, 0.0}, 0.0}, kBvRange, PreGateConfig{}));
}

/// A gate with no range cap and no overlap floor: admits every pose.
PreGateConfig openGate() {
  PreGateConfig open;
  open.maxPairingRangeM = std::numeric_limits<double>::infinity();
  open.minOverlapFrac = 0.0;
  return open;
}

TEST(PreGate, DisabledGateAdmitsEverything) {
  EXPECT_TRUE(
      preGateAdmits(Pose2{Vec2{1e6, 1e6}, 2.0}, kBvRange, openGate()));
}

TEST(PreGate, IsPureBitwiseRepeatable) {
  // Same inputs, bitwise-identical outputs across calls: no hidden state.
  const Pose2 claim{Vec2{73.25, -41.5}, 0.37};
  const double a = bvFootprintOverlap(claim, kBvRange);
  const double b = bvFootprintOverlap(claim, kBvRange);
  EXPECT_EQ(a, b);
  EXPECT_EQ(preGateAdmits(claim, kBvRange, PreGateConfig{}),
            preGateAdmits(claim, kBvRange, PreGateConfig{}));
}

// ---- RecoverSlots: budget arithmetic + deterministic rotation -------------

TEST(RecoverSlots, EffectiveBudgetCombinesCapAndDeadline) {
  EXPECT_EQ(effectiveRecoverBudget(BudgetConfig{}), 0);  // unlimited
  EXPECT_EQ(effectiveRecoverBudget(BudgetConfig{4, 0.0, 200.0}), 4);
  // Deadline -> slots through the static cost model.
  EXPECT_EQ(effectiveRecoverBudget(BudgetConfig{0, 450.0, 200.0}), 2);
  // A deadline below one recover still grants one slot (no fleet freeze).
  EXPECT_EQ(effectiveRecoverBudget(BudgetConfig{0, 50.0, 200.0}), 1);
  // Both set: the stricter cap wins.
  EXPECT_EQ(effectiveRecoverBudget(BudgetConfig{3, 1000.0, 200.0}), 3);
  EXPECT_EQ(effectiveRecoverBudget(BudgetConfig{9, 400.0, 200.0}), 2);
}

TEST(RecoverSlots, StalenessFirstThenPeerId) {
  const std::vector<SlotCandidate> candidates = {
      {/*peerId=*/7, /*staleness=*/0, /*slot=*/0},
      {3, 2, 1},
      {9, 2, 2},
      {1, 1, 3},
  };
  const std::vector<std::size_t> granted = grantRecoverSlots(candidates, 2);
  // Stalest first; the staleness-2 tie breaks to the lower peer id.
  ASSERT_EQ(granted.size(), 2u);
  EXPECT_EQ(granted[0], 1u);  // peer 3
  EXPECT_EQ(granted[1], 2u);  // peer 9
}

TEST(RecoverSlots, NonPositiveBudgetGrantsEveryone) {
  const std::vector<SlotCandidate> candidates = {{5, 0, 0}, {6, 3, 1}};
  EXPECT_EQ(grantRecoverSlots(candidates, 0).size(), 2u);
  EXPECT_EQ(grantRecoverSlots(candidates, -1).size(), 2u);
  EXPECT_EQ(grantRecoverSlots(candidates, 99).size(), 2u);
}

TEST(RecoverSlots, GrantSetIsInputOrderInvariant) {
  const std::vector<SlotCandidate> a = {
      {11, 1, 0}, {22, 0, 1}, {33, 1, 2}, {44, 2, 3}};
  std::vector<SlotCandidate> b = {a[2], a[0], a[3], a[1]};
  for (std::size_t i = 0; i < b.size(); ++i) b[i].slot = i;
  auto grantedPeers = [](const std::vector<SlotCandidate>& c, int budget) {
    std::vector<std::uint64_t> ids;
    for (std::size_t slot : grantRecoverSlots(c, budget))
      ids.push_back(c[slot].peerId);
    return ids;
  };
  // Same peers granted, in the same order, however the caller indexed them.
  EXPECT_EQ(grantedPeers(a, 2), grantedPeers(b, 2));
}

// ---- Service-level admission (tiny payloads, no recover) ------------------

/// The service_test tiny payload — valid wire frame, 8x8 BV that cannot
/// match the aligner — extended with an optional pose-prior claim for the
/// pre-gate to chew on.
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
  msg.bvImage(2, 3) = 0.5f;
  msg.boxes.push_back(OrientedBox2{{1.0, 2.0}, {2.0, 1.0}, 0.1});
  return wire::encode(msg, wire::WireConfig{});
}

TEST(PreGate, FarClaimIsSkippedWithoutDecode) {
  CooperationService svc;
  const CarPerceptionData ego;
  const Pose2 far{Vec2{400.0, 0.0}, 0.0};
  const Pose2 near{Vec2{20.0, 5.0}, 0.1};
  const std::vector<std::uint8_t> farPayload = tinyPayload(2, 0, &far);
  const std::vector<std::uint8_t> nearPayload = tinyPayload(1, 0, &near);
  const std::vector<std::uint8_t> clueless = tinyPayload(3, 0);

  const std::vector<SessionFrameResult> results = svc.processFrame(
      ego, {{1, &nearPayload}, {2, &farPayload}, {3, &clueless}});
  ASSERT_EQ(results.size(), 3u);
  // In-range claim: decoded as usual (payload-mismatch path).
  EXPECT_FALSE(results[0].pregateSkipped);
  EXPECT_TRUE(results[0].payloadMismatch);
  // Far claim: held before the decoder ever saw the payload.
  EXPECT_TRUE(results[1].pregateSkipped);
  EXPECT_TRUE(results[1].received);
  EXPECT_FALSE(results[1].payloadMismatch);
  EXPECT_TRUE(results[1].hasClaim);
  EXPECT_EQ(results[1].claim.t.x, far.t.x);
  // Claim-less message: nothing to gate on, always admitted.
  EXPECT_FALSE(results[2].pregateSkipped);
  EXPECT_TRUE(results[2].payloadMismatch);

  const ServiceReport rep = svc.report();
  EXPECT_EQ(rep.sessions[0].pregateSkips, 0);
  EXPECT_EQ(rep.sessions[0].recoverSlots, 1);
  EXPECT_EQ(rep.sessions[1].pregateSkips, 1);
  EXPECT_EQ(rep.sessions[1].decodeOk, 0);
  EXPECT_EQ(rep.sessions[1].recoverSlots, 0);
  EXPECT_EQ(rep.aggregate.pregateSkips, 1);
}

TEST(PreGate, HeldShedAndReplayedInputsReportTheirClaim) {
  // The claim comes from the peek, so an input that carries one reports
  // it whether the gate held it, the budget shed it, or the replay guard
  // coasted it after its slot was granted.
  ServiceConfig cfg;
  cfg.budget.maxRecoversPerFrame = 1;
  CooperationService svc(cfg);
  const CarPerceptionData ego;
  const Pose2 near{Vec2{20.0, 5.0}, 0.1};
  const Pose2 near2{Vec2{-12.0, 7.0}, -0.2};
  const Pose2 far{Vec2{400.0, 0.0}, 0.0};
  const std::vector<std::uint8_t> granted = tinyPayload(1, 0, &near);
  const std::vector<std::uint8_t> shed = tinyPayload(2, 0, &near2);
  const std::vector<std::uint8_t> skipped = tinyPayload(3, 0, &far);
  const auto expectClaim = [](const SessionFrameResult& r,
                              const std::vector<std::uint8_t>& payload) {
    const wire::MessagePeek pk = wire::peek(payload);
    ASSERT_TRUE(pk.hasPosePrior);
    EXPECT_TRUE(r.hasClaim) << "peer " << r.peerId;
    EXPECT_EQ(r.claim.t.x, pk.posePrior.t.x) << "peer " << r.peerId;
    EXPECT_EQ(r.claim.t.y, pk.posePrior.t.y) << "peer " << r.peerId;
    EXPECT_EQ(r.claim.theta, pk.posePrior.theta) << "peer " << r.peerId;
  };

  const std::vector<SessionFrameResult> first = svc.processFrame(
      ego, {{1, &granted}, {2, &shed}, {3, &skipped}});
  ASSERT_EQ(first.size(), 3u);
  EXPECT_TRUE(first[0].payloadMismatch);
  expectClaim(first[0], granted);
  EXPECT_TRUE(first[1].shed);
  expectClaim(first[1], shed);
  EXPECT_TRUE(first[2].pregateSkipped);
  expectClaim(first[2], skipped);

  // Peer 1 alone replays its frame 0: granted, decoded, then coasted.
  const std::vector<SessionFrameResult> replay =
      svc.processFrame(ego, {{1, &granted}});
  ASSERT_EQ(replay.size(), 1u);
  EXPECT_TRUE(replay[0].replayRejected);
  EXPECT_FALSE(replay[0].shed);
  expectClaim(replay[0], granted);
}

/// Run F frames of an S-peer tiny-payload fleet and return (report JSON,
/// per-frame granted peer ids, per-frame shed flags as a string).
struct FleetRun {
  std::string reportJson;
  std::vector<std::vector<std::uint64_t>> grantedByFrame;
  std::string shedPattern;
};

FleetRun runTinyFleet(int threads, int peers, int budget, int frames,
                      bool pregate = true) {
  ThreadLimit limit(threads);
  ServiceConfig cfg;
  if (!pregate) cfg.pregate = openGate();
  cfg.budget.maxRecoversPerFrame = budget;
  CooperationService svc(cfg);
  const CarPerceptionData ego;
  const Pose2 near{Vec2{15.0, -3.0}, 0.05};

  FleetRun run;
  for (int f = 0; f < frames; ++f) {
    std::vector<std::vector<std::uint8_t>> payloads;
    payloads.reserve(static_cast<std::size_t>(peers));
    std::vector<PeerFrameInput> inputs;
    for (int p = 0; p < peers; ++p) {
      const std::uint64_t id = static_cast<std::uint64_t>(p + 1);
      payloads.push_back(
          tinyPayload(id, static_cast<std::uint32_t>(f), &near));
      inputs.push_back({id, &payloads.back()});
    }
    const std::vector<SessionFrameResult> results =
        svc.processFrame(ego, inputs);
    std::vector<std::uint64_t> granted;
    for (const SessionFrameResult& r : results) {
      if (r.received && !r.pregateSkipped && !r.shed)
        granted.push_back(r.peerId);
      run.shedPattern += r.shed ? '1' : '0';
    }
    run.shedPattern += '/';
    run.grantedByFrame.push_back(granted);
  }
  run.reportJson = svc.report().toJson();
  return run;
}

TEST(ShedDeterminism, ByteIdenticalAt1And8Threads) {
  const FleetRun one = runTinyFleet(1, 16, 4, 6);
  const FleetRun eight = runTinyFleet(8, 16, 4, 6);
  EXPECT_EQ(one.reportJson, eight.reportJson);
  EXPECT_EQ(one.shedPattern, eight.shedPattern);
  EXPECT_EQ(one.grantedByFrame, eight.grantedByFrame);
}

TEST(ShedDeterminism, PreGateIsByteTransparentOnInRangeClaims) {
  // Every claim is in range, budget unlimited: the gate must change
  // nothing — same report bytes with the default gate or an open one.
  const FleetRun on = runTinyFleet(1, 6, 0, 4, /*pregate=*/true);
  const FleetRun off = runTinyFleet(1, 6, 0, 4, /*pregate=*/false);
  EXPECT_EQ(on.reportJson, off.reportJson);
  EXPECT_EQ(on.shedPattern, off.shedPattern);
}

TEST(Starvation, RoundRobinGrantsEverySessionEqually) {
  // 16 peers, budget 4, 12 frames: the staleness-first rotation must grant
  // each session exactly 12*4/16 = 3 slots, in strict id-rotation order.
  const int peers = 16, budget = 4, frames = 12;
  const FleetRun run = runTinyFleet(1, peers, budget, frames);
  std::array<int, 16> grants{};
  std::array<int, 16> lastGrant;
  lastGrant.fill(-1);
  for (int f = 0; f < frames; ++f) {
    const std::vector<std::uint64_t>& g =
        run.grantedByFrame[static_cast<std::size_t>(f)];
    ASSERT_EQ(g.size(), static_cast<std::size_t>(budget)) << "frame " << f;
    for (std::uint64_t id : g) {
      const int idx = static_cast<int>(id) - 1;
      // No session waits longer than ceil(S/budget) = 4 frames.
      if (lastGrant[idx] >= 0) {
        EXPECT_LE(f - lastGrant[idx], 4);
      }
      lastGrant[idx] = f;
      grants[idx] += 1;
    }
  }
  for (int p = 0; p < peers; ++p) EXPECT_EQ(grants[p], 3) << "peer " << p + 1;
  // Frame 0 ties break by id: the first four ids take the first slots.
  EXPECT_EQ(run.grantedByFrame[0],
            (std::vector<std::uint64_t>{1, 2, 3, 4}));
  EXPECT_EQ(run.grantedByFrame[1],
            (std::vector<std::uint64_t>{5, 6, 7, 8}));
  EXPECT_EQ(run.grantedByFrame[2],
            (std::vector<std::uint64_t>{9, 10, 11, 12}));
  EXPECT_EQ(run.grantedByFrame[3],
            (std::vector<std::uint64_t>{13, 14, 15, 16}));
}

// ---- Pinned full-pipeline scenario (real recover(); heavy label) ----------

TEST(AdmissionScenario, FarClaimSkipsAtZeroRecoverCostWhileNeighborLocks) {
  SequenceConfig sc;
  sc.seed = 7;
  sc.frames = 3;
  sc.scenario.separation = 30.0;
  const SequenceGenerator gen(sc);

  ServiceConfig cfg;
  cfg.seed = 42;
  cfg.usePosePriors = false;  // claims feed the gate, not the tracker
  CooperationService svc(cfg);
  const BBAlign aligner(cfg.tracker.aligner);
  const Pose2 farClaim{Vec2{400.0, 120.0}, 0.4};

  for (int k = 0; k < sc.frames; ++k) {
    const StreamFrame f = gen.frame(k);
    const CarPerceptionData ego = aligner.makeCarData(f.egoCloud, f.egoDets);
    const CarPerceptionData other =
        aligner.makeCarData(f.otherCloud, f.otherDets);
    const Pose2 honest = f.gtDeliveredOtherToEgo;
    const std::vector<std::uint8_t> inRange = svc.sendFrame(
        other, 1, static_cast<std::uint32_t>(k), nullptr, &honest);
    const std::vector<std::uint8_t> outOfRange = svc.sendFrame(
        other, 2, static_cast<std::uint32_t>(k), nullptr, &farClaim);
    const std::vector<std::uint8_t> noClaim =
        svc.sendFrame(other, 3, static_cast<std::uint32_t>(k));

    const std::vector<SessionFrameResult> results = svc.processFrame(
        ego, {{1, &inRange}, {2, &outOfRange}, {3, &noClaim}});
    // The honestly-claimed neighbor locks from frame 0.
    EXPECT_TRUE(results[0].track.poseValid) << "frame " << k;
    EXPECT_FALSE(results[0].pregateSkipped);
    // The far-claimed peer is held every frame without a decode.
    EXPECT_TRUE(results[1].pregateSkipped) << "frame " << k;
    EXPECT_FALSE(results[1].track.poseValid);
    // The claim-less peer is indistinguishable from pre-admission behavior.
    EXPECT_TRUE(results[2].track.poseValid) << "frame " << k;
  }

  const ServiceReport rep = svc.report();
  EXPECT_EQ(rep.sessions[0].posesReported, 3);
  EXPECT_EQ(rep.sessions[0].recoverSlots, 3);
  // Zero recover cost for the far peer: never decoded, never granted a
  // slot, every frame skipped by the gate.
  EXPECT_EQ(rep.sessions[1].decodeOk, 0);
  EXPECT_EQ(rep.sessions[1].recoverSlots, 0);
  EXPECT_EQ(rep.sessions[1].pregateSkips, 3);
  EXPECT_EQ(rep.sessions[2].posesReported, 3);
}

}  // namespace
}  // namespace bba::service
