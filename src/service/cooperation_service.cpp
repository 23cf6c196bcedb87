#include "service/cooperation_service.hpp"

#include <cstdio>
#include <unordered_map>
#include <unordered_set>

#include "common/assert.hpp"
#include "common/parallel.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace bba::service {

namespace {

/// Decorrelated per-session RNG stream: the same (seed, peerId) always
/// yields the same stream, and distinct peers never share one (same
/// mixing discipline as dataset/fault.cpp's frameRng).
std::uint64_t sessionSeed(std::uint64_t serviceSeed, std::uint64_t peerId) {
  return serviceSeed ^ (peerId * 0x9E3779B97F4A7C15ULL) ^
         0xC2B2AE3D27D4EB4FULL;
}

void appendStatsJson(std::string& out, const SessionStats& s) {
  char buf[512];
  std::snprintf(
      buf, sizeof buf,
      "{\"peer\":%llu,\"frames\":%d,\"link_drops\":%d,\"decode_ok\":%d,"
      "\"decode_failed\":%d,\"payload_mismatch\":%d,\"bytes_received\":%lld,"
      "\"poses_reported\":%d,\"last_confidence\":%.6f,"
      "\"pregate_skips\":%d,\"shed_frames\":%d,\"recover_slots\":%d",
      static_cast<unsigned long long>(s.peerId), s.frames, s.linkDrops,
      s.decodeOk, s.decodeFailed, s.payloadMismatch,
      static_cast<long long>(s.bytesReceived), s.posesReported,
      s.lastConfidence, s.pregateSkips, s.shedFrames, s.recoverSlots);
  out += buf;
  std::snprintf(
      buf, sizeof buf,
      ",\"lifecycle\":{\"silent_frames\":%d,\"duplicate_rejects\":%d,"
      "\"evictions\":%d,\"reaps\":%d,\"readmissions\":%d,\"retired\":%d}",
      s.silentFrames, s.duplicateRejects, s.evictions, s.reaps,
      s.readmissions, s.retired ? 1 : 0);
  out += buf;
  out += ",\"reject_by_cause\":{";
  bool first = true;
  for (int i = 1; i < wire::kDecodeErrorCount; ++i) {
    if (!first) out += ',';
    first = false;
    std::snprintf(buf, sizeof buf, "\"%s\":%d",
                  wire::toString(static_cast<wire::DecodeError>(i)),
                  s.rejectByCause[static_cast<std::size_t>(i)]);
    out += buf;
  }
  out += "},\"outcomes\":{";
  for (int i = 0; i < kTrackerOutcomeCount; ++i) {
    if (i > 0) out += ',';
    std::snprintf(buf, sizeof buf, "\"%s\":%d",
                  toString(static_cast<TrackerOutcome>(i)),
                  s.outcomes[static_cast<std::size_t>(i)]);
    out += buf;
  }
  out += "},\"health\":{";
  std::snprintf(
      buf, sizeof buf,
      "\"state\":\"%s\",\"suspicion\":%d,\"quarantines\":%d,"
      "\"quarantined_frames\":%d,\"replay_rejects\":%d,"
      "\"validation_rejects\":%d,\"gate_rejects\":%d,"
      "\"consistency_outliers\":%d,\"transitions\":{",
      toString(s.health), s.suspicion, s.quarantines, s.quarantinedFrames,
      s.replayRejects, s.validationRejects, s.gateRejects,
      s.consistencyOutliers);
  out += buf;
  // Transition tally: only the edges actually taken, in fixed
  // (from, to) enum order — stable keys, no noise from impossible edges.
  bool firstEdge = true;
  for (int from = 0; from < kPeerHealthCount; ++from) {
    for (int to = 0; to < kPeerHealthCount; ++to) {
      const int count = s.healthTransitions[static_cast<std::size_t>(from)]
                                           [static_cast<std::size_t>(to)];
      if (count == 0) continue;
      if (!firstEdge) out += ',';
      firstEdge = false;
      std::snprintf(buf, sizeof buf, "\"%s>%s\":%d",
                    toString(static_cast<PeerHealth>(from)),
                    toString(static_cast<PeerHealth>(to)), count);
      out += buf;
    }
  }
  out += "}}}";
}

}  // namespace

std::string ServiceReport::toJson() const {
  std::string out;
  out.reserve(512 + sessions.size() * 512);
  char buf[64];
  std::snprintf(buf, sizeof buf,
                "{\"frames\":%d,\"rejected_full\":%d,\"sessions\":[",
                framesProcessed, rejectedFull);
  out += buf;
  for (std::size_t i = 0; i < sessions.size(); ++i) {
    if (i > 0) out += ',';
    appendStatsJson(out, sessions[i]);
  }
  out += "],\"aggregate\":";
  appendStatsJson(out, aggregate);
  out += "}";
  return out;
}

wire::CooperativeMessage toMessage(const CarPerceptionData& data,
                                   std::uint64_t senderId,
                                   std::uint32_t frameIndex,
                                   std::int64_t captureTimeMicros,
                                   const Pose2* posePrior) {
  wire::CooperativeMessage msg;
  msg.senderId = senderId;
  msg.frameIndex = frameIndex;
  msg.captureTimeMicros = captureTimeMicros;
  if (posePrior != nullptr) {
    msg.hasPosePrior = true;
    msg.posePrior = *posePrior;
  }
  msg.bvImage = data.bvImage;
  msg.boxes = data.boxes;
  return msg;
}

CarPerceptionData toCarData(const wire::CooperativeMessage& msg) {
  return CarPerceptionData{msg.bvImage, msg.boxes};
}

struct CooperationService::Session {
  Session(std::uint64_t id, const ServiceConfig& cfg)
      : peerId(id), tracker(cfg.tracker), rng(sessionSeed(cfg.seed, id)),
        health(cfg.health) {
    stats.peerId = id;
  }

  std::uint64_t peerId;
  PoseTracker tracker;
  Rng rng;
  SessionStats stats;
  PeerHealthFsm health;
  /// Frames since this session was last granted a recover slot (see
  /// admission.hpp: resets on grant, so the shed rotation cannot starve).
  int staleness = 0;
  /// Consecutive service frames the peer has been absent from the inputs
  /// (the reaper's clock; resets whenever the peer appears).
  int silentRun = 0;
  /// Last fresh lock (Recovered / RecoveredRelaxed), kept for the
  /// eviction score and the readmission warm start.
  bool hadLock = false;
  Pose2 lastLockedPose;
  int lastLockFrame = 0;
  // Replay guard state: metadata of the last accepted message.
  bool haveLastMeta = false;
  std::uint32_t lastFrameIndex = 0;
  std::int64_t lastCaptureMicros = 0;
};

CooperationService::CooperationService(ServiceConfig config)
    : cfg_(std::move(config)), featureAligner_(cfg_.tracker.aligner) {
  BBA_ASSERT_MSG(cfg_.maxSessions >= 1, "maxSessions must be >= 1");
}

CooperationService::~CooperationService() = default;

CooperationService::Session& CooperationService::createSession(
    std::uint64_t peerId, bool* readmitted) {
  auto session = std::make_unique<Session>(peerId, cfg_);
  *readmitted = false;
  auto archived = retired_.find(peerId);
  if (archived != retired_.end()) {
    // A known peer returned: restore its cumulative stats and its trust
    // FSM (an evict/return cycle never launders a quarantine record), and
    // — when the last lock is fresh enough and the peer is trusted —
    // warm-start the new tracker from the archived pose so the returning
    // peer re-locks through the normal ladder instead of bootstrapping
    // blind. The RNG stream restarts from (seed, peerId) as on any fresh
    // session: readmission is deterministic by construction.
    const RetiredSession& r = archived->second;
    session->stats = r.stats;
    session->stats.retired = false;
    session->stats.readmissions += 1;
    session->health = r.health;
    session->hadLock = r.hadLock;
    session->lastLockedPose = r.lastLockedPose;
    session->lastLockFrame = r.lastLockFrame;
    session->haveLastMeta = r.haveLastMeta;
    session->lastFrameIndex = r.lastFrameIndex;
    session->lastCaptureMicros = r.lastCaptureMicros;
    if (r.hadLock &&
        frames_ - r.lastLockFrame <= cfg_.lifecycle.warmStartMaxGapFrames &&
        r.health.shouldProcess()) {
      session->tracker.acceptExternalPose(r.lastLockedPose);
      BBA_COUNTER_ADD("session.warm_started", 1);
    }
    retired_.erase(archived);
    *readmitted = true;
    BBA_COUNTER_ADD("session.readmitted", 1);
  } else {
    BBA_COUNTER_ADD("session.admitted", 1);
  }
  auto it = sessions_.emplace(peerId, std::move(session)).first;
  BBA_COUNTER_ADD("service.sessions_created", 1);
  BBA_GAUGE_SET("service.sessions", static_cast<double>(sessions_.size()));
  BBA_GAUGE_SET("session.retired", static_cast<double>(retired_.size()));
  return *it->second;
}

void CooperationService::retireSession(std::uint64_t peerId) {
  auto it = sessions_.find(peerId);
  BBA_ASSERT_MSG(it != sessions_.end(), "retireSession: unknown peer");
  Session& s = *it->second;
  RetiredSession r;
  r.stats = s.stats;
  r.stats.retired = true;
  r.health = s.health;
  r.hadLock = s.hadLock;
  r.lastLockedPose = s.lastLockedPose;
  r.lastLockFrame = s.lastLockFrame;
  r.haveLastMeta = s.haveLastMeta;
  r.lastFrameIndex = s.lastFrameIndex;
  r.lastCaptureMicros = s.lastCaptureMicros;
  BBA_HISTOGRAM_OBSERVE(
      "session.lifetime_frames",
      static_cast<double>(r.stats.frames + r.stats.silentFrames));
  retired_[peerId] = std::move(r);
  sessions_.erase(it);
  BBA_GAUGE_SET("service.sessions", static_cast<double>(sessions_.size()));
  BBA_GAUGE_SET("session.retired", static_cast<double>(retired_.size()));
}

std::vector<std::uint8_t> CooperationService::sendFrame(
    const CarPerceptionData& data, std::uint64_t senderId,
    std::uint32_t frameIndex, wire::EncodeStats* stats,
    const Pose2* posePrior, std::int64_t captureTimeMicros) const {
  return wire::encode(
      toMessage(data, senderId, frameIndex, captureTimeMicros, posePrior),
      cfg_.wire, stats);
}

std::vector<SessionFrameResult> CooperationService::processFrame(
    const CarPerceptionData& ego,
    const std::vector<PeerFrameInput>& inputs) {
  BBA_SPAN("service.processFrame");
  const std::int64_t n = static_cast<std::int64_t>(inputs.size());
  std::vector<SessionFrameResult> results(inputs.size());
  std::vector<Session*> bySlot(inputs.size(), nullptr);

  // ---- Session admission (serial, deterministic) -----------------------
  // Typed outcomes, never asserts: a repeated peer id within one call is
  // rejected (first occurrence wins), a newcomer auto-registers into a
  // free slot, and under maxSessions pressure either displaces the most
  // evictable ABSENT session (pure score, id tiebreak — see
  // session_lifecycle.hpp) or is rejected for this frame. Sessions whose
  // peers are present this frame are never evicted.
  std::unordered_set<std::uint64_t> presentIds;
  presentIds.reserve(inputs.size());
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    results[i].peerId = inputs[i].peerId;
    if (!presentIds.insert(inputs[i].peerId).second)
      results[i].admission = SessionAdmission::RejectedDuplicate;
  }
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const std::uint64_t peerId = inputs[i].peerId;
    SessionFrameResult& res = results[i];
    if (res.admission == SessionAdmission::RejectedDuplicate) continue;
    auto it = sessions_.find(peerId);
    if (it != sessions_.end()) {
      res.admission = SessionAdmission::Existing;
      bySlot[i] = it->second.get();
      continue;
    }
    if (static_cast<int>(sessions_.size()) >= cfg_.maxSessions) {
      std::optional<std::uint64_t> victim;
      if (cfg_.lifecycle.enableEviction) {
        std::vector<EvictionCandidate> candidates;
        candidates.reserve(sessions_.size());
        for (const auto& [id, s] : sessions_) {
          if (presentIds.count(id) != 0) continue;  // present: protected
          EvictionCandidate c;
          c.peerId = id;
          c.health = s->health.state();
          c.silentRunFrames = s->silentRun;
          c.lockStaleFrames =
              s->hadLock ? frames_ - s->lastLockFrame : frames_;
          c.hasTrack = s->tracker.hasTrack();
          c.lastConfidence = s->stats.lastConfidence;
          candidates.push_back(c);
        }
        victim = pickEvictionVictim(candidates, cfg_.lifecycle);
      }
      if (!victim) {
        res.admission = SessionAdmission::RejectedFull;
        rejectedFull_ += 1;
        BBA_COUNTER_ADD("session.rejected_full", 1);
        continue;
      }
      sessions_.at(*victim)->stats.evictions += 1;
      retireSession(*victim);
      BBA_COUNTER_ADD("session.evicted", 1);
      res.admission = SessionAdmission::AdmittedEvicting;
      res.evictedPeerId = *victim;
    } else {
      res.admission = SessionAdmission::Admitted;
    }
    bool readmitted = false;
    bySlot[i] = &createSession(peerId, &readmitted);
    res.readmission = readmitted;
  }

  // ---- Admission (serial, deterministic) -------------------------------
  // Stage 1, spatial pre-gate: peek each payload's wire prefix (framing +
  // CRC + claim; the BV image and boxes — the expensive 99% — stay
  // untouched) and drop sessions whose claimed pose cannot overlap the
  // ego BV footprint. A peek failure admits the payload so the full
  // decoder classifies (and the health FSM penalizes) the reject as
  // before. Claims only ever REMOVE work: they never seed a track, so a
  // spoofed claim can waste at most its own session's slot.
  struct Admission {
    bool pregateSkipped = false;
    bool priorFromTrack = false;
    bool shed = false;
    bool hasPeekClaim = false;
    Pose2 peekClaim;
  };
  std::vector<Admission> admission(inputs.size());
  std::vector<SlotCandidate> candidates;
  candidates.reserve(inputs.size());
  const double bvRange = cfg_.tracker.aligner.bev.range;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const PeerFrameInput& in = inputs[i];
    if (bySlot[i] == nullptr) continue;  // rejected: no session this frame
    if (in.payload == nullptr) continue;  // link drop: coasts, no slot
    if (cfg_.enableHealth && !bySlot[i]->health.shouldProcess())
      continue;  // quarantined: excluded entirely, not even peeked
    Admission& adm = admission[i];
    if (cfg_.pregate.enable) {
      const wire::MessagePeek pk = wire::peek(*in.payload);
      if (pk.error == wire::DecodeError::None && pk.hasPosePrior) {
        adm.hasPeekClaim = true;
        adm.peekClaim = pk.posePrior;
      }
      // Once the session is locked, gate on OUR dead-reckoned prediction
      // instead of the sender's word: a lying claim cannot keep an
      // in-range, already-locked peer held. Claims still gate
      // bootstrapping sessions (no own-state yet to predict from).
      std::optional<Pose2> gatePose;
      if (cfg_.pregate.useTrackPrior && bySlot[i]->tracker.hasTrack()) {
        gatePose = bySlot[i]->tracker.predictNext();
        adm.priorFromTrack = gatePose.has_value();
      }
      if (!gatePose && adm.hasPeekClaim) gatePose = adm.peekClaim;
      if (gatePose && !preGateAdmits(*gatePose, bvRange, cfg_.pregate)) {
        adm.pregateSkipped = true;
        continue;
      }
    }
    candidates.push_back({in.peerId, bySlot[i]->staleness, i});
  }

  // Stage 2, recover budget: staleness-first, ties by session id. The
  // schedule is a pure function of (session staleness, peer ids, budget)
  // — no wall clock, no thread count — so results stay byte-identical at
  // any BBA_THREADS. Staleness resets on GRANT (not on lock): a session
  // that keeps failing still rotates through, and no session waits more
  // than ceil(sessions/budget) frames.
  const int recoverBudget = effectiveRecoverBudget(cfg_.budget);
  std::vector<char> granted(inputs.size(), 0);
  if (recoverBudget > 0 &&
      candidates.size() > static_cast<std::size_t>(recoverBudget)) {
    for (std::size_t slot : grantRecoverSlots(candidates, recoverBudget))
      granted[slot] = 1;
    for (const auto& c : candidates)
      if (!granted[c.slot]) admission[c.slot].shed = true;
  } else {
    for (const auto& c : candidates) granted[c.slot] = 1;
  }
  bool anyGranted = false;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    if (bySlot[i] == nullptr) continue;
    Session& session = *bySlot[i];
    if (granted[i]) {
      session.staleness = 0;
      anyGranted = true;
    } else {
      session.staleness += 1;
    }
  }

  // Frame-scoped ego-feature sharing: every session borrows the frame's
  // one immutable EgoFeatures instead of computing its own, so the frame
  // pays one ego feature pipeline instead of one per peer. The sessions'
  // results are byte-identical to computing them inline, since the shared
  // features come from the same deterministic pipeline.
  // Skipped when the ego payload is absent or mis-sized (callers whose
  // every input coasts may legitimately pass an empty ego).
  // Skipped entirely when no session was granted a slot: an all-skipped/
  // all-shed/all-coasting frame must cost no ego pipeline either.
  const EgoFeatures* sharedEgo = nullptr;
  const int egoExpected = cfg_.tracker.aligner.bev.imageSize();
  if (anyGranted && ego.bvImage.width() == egoExpected &&
      ego.bvImage.height() == egoExpected) {
    BBA_SPAN("service.ego-features");
    sharedEgo = &frameEgoFeatures(ego);
  }

  // Cross-session parallel, per-session serial: every input owns its
  // session exclusively (ids are distinct), so chunk grain 1 gives one
  // independent task per session and results are byte-identical at any
  // thread count. With one input the lone chunk claims no pool, so that
  // session's recover() spreads its own loops over every thread.
  parallelFor(0, n, 1, [&](std::int64_t b, std::int64_t e) {
    for (std::int64_t i = b; i < e; ++i) {
      const PeerFrameInput& in = inputs[static_cast<std::size_t>(i)];
      if (bySlot[static_cast<std::size_t>(i)] == nullptr)
        continue;  // typed rejection: no session, no tracker step
      Session& session = *bySlot[static_cast<std::size_t>(i)];
      SessionFrameResult& res = results[static_cast<std::size_t>(i)];
      if (cfg_.enableHealth && !session.health.shouldProcess()) {
        // Quarantined: the payload is not even decoded — exclusion is the
        // whole point. The FSM's backoff counts down in the merge below.
        res.quarantined = true;
        continue;
      }
      if (in.payload == nullptr) {
        res.track = session.tracker.coast(&res.report);
        continue;
      }
      const Admission& adm = admission[static_cast<std::size_t>(i)];
      if (adm.pregateSkipped || adm.shed) {
        // Tracked-but-not-aligned: the payload arrived but the admission
        // stage withheld it (out-of-range claim, or no budget left). The
        // tracker holds the pose by extrapolation without charging its
        // miss budget — skipFrame(), not coast().
        res.received = true;
        res.payloadBytes = in.payload->size();
        res.pregateSkipped = adm.pregateSkipped;
        res.pregatePriorFromTrack = adm.priorFromTrack;
        res.shed = adm.shed;
        if (adm.hasPeekClaim) {
          res.hasClaim = true;
          res.claim = adm.peekClaim;
        }
        res.track = session.tracker.skipFrame(&res.report);
        continue;
      }
      res.received = true;
      res.payloadBytes = in.payload->size();
      res.pregatePriorFromTrack = adm.priorFromTrack;
      wire::DecodeResult decoded = wire::decode(*in.payload);
      res.decodeError = decoded.error;
      if (decoded.error != wire::DecodeError::None) {
        // Corrupt traffic degrades to a dropped frame: the tracker's
        // ladder absorbs it exactly like a link drop.
        res.track = session.tracker.coast(&res.report);
        continue;
      }
      const wire::CooperativeMessage& msg = decoded.message;
      if (cfg_.enableReplayGuard && session.haveLastMeta) {
        // Monotonicity guard: a replayed payload carries its ORIGINAL
        // frame index / capture time, which cannot advance past the last
        // accepted message. Capture times of 0 mean "not stamped" and are
        // exempt (frame indices alone still guard those senders).
        const bool staleIndex = msg.frameIndex <= session.lastFrameIndex;
        const bool staleCapture =
            msg.captureTimeMicros != 0 && session.lastCaptureMicros != 0 &&
            msg.captureTimeMicros <= session.lastCaptureMicros;
        if (staleIndex || staleCapture) {
          res.replayRejected = true;
          res.track = session.tracker.coast(&res.report);
          continue;
        }
      }
      session.haveLastMeta = true;
      session.lastFrameIndex = msg.frameIndex;
      session.lastCaptureMicros = msg.captureTimeMicros;
      const int expected = cfg_.tracker.aligner.bev.imageSize();
      if (msg.bvImage.empty() || msg.bvImage.width() != expected ||
          msg.bvImage.height() != expected) {
        res.payloadMismatch = true;
        res.track = session.tracker.coast(&res.report);
        continue;
      }
      // The claim is recorded whether or not it is used as a warm start:
      // the cross-peer consistency vote below compares CLAIMS against
      // RECOVERED poses, and a spoofer's geometry recovers fine.
      res.hasClaim = msg.hasPosePrior;
      res.claim = msg.posePrior;
      if (cfg_.usePosePriors && msg.hasPosePrior &&
          !session.tracker.hasTrack()) {
        session.tracker.acceptExternalPose(msg.posePrior);
      }
      res.track = session.tracker.update(toCarData(msg), ego, session.rng,
                                         &res.report, sharedEgo);
    }
  });

  // Cross-peer consistency (serial, deterministic): with >= minPeers
  // freshly recovered sessions that also carried claims, every pair's
  // recovered relative pose T_a^-1∘T_b must match the claimed relative
  // P_a^-1∘P_b. A lying claim poisons every pair the liar is in, so the
  // liar (and only the liar) loses the majority vote. Honest sessions are
  // never mutated — their results stay byte-identical to a no-liar run.
  if (cfg_.enableHealth && cfg_.enableConsistency) {
    std::vector<std::size_t> voters;
    for (std::size_t i = 0; i < results.size(); ++i) {
      const SessionFrameResult& r = results[i];
      const bool fresh = r.track.poseValid &&
                         (r.track.outcome == TrackerOutcome::Recovered ||
                          r.track.outcome == TrackerOutcome::RecoveredRelaxed);
      if (fresh && r.hasClaim && !r.quarantined && !r.replayRejected)
        voters.push_back(i);
    }
    const int p = static_cast<int>(voters.size());
    if (p >= cfg_.consistencyMinPeers) {
      for (int a = 0; a < p; ++a) {
        int mismatches = 0;
        const SessionFrameResult& ra = results[voters[static_cast<std::size_t>(a)]];
        for (int b = 0; b < p; ++b) {
          if (a == b) continue;
          const SessionFrameResult& rb =
              results[voters[static_cast<std::size_t>(b)]];
          const Pose2 recovered =
              ra.track.pose.inverse().compose(rb.track.pose);
          const Pose2 claimed = ra.claim.inverse().compose(rb.claim);
          const PoseError err = poseError(recovered, claimed);
          if (err.translation > cfg_.consistencyMaxTranslation ||
              err.rotationDeg > cfg_.consistencyMaxRotationDeg)
            mismatches += 1;
        }
        // Strict majority of this voter's pairs disagree => outlier.
        if (2 * mismatches > p - 1)
          results[voters[static_cast<std::size_t>(a)]].consistencyOutlier =
              true;
      }
    }
  }

  // Deterministic merge: stats, health FSM steps and service.*/health.*
  // metrics update in session-id order, never in completion order.
  std::unordered_map<std::uint64_t, std::size_t> slotOf;
  slotOf.reserve(inputs.size());
  for (std::size_t i = 0; i < inputs.size(); ++i)
    slotOf.emplace(inputs[i].peerId, i);
  for (auto& [peerId, session] : sessions_) {
    auto found = slotOf.find(peerId);
    if (found == slotOf.end()) continue;  // peer absent this frame
    SessionFrameResult& res = results[found->second];
    SessionStats& st = session->stats;
    st.frames += 1;
    session->silentRun = 0;  // the peer showed up: the reaper clock resets
    if (!res.quarantined &&
        (res.track.outcome == TrackerOutcome::Recovered ||
         res.track.outcome == TrackerOutcome::RecoveredRelaxed)) {
      session->hadLock = true;
      session->lastLockedPose = res.track.pose;
      session->lastLockFrame = frames_;
    }
    if (res.quarantined) {
      st.quarantinedFrames += 1;
      BBA_COUNTER_ADD("health.quarantined_frames", 1);
    } else {
      st.outcomes[static_cast<std::size_t>(res.track.outcome)] += 1;
      st.lastConfidence = res.track.confidence;
      if (res.pregateSkipped) {
        st.pregateSkips += 1;
        BBA_COUNTER_ADD("service.pregate_skipped", 1);
        if (res.pregatePriorFromTrack)
          BBA_COUNTER_ADD("service.pregate_track_prior", 1);
      } else if (res.shed) {
        st.shedFrames += 1;
        BBA_COUNTER_ADD("service.shed", 1);
      } else if (!res.received) {
        st.linkDrops += 1;
        BBA_COUNTER_ADD("service.link_drops", 1);
      } else if (res.decodeError != wire::DecodeError::None) {
        st.decodeFailed += 1;
        st.rejectByCause[static_cast<std::size_t>(res.decodeError)] += 1;
        BBA_COUNTER_ADD("service.decode_failed", 1);
      } else if (res.replayRejected) {
        st.replayRejects += 1;
        BBA_COUNTER_ADD("health.replay_rejected", 1);
      } else {
        st.decodeOk += 1;
        st.bytesReceived += static_cast<std::int64_t>(res.payloadBytes);
        if (res.payloadMismatch) {
          st.payloadMismatch += 1;
          BBA_COUNTER_ADD("service.payload_mismatch", 1);
        }
      }
      if (res.report.validationRejected) st.validationRejects += 1;
      if (res.report.gateRejected) st.gateRejects += 1;
      if (res.consistencyOutlier) {
        st.consistencyOutliers += 1;
        BBA_COUNTER_ADD("health.consistency_outliers", 1);
      }
      if (res.track.poseValid) {
        st.posesReported += 1;
        BBA_COUNTER_ADD("service.poses_reported", 1);
      }
      if (res.received && !res.pregateSkipped && !res.shed) {
        // Granted a decode+recover slot (whether or not the decode then
        // succeeded — the slot was spent either way).
        st.recoverSlots += 1;
        BBA_COUNTER_ADD("service.recover_slots", 1);
      }
    }
    if (cfg_.enableHealth) {
      const PeerHealthConfig& h = cfg_.health;
      int penalty = 0;
      if (!res.quarantined) {
        // A pure link drop is weather, not malice: no penalty. Everything
        // a *sender* controls feeds the FSM.
        if (res.received && res.decodeError != wire::DecodeError::None)
          penalty += h.penaltyDecodeReject;
        if (res.payloadMismatch) penalty += h.penaltyDecodeReject;
        if (res.replayRejected) penalty += h.penaltyReplay;
        if (res.report.validationRejected) penalty += h.penaltyValidation;
        if (res.report.gateRejected) penalty += h.penaltyGateReject;
        if (res.consistencyOutlier) penalty += h.penaltyConsistency;
      }
      const PeerHealth before = session->health.state();
      res.health = session->health.onFrame(res.quarantined ? 0 : penalty);
      BBA_COUNTER_ADD("health.frames", 1);
      BBA_HISTOGRAM_OBSERVE("health.penalty", static_cast<double>(penalty));
      BBA_HISTOGRAM_OBSERVE("health.suspicion",
                            static_cast<double>(session->health.suspicion()));
      if (res.health != before) {
        switch (res.health) {
          case PeerHealth::Healthy:
            BBA_COUNTER_ADD("health.to_healthy", 1);
            break;
          case PeerHealth::Suspect:
            BBA_COUNTER_ADD("health.to_suspect", 1);
            break;
          case PeerHealth::Quarantined:
            BBA_COUNTER_ADD("health.to_quarantined", 1);
            break;
          case PeerHealth::Probing:
            BBA_COUNTER_ADD("health.to_probing", 1);
            break;
        }
      }
      st.health = session->health.state();
      st.suspicion = session->health.suspicion();
      st.quarantines = session->health.quarantines();
      st.healthTransitions = session->health.transitions();
    } else {
      res.health = PeerHealth::Healthy;
    }
  }
  // Duplicate accounting (serial, input order): the rejection is typed on
  // the result; the tally lands on the peer's session when one exists.
  for (const SessionFrameResult& res : results) {
    if (res.admission != SessionAdmission::RejectedDuplicate) continue;
    BBA_COUNTER_ADD("session.duplicate_rejected", 1);
    auto dup = sessions_.find(res.peerId);
    if (dup != sessions_.end()) dup->second->stats.duplicateRejects += 1;
  }

  // Silent-peer reaper (serial, id order, logical frame counts only): a
  // session whose peer sat out this frame ages one silent frame; past
  // maxSilentFrames it is retired — archived for a possible return, slot
  // freed. Survivors' RNG streams, trackers and stats are untouched: a
  // reap changes which ids EXIST, never what the others compute.
  std::vector<std::uint64_t> reap;
  for (auto& [peerId, session] : sessions_) {
    if (presentIds.count(peerId) != 0) continue;
    session->silentRun += 1;
    session->stats.silentFrames += 1;
    BBA_COUNTER_ADD("session.silent_frames", 1);
    if (cfg_.lifecycle.maxSilentFrames > 0 &&
        session->silentRun > cfg_.lifecycle.maxSilentFrames)
      reap.push_back(peerId);
  }
  for (std::uint64_t peerId : reap) {
    sessions_.at(peerId)->stats.reaps += 1;
    retireSession(peerId);
    BBA_COUNTER_ADD("session.reaped", 1);
  }

  frames_ += 1;
  BBA_COUNTER_ADD("service.frames", 1);
  BBA_COUNTER_ADD("service.inputs", n);
  for (const Admission& adm : admission) {
    if (adm.shed) {
      // Once per frame: the budget was insufficient for the admitted set.
      BBA_COUNTER_ADD("service.budget_exhausted", 1);
      break;
    }
  }
  return results;
}

map::InsertResult CooperationService::recordEgoKeyframe(
    const CarPerceptionData& ego, const Pose2& egoGlobalPose) {
  if (mapStore_ == nullptr) return {};
  const int egoExpected = cfg_.tracker.aligner.bev.imageSize();
  if (ego.bvImage.width() != egoExpected ||
      ego.bvImage.height() != egoExpected) {
    return {};
  }
  const EgoFeatures& feats = frameEgoFeatures(ego);
  if (feats.descriptors.empty()) return {};
  return mapStore_->insert(egoGlobalPose, feats.descriptors, ego);
}

const EgoFeatures& CooperationService::frameEgoFeatures(
    const CarPerceptionData& ego) {
  if (egoFrame_ == frames_) {
    BBA_COUNTER_ADD("cache.ego_hit", 1);
  } else {
    BBA_COUNTER_ADD("cache.ego_miss", 1);
    egoFeatures_ = featureAligner_.computeEgoFeatures(ego);
    egoFrame_ = frames_;
  }
  return *egoFeatures_;
}

ServiceReport CooperationService::report() const {
  ServiceReport rep;
  rep.framesProcessed = frames_;
  rep.rejectedFull = rejectedFull_;
  rep.sessions.reserve(sessions_.size() + retired_.size());
  double confidenceSum = 0.0;
  const auto addRow = [&](const SessionStats& st) {
    rep.sessions.push_back(st);
    rep.aggregate.frames += st.frames;
    rep.aggregate.linkDrops += st.linkDrops;
    rep.aggregate.decodeOk += st.decodeOk;
    rep.aggregate.decodeFailed += st.decodeFailed;
    rep.aggregate.payloadMismatch += st.payloadMismatch;
    rep.aggregate.bytesReceived += st.bytesReceived;
    for (std::size_t i = 0; i < st.rejectByCause.size(); ++i)
      rep.aggregate.rejectByCause[i] += st.rejectByCause[i];
    for (std::size_t i = 0; i < st.outcomes.size(); ++i)
      rep.aggregate.outcomes[i] += st.outcomes[i];
    rep.aggregate.posesReported += st.posesReported;
    rep.aggregate.pregateSkips += st.pregateSkips;
    rep.aggregate.shedFrames += st.shedFrames;
    rep.aggregate.recoverSlots += st.recoverSlots;
    rep.aggregate.silentFrames += st.silentFrames;
    rep.aggregate.duplicateRejects += st.duplicateRejects;
    rep.aggregate.evictions += st.evictions;
    rep.aggregate.reaps += st.reaps;
    rep.aggregate.readmissions += st.readmissions;
    rep.aggregate.suspicion += st.suspicion;
    rep.aggregate.quarantines += st.quarantines;
    rep.aggregate.quarantinedFrames += st.quarantinedFrames;
    rep.aggregate.replayRejects += st.replayRejects;
    rep.aggregate.validationRejects += st.validationRejects;
    rep.aggregate.gateRejects += st.gateRejects;
    rep.aggregate.consistencyOutliers += st.consistencyOutliers;
    for (std::size_t a = 0; a < st.healthTransitions.size(); ++a)
      for (std::size_t b = 0; b < st.healthTransitions[a].size(); ++b)
        rep.aggregate.healthTransitions[a][b] += st.healthTransitions[a][b];
    confidenceSum += st.lastConfidence;
  };
  // Live rows first, then the retired archive — each id-ordered, so the
  // report (and its JSON) is byte-identical across runs and thread counts.
  for (const auto& [peerId, session] : sessions_) addRow(session->stats);
  for (const auto& [peerId, r] : retired_) addRow(r.stats);
  if (!rep.sessions.empty())
    rep.aggregate.lastConfidence =
        confidenceSum / static_cast<double>(rep.sessions.size());
  return rep;
}

}  // namespace bba::service
