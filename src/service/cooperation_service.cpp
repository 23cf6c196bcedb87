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

// Penalty weights of the health FSM's evidence channels (added to the
// peer's suspicion; see service/peer_health.cpp for the thresholds they
// are weighed against).
constexpr int kPenaltyDecodeReject = 1;  ///< wire decode failure / mismatch
constexpr int kPenaltyReplay = 2;  ///< frame-index/capture-time monotonicity
constexpr int kPenaltyValidation = 2;   ///< gt-free validation gate demotion
constexpr int kPenaltyGateReject = 1;   ///< innovation-gate reject
constexpr int kPenaltyConsistency = 2;  ///< outvoted in cross-peer consistency

// Cross-peer consistency vote: it runs with at least this many voters, and
// a pair disagrees when its recovered and claimed relative poses differ by
// more than either bound.
constexpr int kConsistencyMinPeers = 3;
constexpr double kConsistencyMaxTranslation = 2.0;  ///< meters
constexpr double kConsistencyMaxRotationDeg = 10.0;

/// Decorrelated per-session RNG stream: the same (seed, peerId) always
/// yields the same stream, and distinct peers never share one (same
/// mixing discipline as dataset/fault.cpp's frameRng).
std::uint64_t sessionSeed(std::uint64_t serviceSeed, std::uint64_t peerId) {
  return serviceSeed ^ (peerId * 0x9E3779B97F4A7C15ULL) ^
         0xC2B2AE3D27D4EB4FULL;
}

/// Count one fact the report and the metrics both carry: the report field
/// and the counter of the same meaning move together.
void tally(int& field, [[maybe_unused]] const char* counter) {
  field += 1;
  BBA_COUNTER_ADD(counter, 1);
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

struct CooperationService::Session : PeerRecord {
  Session(std::uint64_t id, const ServiceConfig& cfg)
      : peerId(id), tracker(cfg.tracker), rng(sessionSeed(cfg.seed, id)) {
    stats.peerId = id;
  }

  std::uint64_t peerId;
  PoseTracker tracker;
  Rng rng;
  /// Frames since this session was last granted a recover slot on a
  /// frame with a usable ego image (see admission.hpp: resets on grant, so
  /// the shed rotation cannot starve).
  int staleness = 0;
  /// Consecutive service frames the peer has been absent from the inputs
  /// (the reaper's clock; resets whenever the peer appears).
  int silentRun = 0;
};

CooperationService::CooperationService(ServiceConfig config)
    : cfg_(std::move(config)), featureAligner_(cfg_.tracker.aligner) {
  BBA_ASSERT_MSG(cfg_.maxSessions >= 1, "maxSessions must be >= 1");
}

CooperationService::~CooperationService() = default;

CooperationService::Session& CooperationService::createSession(
    std::uint64_t peerId, bool* readmitted) {
  auto session = std::make_unique<Session>(peerId, cfg_);
  auto archived = retired_.find(peerId);
  *readmitted = archived != retired_.end();
  if (*readmitted) {
    // A known peer returned: restore its whole record — cumulative stats,
    // trust FSM (an evict/return cycle never launders a quarantine
    // record), last lock and replay watermark — and, when the last lock
    // is fresh enough and the peer is trusted, warm-start the new tracker
    // from the archived pose so the returning peer re-locks through the
    // normal ladder instead of bootstrapping blind. The RNG stream
    // restarts from (seed, peerId) as on any fresh session: readmission
    // is deterministic by construction.
    PeerRecord& record = *session;
    record = std::move(archived->second);
    retired_.erase(archived);
    record.stats.retired = false;
    tally(record.stats.readmissions, "session.readmitted");
    if (record.hadLock &&
        frames_ - record.lastLockFrame <= kWarmStartMaxGapFrames &&
        record.health.shouldProcess()) {
      session->tracker.acceptExternalPose(record.lastLockedPose);
      BBA_COUNTER_ADD("session.warm_started", 1);
    }
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
  PeerRecord& record = *it->second;
  record.stats.retired = true;
  BBA_HISTOGRAM_OBSERVE(
      "session.lifetime_frames",
      static_cast<double>(record.stats.frames + record.stats.silentFrames));
  retired_[peerId] = std::move(record);
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
      std::vector<EvictionCandidate> candidates;
      candidates.reserve(sessions_.size());
      for (const auto& [id, s] : sessions_) {
        if (presentIds.count(id) != 0) continue;  // present: protected
        EvictionCandidate c;
        c.peerId = id;
        c.health = s->health.state();
        c.silentRunFrames = s->silentRun;
        c.lockStaleFrames = s->hadLock ? frames_ - s->lastLockFrame : frames_;
        c.hasTrack = s->tracker.hasTrack();
        c.lastConfidence = s->stats.lastConfidence;
        candidates.push_back(c);
      }
      const std::optional<std::uint64_t> victim =
          pickEvictionVictim(candidates);
      if (!victim) {
        res.admission = SessionAdmission::RejectedFull;
        tally(rejectedFull_, "session.rejected_full");
        continue;
      }
      tally(sessions_.at(*victim)->stats.evictions, "session.evicted");
      retireSession(*victim);
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
  // Each input's fate is decided once, here, into its result; the step
  // below only acts on it. Quarantined sessions are excluded entirely: not
  // even peeked (the FSM's backoff counts down in the merge). Stage 1,
  // spatial pre-gate: peek each payload's wire prefix (framing + CRC +
  // claim; the BV image and boxes — the expensive 99% — stay untouched)
  // and hold sessions whose gate pose cannot overlap the ego BV footprint.
  // A peek failure admits the payload so the full decoder classifies (and
  // the health FSM penalizes) the reject. Claims only ever REMOVE work
  // here, so a spoofed claim can waste at most its own session's slot. The
  // claim is recorded whatever happens next: the consistency vote compares
  // CLAIMS against RECOVERED poses, and a spoofer's geometry recovers fine.
  std::vector<SlotCandidate> candidates;
  candidates.reserve(inputs.size());
  const double bvRange = cfg_.tracker.aligner.bev.range;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    Session* session = bySlot[i];
    SessionFrameResult& res = results[i];
    if (session == nullptr) continue;  // rejected: no session this frame
    if (!session->health.shouldProcess()) {
      res.quarantined = true;
      continue;
    }
    const std::vector<std::uint8_t>* payload = inputs[i].payload;
    if (payload == nullptr) continue;  // link drop: coasts, no slot
    res.received = true;
    res.payloadBytes = payload->size();
    const wire::MessagePeek pk = wire::peek(*payload);
    if (pk.error == wire::DecodeError::None && pk.hasPosePrior) {
      res.hasClaim = true;
      res.claim = pk.posePrior;
    }
    // Once the session is locked, gate on OUR dead-reckoned prediction
    // instead of the sender's word: a lying claim cannot keep an in-range,
    // already-locked peer held. Claims still gate bootstrapping sessions
    // (no own-state yet to predict from).
    std::optional<Pose2> gatePose;
    if (session->tracker.hasTrack()) {
      gatePose = session->tracker.predictNext();
      res.pregatePriorFromTrack = gatePose.has_value();
    }
    if (!gatePose && res.hasClaim) gatePose = res.claim;
    if (gatePose && !preGateAdmits(*gatePose, bvRange)) {
      res.pregateSkipped = true;
      continue;
    }
    candidates.push_back({inputs[i].peerId, session->staleness, i});
  }

  // Stage 2, recover budget: staleness-first, ties by session id. The
  // schedule is a pure function of (session staleness, peer ids, budget)
  // — no wall clock, no thread count — so results stay byte-identical at
  // any BBA_THREADS. Staleness resets on GRANT (not on lock): a session
  // that keeps failing still rotates through, and no session waits more
  // than ceil(sessions/budget) frames. A grant on a frame whose ego is
  // unusable does not count: nothing was aligned.
  const std::vector<std::size_t> grantedSlots =
      grantRecoverSlots(candidates, effectiveRecoverBudget(cfg_.budget));
  std::vector<char> granted(inputs.size(), 0);
  for (std::size_t slot : grantedSlots) granted[slot] = 1;
  for (const SlotCandidate& c : candidates)
    results[c.slot].shed = granted[c.slot] == 0;
  if (grantedSlots.size() < candidates.size()) {
    // Once per frame: the budget was insufficient for the admitted set.
    BBA_COUNTER_ADD("service.budget_exhausted", 1);
  }
  // Whether the ego can be aligned against is decided once, here: an
  // absent or mis-sized ego image (callers whose every input coasts may
  // legitimately pass an empty ego) gets no features, and its granted
  // sessions hold their tracks below. No recover() runs for them, so they
  // age like shed sessions instead of resetting.
  const int imageSize = cfg_.tracker.aligner.bev.imageSize();
  const bool egoUsable = ego.bvImage.width() == imageSize &&
                         ego.bvImage.height() == imageSize;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    if (bySlot[i] != nullptr)
      bySlot[i]->staleness =
          granted[i] && egoUsable ? 0 : bySlot[i]->staleness + 1;
  }

  // Frame-scoped ego-feature sharing: every session borrows the frame's
  // one immutable ImageFeatures instead of computing its own, so the frame
  // pays one ego feature pipeline instead of one per peer. The sessions'
  // results are byte-identical to computing them inline, since the shared
  // features come from the same deterministic pipeline. No features when
  // no session was granted a slot: an all-skipped/all-shed/all-coasting
  // frame costs no ego pipeline.
  const ImageFeatures* sharedEgo = nullptr;
  if (!grantedSlots.empty() && egoUsable) {
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
      const std::size_t slot = static_cast<std::size_t>(i);
      SessionFrameResult& res = results[slot];
      // Typed rejections and quarantined sessions get no tracker step.
      if (bySlot[slot] == nullptr || res.quarantined) continue;
      Session& session = *bySlot[slot];
      if (!res.received) {
        res.track = session.tracker.coast(&res.report);
        continue;
      }
      if (res.pregateSkipped || res.shed) {
        // Tracked-but-not-aligned: the payload arrived but the admission
        // stage withheld it (out-of-range gate pose, or no budget left).
        // The tracker holds the pose by extrapolation without charging its
        // miss budget — skipFrame(), not coast().
        res.track = session.tracker.skipFrame(&res.report);
        continue;
      }
      wire::DecodeResult decoded = wire::decode(*inputs[slot].payload);
      res.decodeError = decoded.error;
      if (decoded.error != wire::DecodeError::None) {
        // Corrupt traffic degrades to a dropped frame: the tracker's
        // ladder absorbs it exactly like a link drop.
        res.track = session.tracker.coast(&res.report);
        continue;
      }
      const wire::CooperativeMessage& msg = decoded.message;
      if (session.haveLastMeta) {
        // Replay guard: a replayed payload carries its ORIGINAL
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
      if (msg.bvImage.empty() || msg.bvImage.width() != imageSize ||
          msg.bvImage.height() != imageSize) {
        res.payloadMismatch = true;
        res.track = session.tracker.coast(&res.report);
        continue;
      }
      if (!egoUsable) {
        // A good payload with nothing to align it against: the peer did
        // nothing wrong, so the track is held without a miss or a penalty.
        res.egoUnusable = true;
        res.track = session.tracker.skipFrame(&res.report);
        continue;
      }
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
  if (p >= kConsistencyMinPeers) {
    for (int a = 0; a < p; ++a) {
      int mismatches = 0;
      const SessionFrameResult& ra =
          results[voters[static_cast<std::size_t>(a)]];
      for (int b = 0; b < p; ++b) {
        if (a == b) continue;
        const SessionFrameResult& rb =
            results[voters[static_cast<std::size_t>(b)]];
        const Pose2 recovered = ra.track.pose.inverse().compose(rb.track.pose);
        const Pose2 claimed = ra.claim.inverse().compose(rb.claim);
        const PoseError err = poseError(recovered, claimed);
        if (err.translation > kConsistencyMaxTranslation ||
            err.rotationDeg > kConsistencyMaxRotationDeg)
          mismatches += 1;
      }
      // Strict majority of this voter's pairs disagree => outlier.
      if (2 * mismatches > p - 1)
        results[voters[static_cast<std::size_t>(a)]].consistencyOutlier = true;
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
      tally(st.quarantinedFrames, "health.quarantined_frames");
    } else {
      st.outcomes[static_cast<std::size_t>(res.track.outcome)] += 1;
      st.lastConfidence = res.track.confidence;
      if (res.pregateSkipped) {
        tally(st.pregateSkips, "service.pregate_skipped");
        if (res.pregatePriorFromTrack)
          BBA_COUNTER_ADD("service.pregate_track_prior", 1);
      } else if (res.shed) {
        tally(st.shedFrames, "service.shed");
      } else if (!res.received) {
        tally(st.linkDrops, "service.link_drops");
      } else if (res.decodeError != wire::DecodeError::None) {
        tally(st.decodeFailed, "service.decode_failed");
        st.rejectByCause[static_cast<std::size_t>(res.decodeError)] += 1;
      } else if (res.replayRejected) {
        tally(st.replayRejects, "health.replay_rejected");
      } else {
        st.decodeOk += 1;
        st.bytesReceived += static_cast<std::int64_t>(res.payloadBytes);
        if (res.payloadMismatch)
          tally(st.payloadMismatch, "service.payload_mismatch");
      }
      if (res.report.validationRejected) st.validationRejects += 1;
      if (res.report.gateRejected) st.gateRejects += 1;
      if (res.consistencyOutlier)
        tally(st.consistencyOutliers, "health.consistency_outliers");
      if (res.track.poseValid)
        tally(st.posesReported, "service.poses_reported");
      if (res.received && !res.pregateSkipped && !res.shed) {
        // Granted a decode+recover slot (whether or not the decode then
        // succeeded — the slot was spent either way).
        tally(st.recoverSlots, "service.recover_slots");
      }
    }
    int penalty = 0;
    if (!res.quarantined) {
      // A pure link drop is weather, not malice: no penalty. Everything
      // a *sender* controls feeds the FSM.
      if (res.received && res.decodeError != wire::DecodeError::None)
        penalty += kPenaltyDecodeReject;
      if (res.payloadMismatch) penalty += kPenaltyDecodeReject;
      if (res.replayRejected) penalty += kPenaltyReplay;
      if (res.report.validationRejected) penalty += kPenaltyValidation;
      if (res.report.gateRejected) penalty += kPenaltyGateReject;
      if (res.consistencyOutlier) penalty += kPenaltyConsistency;
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
    tally(session->stats.silentFrames, "session.silent_frames");
    if (cfg_.lifecycle.maxSilentFrames > 0 &&
        session->silentRun > cfg_.lifecycle.maxSilentFrames)
      reap.push_back(peerId);
  }
  for (std::uint64_t peerId : reap) {
    tally(sessions_.at(peerId)->stats.reaps, "session.reaped");
    retireSession(peerId);
  }

  tally(frames_, "service.frames");
  BBA_COUNTER_ADD("service.inputs", n);
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
  const ImageFeatures& feats = frameEgoFeatures(ego);
  if (feats.descriptors.empty()) return {};
  return mapStore_->insert(egoGlobalPose, feats.descriptors, ego);
}

const ImageFeatures& CooperationService::frameEgoFeatures(
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
