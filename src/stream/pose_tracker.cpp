#include "stream/pose_tracker.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/assert.hpp"
#include "map/keyframe_store.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace bba {

const char* toString(TrackerOutcome o) {
  switch (o) {
    case TrackerOutcome::Recovered:
      return "recovered";
    case TrackerOutcome::RecoveredRelaxed:
      return "recovered_relaxed";
    case TrackerOutcome::Extrapolated:
      return "extrapolated";
    case TrackerOutcome::TrackLost:
      return "track_lost";
    case TrackerOutcome::Bootstrapping:
      return "bootstrapping";
    case TrackerOutcome::Held:
      return "held";
    case TrackerOutcome::Relocalized:
      return "relocalized";
  }
  return "?";
}

BBAlignConfig relaxedRecoveryConfig(const BBAlignConfig& base) {
  BBAlignConfig c = base;
  // Wider matching: the true counterpart of a noisy or truncated payload
  // ranks lower among the candidates.
  c.matching.topK = base.matching.topK + 1;
  // Looser geometric consensus on both stages.
  c.ransacBv.inlierThreshold = base.ransacBv.inlierThreshold * 1.5;
  c.ransacBox.inlierThreshold = base.ransacBox.inlierThreshold * 1.5;
  c.ransacBox.minInliers = std::max(5, base.ransacBox.minInliers - 1);
  c.boxPairMaxCenterDistance = base.boxPairMaxCenterDistance * 1.5;
  // Lower success bars: behind the innovation gate, the motion prediction
  // supplies the trust these thresholds gave up.
  c.minOverlapScore = base.minOverlapScore * 0.75;
  c.successInliersBv = std::max(6, (base.successInliersBv * 2) / 3);
  c.successInliersBox = std::max(4, (base.successInliersBox * 2) / 3);
  return c;
}

Pose2 extrapolatePose(const Pose2& poseA, int frameA, const Pose2& poseB,
                      int frameB, int targetFrame) {
  if (frameA == frameB) return poseB;
  const double span = static_cast<double>(frameB - frameA);
  const Vec2 vt = (poseB.t - poseA.t) / span;
  const double vtheta = wrapAngle(poseB.theta - poseA.theta) / span;
  const double ahead = static_cast<double>(targetFrame - frameB);
  return Pose2{poseB.t + vt * ahead,
               wrapAngle(poseB.theta + vtheta * ahead)};
}

std::string TrackerReport::toJson(bool includeTimings) const {
  std::string out;
  out.reserve(2048);
  char buf[768];
  std::snprintf(
      buf, sizeof buf,
      "{\"frame\":%d,\"outcome\":\"%s\",\"confidence\":%.6f,"
      "\"remote_received\":%s,\"scheduler_skipped\":%s,"
      "\"prediction_available\":%s,"
      "\"prediction\":{\"x\":%.6f,\"y\":%.6f,\"theta\":%.6f},"
      "\"innovation\":{\"translation\":%.6f,\"rotation_deg\":%.6f},"
      "\"gate_rejected\":%s,\"validation_rejected\":%s,"
      "\"consecutive_misses\":%d,"
      "\"track_lost\":%s,\"rebootstrapped\":%s,"
      "\"relaxed_attempted\":%s,",
      frameIndex, toString(outcome), confidence,
      remoteReceived ? "true" : "false",
      schedulerSkipped ? "true" : "false",
      predictionAvailable ? "true" : "false", prediction.t.x, prediction.t.y,
      prediction.theta, innovationTranslation, innovationRotationDeg,
      gateRejected ? "true" : "false", validationRejected ? "true" : "false",
      consecutiveMisses,
      trackLostThisFrame ? "true" : "false", rebootstrapped ? "true" : "false",
      relaxedAttempted ? "true" : "false");
  out += buf;
  std::snprintf(
      buf, sizeof buf,
      "\"relocalization_attempted\":%s,\"relocalization_accepted\":%s,"
      "\"relocalization_candidates\":%d,\"relocalization_keyframe\":%llu,",
      relocalizationAttempted ? "true" : "false",
      relocalizationAccepted ? "true" : "false", relocalizationCandidates,
      static_cast<unsigned long long>(relocalizationKeyframe));
  out += buf;
  out += "\"recovery\":";
  out += remoteReceived ? recovery.toJson(includeTimings)
                        : std::string("null");
  out += ",\"relaxedRecovery\":";
  out += relaxedAttempted ? relaxedRecovery.toJson(includeTimings)
                          : std::string("null");
  out += ",\"relocalization\":";
  out += relocalizationAttempted ? relocalization.toJson(includeTimings)
                                 : std::string("null");
  out += "}";
  return out;
}

namespace {

/// Every tracker step's exit: hand its report to the caller and book it in
/// the registry. Counter names are static so the stream taxonomy stays
/// greppable (and gated by the CI docs-health leg alongside the
/// RecoveryFailure values).
void finishStep(const TrackerReport& rep, TrackerReport* report) {
  if (report) *report = rep;
#if defined(BBA_OBSERVABILITY_ENABLED)
  obs::MetricsRegistry* reg = obs::metricsRegistry();
  if (!reg) return;
  reg->counter("stream.frames").increment();
  if (!rep.remoteReceived) reg->counter("stream.dropped_frames").increment();
  switch (rep.outcome) {
    case TrackerOutcome::Recovered:
      reg->counter("stream.recovered").increment();
      break;
    case TrackerOutcome::RecoveredRelaxed:
      reg->counter("stream.recovered_relaxed").increment();
      break;
    case TrackerOutcome::Extrapolated:
      reg->counter("stream.extrapolated").increment();
      break;
    case TrackerOutcome::TrackLost:
      reg->counter("stream.track_lost").increment();
      break;
    case TrackerOutcome::Bootstrapping:
      reg->counter("stream.bootstrapping").increment();
      break;
    case TrackerOutcome::Held:
      reg->counter("stream.held").increment();
      break;
    case TrackerOutcome::Relocalized:
      reg->counter("stream.relocalized").increment();
      break;
  }
  if (rep.schedulerSkipped) reg->counter("stream.skipped").increment();
  if (rep.gateRejected) reg->counter("stream.gate_rejected").increment();
  if (rep.validationRejected)
    reg->counter("validate.gate_rejected").increment();
  if (rep.relaxedAttempted) reg->counter("stream.relaxed_retries").increment();
  if (rep.rebootstrapped) reg->counter("stream.rebootstraps").increment();
  if (rep.relocalizationAttempted)
    reg->counter("map.reloc_attempted").increment();
  if (rep.relocalizationAccepted)
    reg->counter("map.reloc_accepted").increment();
  if (rep.relocalizationAttempted && !rep.relocalizationAccepted)
    reg->counter("map.reloc_rejected").increment();
  reg->histogram("stream.confidence").observe(rep.confidence);
  reg->histogram("stream.consecutive_misses").observe(rep.consecutiveMisses);
  if (rep.predictionAvailable && rep.remoteReceived && rep.recovery.success) {
    reg->histogram("stream.innovation_translation")
        .observe(rep.innovationTranslation);
    reg->histogram("stream.innovation_rotation_deg")
        .observe(rep.innovationRotationDeg);
  }
#endif
}

}  // namespace

PoseTracker::PoseTracker(PoseTrackerConfig config)
    : cfg_(std::move(config)),
      primary_(cfg_.aligner),
      relaxed_(relaxedRecoveryConfig(cfg_.aligner)) {
  BBA_ASSERT(cfg_.historySize >= 1);
  BBA_ASSERT(cfg_.maxConsecutiveMisses >= 1);
  BBA_ASSERT(cfg_.confidenceDecay > 0.0 && cfg_.confidenceDecay <= 1.0);
  BBA_ASSERT(cfg_.mapRelocalizationAttempts >= 1);
}

std::optional<Pose2> PoseTracker::predictAt(int frame) const {
  if (history_.empty()) return std::nullopt;
  if (history_.size() == 1) return history_.back().pose;
  const Accepted& a = history_.front();
  const Accepted& b = history_.back();
  return extrapolatePose(a.pose, a.frame, b.pose, b.frame, frame);
}

std::optional<Pose2> PoseTracker::predictNext() const {
  return predictAt(frame_);
}

std::optional<Pose2> PoseTracker::beginFrame(TrackerReport& rep) {
  rep.frameIndex = frame_++;
  const std::optional<Pose2> prediction = predictAt(rep.frameIndex);
  if (prediction) {
    rep.predictionAvailable = true;
    rep.prediction = *prediction;
  }
  return prediction;
}

void PoseTracker::accept(int frame, const Pose2& pose) {
  history_.push_back(Accepted{frame, pose});
  while (history_.size() > static_cast<std::size_t>(cfg_.historySize)) {
    history_.pop_front();
  }
  misses_ = 0;
  skips_ = 0;
}

void PoseTracker::acceptExternalPose(const Pose2& pose) {
  accept(frame_ == 0 ? 0 : frame_ - 1, pose);
  lostSinceAccept_ = false;
}

/// Rung 2/3: no acceptable measurement this frame. Extrapolate while the
/// miss budget lasts; declare the track lost (and clear it) once exhausted.
TrackerResult PoseTracker::miss(const std::optional<Pose2>& prediction,
                                TrackerReport& rep) {
  TrackerResult out;
  ++misses_;
  rep.consecutiveMisses = misses_;
  if (!prediction) {
    // Never locked (or lost and not yet re-locked): nothing to extrapolate.
    out.outcome = TrackerOutcome::Bootstrapping;
    out.poseValid = false;
    out.confidence = 0.0;
    rep.outcome = out.outcome;
    rep.confidence = out.confidence;
    return out;
  }
  out.poseValid = true;
  out.pose = *prediction;
  out.pose3D = Pose3::fromPose2(out.pose);
  out.confidence =
      std::max(cfg_.minConfidence, std::pow(cfg_.confidenceDecay, misses_));
  if (misses_ >= cfg_.maxConsecutiveMisses) {
    // Rung 3: the extrapolation has decayed past trust. Report it one last
    // time at floor confidence and re-bootstrap from scratch.
    out.outcome = TrackerOutcome::TrackLost;
    out.confidence = cfg_.minConfidence;
    rep.trackLostThisFrame = true;
    history_.clear();
    misses_ = 0;
    skips_ = 0;
    lostSinceAccept_ = true;
  } else {
    out.outcome = TrackerOutcome::Extrapolated;
  }
  rep.outcome = out.outcome;
  rep.confidence = out.confidence;
  return out;
}

bool PoseTracker::mapRelocalizationReady() const {
  return mapStore_ != nullptr && egoPosePrior_.has_value();
}

void PoseTracker::offerKeyframe(const CarPerceptionData& ego,
                                const ImageFeatures& egoFeatures) {
  if (mapStore_ == nullptr || !egoPosePrior_ ||
      egoFeatures.descriptors.empty()) {
    return;
  }
  // The store dedups by spatial gap, so offering every accepted frame is
  // cheap in steady state; the payload copy only sticks for frames that
  // actually become keyframes.
  (void)mapStore_->insert(*egoPosePrior_, egoFeatures.descriptors, ego);
}

/// Rung 4: query the attached keyframe map around the ego pose prior and
/// run full recover() against the best-scoring candidates. Acceptance is
/// gated by the gt-free validation score — with no motion prediction to
/// lean on, an unvalidated lock is never reported (the tunnel
/// no-false-lock pin holds with a map attached).
bool PoseTracker::tryRelocalize(const CarPerceptionData& ego,
                                const ImageFeatures& egoFeatures, Rng& rng,
                                TrackerReport& rep, TrackerResult& out) {
  BBA_SPAN("tracker-relocalize");
  rep.relocalizationAttempted = true;
  const Pose2 prior = *egoPosePrior_;
  const std::vector<map::QueryMatch> matches =
      mapStore_->query(egoFeatures.descriptors, prior.t);
  rep.relocalizationCandidates = static_cast<int>(matches.size());
  int attempts = 0;
  for (const map::QueryMatch& m : matches) {
    if (attempts >= cfg_.mapRelocalizationAttempts) break;
    const map::Keyframe* kf = mapStore_->keyframe(m.id);
    if (kf == nullptr || kf->payload.bvImage.empty()) continue;  // index-only
    ++attempts;
    // The keyframe plays the "other" car. Expected keyframe -> ego
    // transform from the two global poses: T = G_ego^-1 * G_kf.
    const Pose2 expected = prior.inverse().compose(kf->globalPose);
    const PoseRecoveryResult r = primary_.recover(
        kf->payload, ego, rng, &rep.relocalization, &expected, &egoFeatures);
    if (!r.success || !r.validation.computed ||
        r.validation.score < cfg_.minValidationScore) {
      continue;
    }
    // Lift the relative lock back to the map frame: G_ego = G_kf * T^-1.
    const Pose2 egoGlobal = kf->globalPose.compose(r.estimate.inverse());
    // Odometry-consistency gate: a lock that strays outside the drift
    // envelope of the dead-reckoned prior is a slipped match (self-similar
    // corridors validate shifted poses), not a recovery.
    if ((egoGlobal.t - prior.t).norm() >
        cfg_.relocalizationMaxPriorDeviationM) {
      continue;
    }
    egoPosePrior_ = egoGlobal;
    rep.relocalizationAccepted = true;
    rep.relocalizationKeyframe = kf->id;
    out.poseValid = true;
    out.pose = egoGlobal;
    out.pose3D = Pose3::fromPose2(egoGlobal);
    out.confidence = cfg_.relocalizedConfidence;
    out.outcome = TrackerOutcome::Relocalized;
    rep.outcome = out.outcome;
    rep.confidence = out.confidence;
    return true;
  }
  return false;
}

TrackerResult PoseTracker::coast(TrackerReport* report) {
  BBA_SPAN("tracker-coast");
  TrackerReport rep;
  rep.remoteReceived = false;
  TrackerResult out = miss(beginFrame(rep), rep);
  finishStep(rep, report);
  return out;
}

TrackerResult PoseTracker::coastWithEgo(const CarPerceptionData& ego,
                                        Rng& rng, TrackerReport* report) {
  BBA_SPAN("tracker-coast-ego");
  TrackerReport rep;
  rep.remoteReceived = false;
  TrackerResult out = miss(beginFrame(rep), rep);
  // Rung 4: only once the peer ladder has truly run out — an Extrapolated
  // frame still trusts its track more than a map lock.
  if ((out.outcome == TrackerOutcome::TrackLost ||
       out.outcome == TrackerOutcome::Bootstrapping) &&
      mapRelocalizationReady()) {
    tryRelocalize(ego, *primary_.computeEgoFeatures(ego), rng, rep, out);
  }
  finishStep(rep, report);
  return out;
}

TrackerResult PoseTracker::skipFrame(TrackerReport* report) {
  BBA_SPAN("tracker-skip");
  TrackerReport rep;
  rep.remoteReceived = false;
  rep.schedulerSkipped = true;
  const std::optional<Pose2> prediction = beginFrame(rep);
  ++skips_;
  TrackerResult out;
  if (prediction) {
    out.poseValid = true;
    out.pose = *prediction;
    out.pose3D = Pose3::fromPose2(out.pose);
    // Staleness decays confidence whether a miss or a skip caused it, but
    // only misses charge the track-loss budget: the skipped payloads may
    // have been perfectly good — nobody looked.
    out.confidence =
        std::max(cfg_.minConfidence,
                 std::pow(cfg_.confidenceDecay, misses_ + skips_));
    out.outcome = TrackerOutcome::Held;
  } else {
    out.outcome = TrackerOutcome::Bootstrapping;
  }
  rep.outcome = out.outcome;
  rep.confidence = out.confidence;
  rep.consecutiveMisses = misses_;
  finishStep(rep, report);
  return out;
}

TrackerResult PoseTracker::update(const CarPerceptionData& other,
                                  const CarPerceptionData& ego, Rng& rng,
                                  TrackerReport* report,
                                  const ImageFeatures* egoFeatures) {
  BBA_SPAN("tracker-update");
  TrackerReport rep;
  const std::optional<Pose2> prediction = beginFrame(rep);

  // The innovation gate, scaled by how long the track has been coasting.
  // Scheduler skips (skipFrame) count toward the growth like misses do —
  // a long-held track must be able to re-capture a drifted target once
  // readmitted — they just never charge the track-loss budget.
  const double gateScale = 1.0 + cfg_.gateGrowthPerMiss * (misses_ + skips_);
  auto withinGate = [&](const Pose2& measurement) {
    if (!prediction) return true;  // bootstrap: nothing to gate against
    const PoseError innov = poseError(measurement, *prediction);
    return innov.translation <= cfg_.maxTranslationInnovation * gateScale &&
           innov.rotationDeg <= cfg_.maxRotationInnovationDeg * gateScale;
  };

  // The gt-free validation gate: a recovery may report success and still
  // be geometrically inconsistent with the payload it came from (spoofed
  // boxes, impostor BV consensus). Such a lock is demoted to a miss.
  auto validated = [&](const PoseRecoveryResult& r) {
    return !r.validation.computed ||
           r.validation.score >= cfg_.minValidationScore;
  };

  const Pose2* posePrior = prediction ? &*prediction : nullptr;

  // Both images' features are computed once per step and fed to every
  // rung instead of each recover() recomputing them: the ego side here (or
  // supplied by the caller, e.g. CooperationService's per-frame features
  // shared across peers), the peer side by the first recover() into a memo
  // the later rungs read. The relaxed aligner runs the identical feature
  // pipeline (relaxedRecoveryConfig), so it reads both.
  std::shared_ptr<const ImageFeatures> ownedFeatures;
  if (egoFeatures == nullptr) {
    ownedFeatures = primary_.computeEgoFeatures(ego);
    egoFeatures = ownedFeatures.get();
  }
  ImageFeatures otherFeatures;

  // Rungs 0 and 1 lock through here: a measurement that passed the gate
  // and validation becomes the track.
  auto lock = [&](const PoseRecoveryResult& r, TrackerOutcome outcome,
                  double confidence) {
    rep.rebootstrapped = lostSinceAccept_;
    accept(rep.frameIndex, r.estimate);
    lostSinceAccept_ = false;
    offerKeyframe(ego, *egoFeatures);
    TrackerResult out;
    out.poseValid = true;
    out.pose = r.estimate;
    out.pose3D = r.estimate3D;
    out.confidence = confidence;
    out.outcome = outcome;
    rep.outcome = outcome;
    rep.confidence = confidence;
    rep.consecutiveMisses = 0;
    finishStep(rep, report);
    return out;
  };

  // Rung 0: the primary measurement.
  const PoseRecoveryResult primary =
      primary_.recover(other, ego, rng, &rep.recovery, posePrior, egoFeatures,
                       &otherFeatures);
  if (prediction && primary.success) {
    const PoseError innov = poseError(primary.estimate, *prediction);
    rep.innovationTranslation = innov.translation;
    rep.innovationRotationDeg = innov.rotationDeg;
  }
  if (primary.success && withinGate(primary.estimate) &&
      validated(primary)) {
    return lock(primary, TrackerOutcome::Recovered, 1.0);
  }
  // Succeeded but rejected: attribute the demotion to the gate that fired.
  rep.gateRejected = primary.success && !withinGate(primary.estimate);
  rep.validationRejected =
      primary.success && withinGate(primary.estimate) && !validated(primary);

  // Rung 1: relaxed retry, seeded from the prediction. Only meaningful
  // when a prediction exists — without one the gate cannot protect the
  // lowered thresholds.
  if (prediction) {
    BBA_SPAN("tracker-relaxed-retry");
    rep.relaxedAttempted = true;
    const PoseRecoveryResult retried =
        relaxed_.recover(other, ego, rng, &rep.relaxedRecovery, posePrior,
                         egoFeatures, &otherFeatures);
    if (retried.success && withinGate(retried.estimate) &&
        !validated(retried)) {
      rep.validationRejected = true;
    }
    if (retried.success && withinGate(retried.estimate) &&
        validated(retried)) {
      return lock(retried, TrackerOutcome::RecoveredRelaxed,
                  cfg_.relaxedConfidence);
    }
  }

  // Rungs 2/3.
  TrackerResult out = miss(prediction, rep);
  // Rung 4: map relocalization, only when the peer ladder bottomed out
  // (a coasting Extrapolated track still outranks a map lock).
  if ((out.outcome == TrackerOutcome::TrackLost ||
       out.outcome == TrackerOutcome::Bootstrapping) &&
      mapRelocalizationReady()) {
    tryRelocalize(ego, *egoFeatures, rng, rep, out);
  }
  finishStep(rep, report);
  return out;
}

TrackerResult PoseTracker::processFrame(const StreamFrame& frame, Rng& rng,
                                        TrackerReport* report) {
  if (!frame.remoteReceived) return coast(report);
  const CarPerceptionData ego =
      primary_.makeCarData(frame.egoCloud, frame.egoDets);
  const CarPerceptionData other =
      primary_.makeCarData(frame.otherCloud, frame.otherDets);
  return update(other, ego, rng, report);
}

}  // namespace bba
