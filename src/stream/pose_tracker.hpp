#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <string>

#include "core/bb_align.hpp"
#include "dataset/sequence.hpp"

namespace bba {

namespace map {
class KeyframeStore;  // map/keyframe_store.hpp
}  // namespace map

/// How one streamed frame's reported pose was obtained — the rungs of the
/// degradation ladder, best first.
enum class TrackerOutcome {
  Recovered,         ///< fresh BB-Align measurement accepted (rung 0)
  RecoveredRelaxed,  ///< relaxed-parameter retry accepted (rung 1)
  Extrapolated,      ///< constant-velocity fallback (rung 2)
  TrackLost,         ///< miss budget exhausted this frame; track cleared (rung 3)
  Bootstrapping,     ///< no track yet and no measurement — no pose to report
  /// Scheduler skip (skipFrame): the caller chose not to spend a recover()
  /// on this session — spatial pre-gate or load shedding, see
  /// service/admission.hpp. The pose is extrapolated like rung 2 but the
  /// skip never counts against the miss budget: an unexamined frame is not
  /// evidence of a failing track. Appended last so existing outcome
  /// indices stay pinned.
  Held,
  /// Map relocalization: the track is gone (TrackLost / Bootstrapping) and
  /// no cooperative peer rescued it, but a keyframe-map query produced a
  /// validated lock against a stored place (see map/keyframe_store.hpp).
  /// Unlike every other rung, the reported pose is the EGO GLOBAL pose in
  /// the map frame — there is no peer to be relative to. Appended after
  /// Held to keep existing outcome indices pinned.
  Relocalized,
};

inline constexpr int kTrackerOutcomeCount = 7;

[[nodiscard]] const char* toString(TrackerOutcome o);

/// Gt-free validation gate: a "successful" recovery whose PoseValidation
/// score (see obs/report.hpp) falls below this is demoted to a miss — a
/// geometrically inconsistent lock never replaces the trusted pose.
/// Deterministic geometry, so the gate preserves the
/// byte-identical-at-any-thread-count contract. Calibrated against the
/// pinned scenarios: honest recoveries score >= ~0.72, coherent box lies
/// <= ~0.61 (see tests/stream_test.cpp) — 0.5 rejects most attacks with
/// headroom for degraded-but-honest payloads; a sensitivity-critical
/// deployment would raise it toward 0.65.
inline constexpr double kMinValidationScore = 0.5;

/// Confidence of a rung-1 (relaxed) acceptance; rung 0 reports 1.0.
inline constexpr double kRelaxedConfidence = 0.8;
/// Per-coasted-frame multiplicative confidence decay of rung 2.
inline constexpr double kConfidenceDecay = 0.7;
/// Confidence floor of any reported pose.
inline constexpr double kMinConfidence = 0.05;

/// Tracker configuration. The defaults assume a 10 Hz frame period and the
/// paper-default aligner. The gates, confidences and relocalization
/// envelope are constants sized to the physics (two cars at urban speeds
/// move well under a meter per frame relative to each other, while a wrong
/// BB-Align lock is typically off by several meters): see the k* values
/// above and in pose_tracker.cpp.
struct PoseTrackerConfig {
  /// The primary (rung-0) aligner configuration. The rung-1 relaxed
  /// aligner is relaxedRecoveryConfig(aligner).
  BBAlignConfig aligner;

  /// Consecutive misses (gate rejections, failed recoveries or dropped
  /// frames) tolerated before the track is declared lost and the tracker
  /// re-bootstraps from scratch.
  int maxConsecutiveMisses = 4;

  /// Map relocalization (the rung below track-lost) engages only when a
  /// KeyframeStore is attached via attachMapStore() AND an ego pose prior
  /// has been fed via setEgoPosePrior() — a tracker without a map runs
  /// byte-identical to before this rung existed. Max keyframe candidates
  /// fed to recover() per relocalization attempt (each costs a full
  /// recover() call; the best-scoring candidate goes first, so attempt 2+
  /// only runs when attempt 1 fails or is rejected).
  int mapRelocalizationAttempts = 2;
};

/// Relaxed-parameter variant of an aligner config for the rung-1 retry:
/// wider matching (one more candidate per keypoint), looser RANSAC inlier
/// thresholds and lower success bars. On its own this config would accept
/// poses the primary rejects for good reason — the tracker only ever uses
/// it *behind the innovation gate*, where the motion prediction supplies
/// the trust the lowered thresholds gave up.
///
/// It changes only matching, RANSAC, box-pairing and threshold fields,
/// never a feature-side one (`bev`, `descriptor`, `keypointSurface`).
/// That is what lets the relaxed rung reuse the primary's
/// ImageFeatures of both images byte-identically; a change here that
/// touches a feature-side field breaks
/// ImageFeatures.RelaxedRungReusesPrimaryFeaturesByteIdentically.
[[nodiscard]] BBAlignConfig relaxedRecoveryConfig(const BBAlignConfig& base);

/// Constant-velocity extrapolation in (x, y, theta): the per-frame finite
/// difference between (poseA, frameA) and (poseB, frameB) carried forward
/// to `targetFrame`. With frameA == frameB the pose is held.
[[nodiscard]] Pose2 extrapolatePose(const Pose2& poseA, int frameA,
                                    const Pose2& poseB, int frameB,
                                    int targetFrame);

/// Per-frame account of one tracker step: the ladder rung taken, the
/// prediction and innovation that drove the decision, and the full
/// PoseRecoveryReport(s) of the underlying recover() call(s) — this is the
/// streaming extension of the per-call report.
struct TrackerReport {
  int frameIndex = 0;
  TrackerOutcome outcome = TrackerOutcome::Bootstrapping;
  double confidence = 0.0;
  bool remoteReceived = true;    ///< false for a coasted (dropped) frame
  /// This frame was a skipFrame() step (outcome Held or Bootstrapping):
  /// the caller's scheduler withheld the payload, nothing was measured.
  bool schedulerSkipped = false;

  bool predictionAvailable = false;
  Pose2 prediction;
  /// Innovation of the accepted-or-rejected *primary* measurement against
  /// the prediction (0 when either side is missing).
  double innovationTranslation = 0.0;
  double innovationRotationDeg = 0.0;
  /// The primary measurement succeeded but fell outside the gate.
  bool gateRejected = false;
  /// A successful measurement (primary or relaxed) passed the innovation
  /// gate but failed the gt-free validation gate and was demoted.
  bool validationRejected = false;

  int consecutiveMisses = 0;
  bool trackLostThisFrame = false;
  bool rebootstrapped = false;  ///< this frame re-locked after a lost track

  /// Rung-0 recover() account (valid when remoteReceived).
  PoseRecoveryReport recovery;
  /// Rung-1 relaxed recover() account (valid when relaxedAttempted).
  bool relaxedAttempted = false;
  PoseRecoveryReport relaxedRecovery;
  /// Map-relocalization account (map-attached trackers only). Attempted
  /// means the keyframe store was queried; candidates is the match count;
  /// keyframe is the accepted keyframe's id (0 when rejected);
  /// `relocalization` is the last relocalization recover()'s report.
  bool relocalizationAttempted = false;
  bool relocalizationAccepted = false;
  int relocalizationCandidates = 0;
  std::uint64_t relocalizationKeyframe = 0;
  PoseRecoveryReport relocalization;

  /// One JSON object with every field above (stable key names); embeds
  /// the recover() reports under "recovery" / "relaxedRecovery". With
  /// `includeTimings == false` the embedded reports omit their wall-clock
  /// "ms" objects, making the export byte-comparable across runs.
  [[nodiscard]] std::string toJson(bool includeTimings = true) const;
};

/// The pose a tracker reports for one frame.
struct TrackerResult {
  /// False only while bootstrapping (no measurement ever accepted and the
  /// current frame did not produce one): there is no pose to report.
  bool poseValid = false;
  Pose2 pose;                ///< delivered-payload other -> ego
  Pose3 pose3D;              ///< Eq. 1 lift of `pose`
  double confidence = 0.0;   ///< 1.0 fresh ... kMinConfidence stale
  TrackerOutcome outcome = TrackerOutcome::Bootstrapping;
};

/// Stateful streaming wrapper around BBAlign for a sequence of frame
/// pairs: keeps a short history of accepted poses, predicts the next
/// relative pose by constant-velocity extrapolation, gates each fresh
/// measurement against the prediction, and on failure walks the
/// degradation ladder — (1) relaxed-parameter retry seeded from the
/// prediction, (2) extrapolated pose with decayed confidence,
/// (3) track-lost + re-bootstrap after too many consecutive misses.
///
/// Every decision is serial and every underlying recover() call is
/// thread-count invariant, so tracker outputs are byte-identical at any
/// BBA_THREADS (asserted by tests/stream_test.cpp).
class PoseTracker {
 public:
  explicit PoseTracker(PoseTrackerConfig config = {});

  [[nodiscard]] const PoseTrackerConfig& config() const { return cfg_; }

  /// Process one received frame payload. `rng` drives the RANSAC sampling
  /// of the underlying recover() call(s).
  ///
  /// `egoFeatures` (optional) supplies the ego image's features
  /// precomputed elsewhere (e.g. the per-frame value CooperationService
  /// shares across its peer sessions); they must come from an aligner
  /// configured like the primary one (computeEgoFeatures()). When null, the
  /// tracker computes them once itself. Either way every rung of the step
  /// reads the same ego features, and the peer image's features are
  /// computed by the first rung and reused by the later ones (see
  /// relaxedRecoveryConfig()).
  TrackerResult update(const CarPerceptionData& other,
                       const CarPerceptionData& ego, Rng& rng,
                       TrackerReport* report = nullptr,
                       const ImageFeatures* egoFeatures = nullptr);

  /// Process one frame whose remote payload never arrived (link drop):
  /// advances time and walks straight to rung 2 of the ladder.
  TrackerResult coast(TrackerReport* report = nullptr);

  /// coast(), but with the ego car's own perception available: when the
  /// miss lands on TrackLost/Bootstrapping and a map is attached, the
  /// tracker queries the keyframe store around the ego pose prior and
  /// tries to relocalize (outcome Relocalized, pose = ego global pose in
  /// the map frame). This is the no-peer-in-range path: the vehicle still
  /// senses, it just has nobody to match against. `rng` drives the
  /// relocalization recover() calls.
  TrackerResult coastWithEgo(const CarPerceptionData& ego, Rng& rng,
                             TrackerReport* report = nullptr);

  /// Process one frame the CALLER chose not to examine (spatial pre-gate
  /// skip or load shedding — see service/admission.hpp): advance time and
  /// hold the track by extrapolation, WITHOUT charging the miss budget.
  /// Unlike coast(), an arbitrarily long run of skips never declares the
  /// track lost — the payloads may have been perfectly good; nobody
  /// looked. Skips still decay confidence and grow the innovation gate
  /// (like misses) so a long-held track can re-capture a drifted target
  /// once the scheduler readmits it. Outcome: Held with a track,
  /// Bootstrapping without one.
  TrackerResult skipFrame(TrackerReport* report = nullptr);

  /// Convenience driver for dataset streams: builds the per-car payloads
  /// with the primary aligner and dispatches to update() or coast().
  TrackerResult processFrame(const StreamFrame& frame, Rng& rng,
                             TrackerReport* report = nullptr);

  /// Inject an externally trusted pose (e.g. a one-off GPS fix or a V2X
  /// handshake) as if it were an accepted measurement: initializes or
  /// steadies the track without running recovery.
  void acceptExternalPose(const Pose2& pose);

  /// Attach a keyframe map (nullptr detaches). NOT owned; must outlive
  /// the tracker's use of it, and must only be shared between trackers
  /// that run serially (the store is externally synchronized). The
  /// tracker only reads the map: with a map attached AND an ego pose prior
  /// set, it gains the Relocalized rung below track-lost. Keyframes come
  /// from the map's owner (CooperationService::recordEgoKeyframe, or a
  /// direct KeyframeStore::insert).
  void attachMapStore(map::KeyframeStore* store) { mapStore_ = store; }

  /// Feed the ego vehicle's own global pose estimate (odometry / dead
  /// reckoning in the map frame) — the spatial prior for map queries.
  /// Call once per frame BEFORE update()/coastWithEgo() when a map is
  /// attached; a successful relocalization refreshes it to the recovered
  /// map-frame pose. Deliberately a plain setter: the tracker models no
  /// ego-motion of its own (its history is peer-relative), the platform's
  /// odometry does.
  void setEgoPosePrior(const Pose2& pose) { egoPosePrior_ = pose; }
  [[nodiscard]] const std::optional<Pose2>& egoPosePrior() const {
    return egoPosePrior_;
  }

  /// Constant-velocity prediction for the *next* frame, when a track
  /// exists.
  [[nodiscard]] std::optional<Pose2> predictNext() const;

  /// True once at least one pose has been accepted and the track has not
  /// been lost since.
  [[nodiscard]] bool hasTrack() const { return !history_.empty(); }
  [[nodiscard]] int consecutiveMisses() const { return misses_; }
  /// Consecutive skipFrame() steps since the last accepted measurement.
  [[nodiscard]] int consecutiveSkips() const { return skips_; }
  [[nodiscard]] int framesProcessed() const { return frame_; }

 private:
  struct Accepted {
    int frame = 0;
    Pose2 pose;
  };

  [[nodiscard]] std::optional<Pose2> predictAt(int frame) const;
  /// Every step's prologue: take the next frame index, stamp it on `rep`
  /// and record the prediction for it there (returned too).
  std::optional<Pose2> beginFrame(TrackerReport& rep);
  void accept(int frame, const Pose2& pose);
  TrackerResult miss(const std::optional<Pose2>& prediction,
                     TrackerReport& rep);
  /// True when the Relocalized rung can engage at all this frame.
  [[nodiscard]] bool mapRelocalizationReady() const;
  /// Query the map around the ego pose prior and try to recover against
  /// the best candidates. On a validated lock, fills `out`/`rep` and
  /// refreshes the ego pose prior. Never touches the peer-relative
  /// history.
  bool tryRelocalize(const CarPerceptionData& ego,
                     const ImageFeatures& egoFeatures, Rng& rng,
                     TrackerReport& rep, TrackerResult& out);

  PoseTrackerConfig cfg_;
  BBAlign primary_;
  BBAlign relaxed_;
  std::deque<Accepted> history_;
  int frame_ = 0;    ///< frames processed so far (next frame index)
  int misses_ = 0;   ///< consecutive misses
  int skips_ = 0;    ///< consecutive scheduler skips (never counts as a miss)
  bool lostSinceAccept_ = false;  ///< a track was lost; next lock is a re-bootstrap
  map::KeyframeStore* mapStore_ = nullptr;  ///< not owned
  std::optional<Pose2> egoPosePrior_;  ///< ego global pose, map frame
};

}  // namespace bba
