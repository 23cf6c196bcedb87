#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/bb_align.hpp"
#include "geom/pose2.hpp"
#include "map/keyframe_store.hpp"
#include "service/admission.hpp"
#include "service/peer_health.hpp"
#include "service/session_lifecycle.hpp"
#include "stream/pose_tracker.hpp"
#include "wire/message.hpp"

namespace bba::service {

/// Configuration of a CooperationService instance.
struct ServiceConfig {
  /// Encoder profile used by sendFrame() (the decoder side is
  /// self-describing and needs no profile).
  wire::WireConfig wire;
  /// Per-session tracker configuration (every session gets its own copy).
  PoseTrackerConfig tracker;
  /// Root seed of the service. Each session derives a decorrelated RANSAC
  /// stream from (seed, peerId), so adding or removing one peer never
  /// perturbs another peer's results.
  std::uint64_t seed = 1;
  /// Hard cap on concurrent sessions. Never asserted: when the table is
  /// full, a newcomer either displaces the most evictable idle session
  /// (see LifecycleConfig) or is rejected for the frame with a typed
  /// SessionAdmission::RejectedFull — fleet churn is traffic, not a bug.
  int maxSessions = 64;
  /// Session lifecycle: deterministic eviction under maxSessions pressure,
  /// the silent-peer reaper, and reconnect warm starts (all clocks are
  /// logical frame counts — see service/session_lifecycle.hpp).
  LifecycleConfig lifecycle;
  /// When a message from a still-bootstrapping session carries a pose
  /// prior, inject it via PoseTracker::acceptExternalPose before the
  /// update — the peer's own estimate (GPS, a previous lock) warm-starts
  /// the track.
  bool usePosePriors = true;

  /// Fleet-scale admission (see service/admission.hpp). Stage 1, the
  /// spatial pre-gate, always runs: a message whose gate pose puts the
  /// peer's BV footprint out of pairing range is not even decoded — the
  /// session is held on a cheap "tracked-but-not-aligned" rung
  /// (TrackerOutcome::Held) at zero recover() cost. Stage 2, the per-frame
  /// work budget: at most effectiveRecoverBudget() admitted sessions get a
  /// decode+recover slot per frame; the rest are shed onto the same Held
  /// rung and move to the front of the line next frame (staleness-first,
  /// ties by session id — a deterministic, starvation-free round-robin).
  /// Unlimited by default.
  BudgetConfig budget;
};

/// One peer's input for one service frame.
struct PeerFrameInput {
  std::uint64_t peerId = 0;
  /// Encoded wire frame as received from the link; nullptr models a link
  /// drop (the session coasts).
  const std::vector<std::uint8_t>* payload = nullptr;
};

/// What one session produced for one service frame.
struct SessionFrameResult {
  std::uint64_t peerId = 0;
  /// How this input was admitted into the session table (see
  /// service/session_lifecycle.hpp). RejectedFull and RejectedDuplicate
  /// inputs get no session and no tracker step: every other field of this
  /// result keeps its default.
  SessionAdmission admission = SessionAdmission::Existing;
  /// This admission restored an archived (evicted or reaped) session:
  /// stats and trust state carried over, tracker optionally warm-started.
  bool readmission = false;
  /// Valid when admission == AdmittedEvicting: the peer whose session was
  /// retired to make room.
  std::uint64_t evictedPeerId = 0;
  /// A payload arrived (it may still have failed to decode).
  bool received = false;
  wire::DecodeError decodeError = wire::DecodeError::None;
  /// Encoded size of the received payload (0 on link drop).
  std::size_t payloadBytes = 0;
  /// The decoded message carried no BV image or one whose dimensions do
  /// not match this service's aligner; the frame was coasted.
  bool payloadMismatch = false;
  /// The payload decoded and passed the replay and size checks, but the
  /// frame's ego image is empty or mis-sized: nothing was aligned, and the
  /// session held its track (skipFrame(): no miss, no health penalty).
  bool egoUnusable = false;
  /// The session was quarantined this frame: nothing was decoded or
  /// tracked (track/report hold their defaults).
  bool quarantined = false;
  /// A cleanly decoded message violated frame-index/capture-time
  /// monotonicity and was rejected by the replay guard; the frame coasted.
  bool replayRejected = false;
  /// The payload arrived but its gate pose failed the spatial pre-gate:
  /// nothing was decoded beyond the wire prefix, the session held its
  /// track (TrackerOutcome::Held) at zero recover() cost.
  bool pregateSkipped = false;
  /// The pre-gate decision was taken on the tracker's own dead-reckoned
  /// prediction (the session is locked), not the sender's claim.
  bool pregatePriorFromTrack = false;
  /// The payload arrived and was admitted, but the frame's recover budget
  /// was exhausted before this session's turn: the session held its track
  /// this frame and is first in line next frame.
  bool shed = false;
  /// The payload's prefix carried a pose-prior claim (peeked at admission,
  /// so set whatever became of the input; the consistency vote reads it).
  bool hasClaim = false;
  Pose2 claim;
  /// Outvoted in the cross-peer consistency check this frame.
  bool consistencyOutlier = false;
  /// FSM state after this frame's health step.
  PeerHealth health = PeerHealth::Healthy;
  TrackerResult track;
  TrackerReport report;
};

/// Cumulative per-session accounting. Every field is an integer or a
/// deterministic double, so two runs of the same scenario produce
/// byte-identical stats at any thread count.
struct SessionStats {
  std::uint64_t peerId = 0;
  int frames = 0;
  int linkDrops = 0;
  int decodeOk = 0;
  int decodeFailed = 0;
  int payloadMismatch = 0;
  std::int64_t bytesReceived = 0;
  /// Rejections by DecodeError (index = enum value; [0] stays 0).
  std::array<int, wire::kDecodeErrorCount> rejectByCause{};
  /// Frames per TrackerOutcome (index = enum value).
  std::array<int, kTrackerOutcomeCount> outcomes{};
  /// Frames that reported a valid pose.
  int posesReported = 0;
  double lastConfidence = 0.0;

  // ---- fleet-scale admission accounting (PR 7) -------------------------
  /// Frames skipped by the spatial pre-gate (claim out of pairing range).
  int pregateSkips = 0;
  /// Frames shed by the per-frame recover budget.
  int shedFrames = 0;
  /// Frames this session was granted a decode+recover slot.
  int recoverSlots = 0;

  // ---- session lifecycle accounting (PR 10) ----------------------------
  /// Service frames this session sat in the table with its peer absent
  /// from the inputs (the silent run the reaper counts against).
  int silentFrames = 0;
  /// Later same-frame occurrences of this peer id rejected as duplicates.
  int duplicateRejects = 0;
  /// Times this peer's session was evicted to make room for a newcomer.
  int evictions = 0;
  /// Times this peer's session was retired by the silent-peer reaper.
  int reaps = 0;
  /// Times an evicted/reaped session of this peer was restored on return.
  int readmissions = 0;
  /// Snapshot flag: this stats row describes a retired (archived) session
  /// whose peer has not returned. Live rows report false.
  bool retired = false;

  // ---- trust / health accounting (PR 5) --------------------------------
  /// FSM state after the session's latest frame.
  PeerHealth health = PeerHealth::Healthy;
  int suspicion = 0;
  /// Times the peer entered quarantine.
  int quarantines = 0;
  /// Frames skipped because the peer was quarantined.
  int quarantinedFrames = 0;
  int replayRejects = 0;
  int validationRejects = 0;
  int gateRejects = 0;
  int consistencyOutliers = 0;
  /// FSM transition tally, [from][to] (indices follow PeerHealth).
  std::array<std::array<int, kPeerHealthCount>, kPeerHealthCount>
      healthTransitions{};
};

/// Deterministic snapshot of a service: per-session stats in session-id
/// order plus their aggregate.
struct ServiceReport {
  int framesProcessed = 0;
  /// Inputs dropped because the table was full and nothing was evictable
  /// (service-level: a rejected peer has no session row to carry it).
  int rejectedFull = 0;
  /// Live sessions first, then retired (archived, not readmitted) ones,
  /// each group in session-id order; retired rows have stats.retired set.
  std::vector<SessionStats> sessions;
  /// Field-wise sum over `sessions` (peerId 0; lastConfidence is the
  /// mean of the sessions' last confidences).
  SessionStats aggregate;

  /// One JSON object with stable key order; byte-identical across runs
  /// and thread counts for the same scenario (tests/service_test.cpp).
  /// Contains no wall-clock fields — per-frame timings live in the
  /// embedded TrackerReport JSON, which takes toJson(includeTimings).
  [[nodiscard]] std::string toJson() const;
};

/// Member-wise bridge between the core payload type and the wire message
/// (kept here so `wire` does not depend on `core`). A non-null `posePrior`
/// is embedded as the sender's claimed relative pose.
[[nodiscard]] wire::CooperativeMessage toMessage(
    const CarPerceptionData& data, std::uint64_t senderId,
    std::uint32_t frameIndex, std::int64_t captureTimeMicros = 0,
    const Pose2* posePrior = nullptr);
[[nodiscard]] CarPerceptionData toCarData(const wire::CooperativeMessage& msg);

/// Multi-peer cooperation endpoint: owns one session (PoseTracker + RNG
/// stream + stats) per peer vehicle and schedules per-frame work across
/// the deterministic parallel runtime.
///
/// Determinism contract: sessions are mutually independent — within a
/// session everything is serial, across sessions frames run in parallel,
/// and results/stats are merged in session-id order — so processFrame()
/// outputs and report() are byte-identical at any BBA_THREADS
/// (asserted by tests/service_test.cpp).
///
/// Robustness: a corrupted or truncated payload is rejected by the strict
/// wire decoder (typed DecodeError, counted per cause) and absorbed by the
/// session's PoseTracker as a coasted frame — the degradation ladder of
/// src/stream handles the gap exactly like a link drop.
///
/// Trust: every session runs the per-peer trust FSM
/// (src/service/peer_health.hpp), which integrates decode rejects,
/// replay-guard hits, validation/gate demotions and cross-peer-consistency
/// votes into healthy/suspect/quarantined/probing and excludes quarantined
/// peers from processing entirely. The consistency vote: with >= 3 freshly
/// locked sessions that carried pose-prior claims, each pair's recovered
/// relative pose T_a^-1∘T_b is compared against the claimed relative
/// P_a^-1∘P_b; a peer whose pairs disagree by majority is flagged (the
/// honest peers outvote a single liar). Neither mutates honest sessions,
/// so honest results stay byte-identical to a liar-free run.
class CooperationService {
 public:
  explicit CooperationService(ServiceConfig config = {});
  ~CooperationService();
  CooperationService(const CooperationService&) = delete;
  CooperationService& operator=(const CooperationService&) = delete;

  [[nodiscard]] const ServiceConfig& config() const { return cfg_; }

  /// Encode this vehicle's own payload for broadcast (the sender side of
  /// the protocol): wraps toMessage + wire::encode with this service's
  /// WireConfig.
  [[nodiscard]] std::vector<std::uint8_t> sendFrame(
      const CarPerceptionData& data, std::uint64_t senderId,
      std::uint32_t frameIndex,
      wire::EncodeStats* stats = nullptr,
      const Pose2* posePrior = nullptr,
      std::int64_t captureTimeMicros = 0) const;

  /// Process one frame of received traffic: admit (spatial pre-gate +
  /// recover budget, both serial and deterministic), decode every admitted
  /// peer's payload, run each session's tracker step (cross-session
  /// parallel), and return one result per input, in input order. Skipped
  /// and shed sessions hold their track (TrackerOutcome::Held) without a
  /// decode or recover. Sessions are created on first sight of a peer id
  /// (evicting the most evictable idle session when the table is full);
  /// each result's `admission` field says how its input was handled —
  /// repeated peer ids within one call and unadmittable newcomers are
  /// typed rejections, never asserts.
  std::vector<SessionFrameResult> processFrame(
      const CarPerceptionData& ego,
      const std::vector<PeerFrameInput>& inputs);

  [[nodiscard]] int sessionCount() const {
    return static_cast<int>(sessions_.size());
  }
  /// Archived (evicted or reaped, not yet readmitted) sessions.
  [[nodiscard]] int retiredCount() const {
    return static_cast<int>(retired_.size());
  }
  [[nodiscard]] int framesProcessed() const { return frames_; }

  /// Deterministic snapshot of every session's stats (session-id order).
  [[nodiscard]] ServiceReport report() const;

  /// Attach a keyframe map (nullptr detaches; not owned). The service is
  /// a map FEEDER: recordEgoKeyframe() below offers ego frames to the
  /// store from serial code. Session trackers stay map-free here — they
  /// run cross-session parallel and the store is externally synchronized;
  /// a relocalizing consumer attaches the store to its own serial
  /// PoseTracker instead (see PoseTracker::attachMapStore).
  void attachMapStore(bba::map::KeyframeStore* store) { mapStore_ = store; }

  /// Offer the ego vehicle's current perception as a map keyframe at
  /// `egoGlobalPose` (its odometry/GNSS pose in the map frame). Call
  /// immediately BEFORE processFrame() with the same ego payload: the
  /// ego features computed here are the frame's, so the frame's sessions
  /// reuse them for free. No-op (returns a default InsertResult) without
  /// an attached map or with a mis-sized ego payload; the store dedups by
  /// spatial gap.
  map::InsertResult recordEgoKeyframe(const CarPerceptionData& ego,
                                      const Pose2& egoGlobalPose);

 private:
  /// The state of a peer that outlives its session: stats, trust FSM (a
  /// quarantine survives an evict/return cycle), last lock (eviction
  /// score, readmission warm start) and replay watermark (retirement is no
  /// replay amnesty). A live Session is one; retired_ archives it whole.
  struct PeerRecord {
    SessionStats stats;
    PeerHealthFsm health;
    bool hadLock = false;  ///< last fresh (Recovered/RecoveredRelaxed) lock
    Pose2 lastLockedPose;
    int lastLockFrame = 0;
    bool haveLastMeta = false;  ///< last message the replay guard accepted
    std::uint32_t lastFrameIndex = 0;
    std::int64_t lastCaptureMicros = 0;
  };
  struct Session;

  /// Create (or restore from the retirement archive) the session for
  /// `peerId`. Precondition: no live session for the id and a free slot.
  Session& createSession(std::uint64_t peerId, bool* readmitted);
  /// Move a live session into the retirement archive and free its slot.
  void retireSession(std::uint64_t peerId);
  /// The ego features of the current frame (frames_): computed on the
  /// first call of the frame (cache.ego_miss), returned as they are on
  /// later calls of the same frame (cache.ego_hit). Called only from the
  /// serial parts of recordEgoKeyframe() and processFrame(); sessions
  /// read the result through a const pointer, which stays valid until a
  /// later frame's first call replaces the features.
  const ImageFeatures& frameEgoFeatures(const CarPerceptionData& ego);

  ServiceConfig cfg_;
  /// Computes the shared per-frame ego features; configured identically to
  /// every session tracker's primary aligner, so its features are the ones
  /// each session would compute itself.
  BBAlign featureAligner_;
  std::shared_ptr<const ImageFeatures> egoFeatures_;
  int egoFrame_ = -1;  ///< the frames_ value egoFeatures_ belongs to
  int frames_ = 0;
  bba::map::KeyframeStore* mapStore_ = nullptr;  ///< not owned
  int rejectedFull_ = 0;
  // Ordered maps: iteration order == session-id order == merge order.
  std::map<std::uint64_t, std::unique_ptr<Session>> sessions_;
  std::map<std::uint64_t, PeerRecord> retired_;
};

}  // namespace bba::service
