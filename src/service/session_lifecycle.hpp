#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "service/peer_health.hpp"

namespace bba::service {

/// How one processFrame() input was admitted into the session table this
/// frame. Replaces the PR 4 hard asserts (table-full, duplicate id): in an
/// ad-hoc V2V fleet peers appear, vanish and reappear constantly, and the
/// 65th peer showing up is traffic, not a programming error — the service
/// must classify, never crash.
enum class SessionAdmission {
  /// The peer already holds a live session.
  Existing,
  /// A new session was created into a free slot (auto-registration on the
  /// first message — or the first explicit link-drop input — of a peer).
  Admitted,
  /// A new session was created by evicting the most evictable idle
  /// session (see evictionScore); SessionFrameResult::evictedPeerId names
  /// the victim.
  AdmittedEvicting,
  /// The table is full and no absent session scored at or above
  /// LifecycleConfig::minEvictionScore: the input is dropped for this
  /// frame (no session, no tracker step) and the peer may retry.
  RejectedFull,
  /// A later occurrence of a peer id that already appeared earlier in the
  /// same processFrame() call: only the first occurrence is processed.
  RejectedDuplicate,
};

inline constexpr int kSessionAdmissionCount = 5;

[[nodiscard]] const char* toString(SessionAdmission a);

/// Session-lifecycle tuning: eviction under maxSessions pressure, the
/// silent-peer reaper, and reconnect warm starts. Every clock in here is a
/// LOGICAL frame count (service frames processed), never wall time — the
/// whole lifecycle trajectory is a pure function of the input schedule, so
/// schedules and reports stay byte-identical at any BBA_THREADS.
struct LifecycleConfig {
  /// Only sessions scoring at or above this are evictable: a healthy,
  /// locked, just-seen session scores below it and is never displaced by
  /// a newcomer. Raise to favor incumbents, lower (to 0) to always churn;
  /// +inf never evicts, so a full table rejects every newcomer
  /// (RejectedFull) until the reaper frees a slot.
  double minEvictionScore = 1.0;

  // Eviction score weights (see evictionScore for the formula).
  double weightQuarantined = 100.0;  ///< quarantined sessions go first
  double weightSuspect = 8.0;
  double weightProbing = 4.0;
  /// Per frame of the current silent run (frames since the peer last
  /// appeared in a processFrame input).
  double weightSilentFrame = 1.0;
  /// Per frame since the session's tracker last accepted a measurement
  /// (lock staleness), capped at lockStalenessCapFrames.
  double weightLockStaleFrame = 0.1;
  int lockStalenessCapFrames = 100;
  /// Flat penalty for a session that never locked (no track to lose).
  double weightNoTrack = 5.0;
  /// Scaled by (1 - last reported confidence): a coasting, fading track
  /// is cheaper to give up than a fresh lock.
  double weightLowConfidence = 2.0;

  /// Silent-peer reaper: a session whose peer has not appeared in the
  /// inputs for more than this many consecutive service frames is retired
  /// (its stats are archived, its slot freed). 0 disables the reaper.
  /// Reaping runs in the serial end-of-frame phase and never touches the
  /// surviving sessions' RNG streams or results.
  int maxSilentFrames = 50;

  /// Reconnect: when an evicted or reaped peer returns, its archived
  /// stats + trust FSM are restored and — if its last lock is at most
  /// this many service frames old — the fresh tracker is warm-started
  /// from that pose via acceptExternalPose, so the returning peer re-locks
  /// through the normal ladder instead of bootstrapping blind (beyond the
  /// gap the dead-reckoned pose is stale enough to mis-gate honest
  /// measurements). (With a keyframe map attached to the consuming
  /// tracker, the relocalized rung provides the same service for the
  /// peer-less case; the archive is the service-side analogue.)
  int warmStartMaxGapFrames = 10;
};

/// One session competing for eviction — a pure-value snapshot, so the
/// score is computable (and testable) without a service instance.
struct EvictionCandidate {
  std::uint64_t peerId = 0;
  PeerHealth health = PeerHealth::Healthy;
  /// Consecutive service frames the peer has been absent from the inputs.
  int silentRunFrames = 0;
  /// Frames since the session's tracker last accepted a measurement.
  int lockStaleFrames = 0;
  bool hasTrack = false;
  /// Last confidence the session reported (0 when it never reported).
  double lastConfidence = 0.0;
};

/// Evictability of one session: higher = evicted sooner. A pure function
/// of the candidate and the weights — no clocks, no randomness — so the
/// eviction schedule is byte-identical across runs and thread counts.
///
///   score = healthTerm(state)
///         + weightSilentFrame    * silentRunFrames
///         + weightLockStaleFrame * min(lockStaleFrames, cap)
///         + (hasTrack ? 0 : weightNoTrack)
///         + weightLowConfidence  * (1 - clamp(lastConfidence, 0, 1))
[[nodiscard]] double evictionScore(const EvictionCandidate& c,
                                   const LifecycleConfig& cfg);

/// Pick the eviction victim: the candidate with the strictly greatest
/// (score, then LOWER peerId wins ties) whose score reaches
/// cfg.minEvictionScore. The (score desc, peerId asc) order is total, so
/// the choice is deterministic for any input order. Returns nullopt when
/// no candidate qualifies (the admission becomes RejectedFull).
[[nodiscard]] std::optional<std::uint64_t> pickEvictionVictim(
    const std::vector<EvictionCandidate>& candidates,
    const LifecycleConfig& cfg);

}  // namespace bba::service
