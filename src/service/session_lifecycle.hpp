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
  /// kMinEvictionScore: the input is dropped for this frame (no session,
  /// no tracker step) and the peer may retry.
  RejectedFull,
  /// A later occurrence of a peer id that already appeared earlier in the
  /// same processFrame() call: only the first occurrence is processed.
  RejectedDuplicate,
};

inline constexpr int kSessionAdmissionCount = 5;

[[nodiscard]] const char* toString(SessionAdmission a);

/// Session-lifecycle tuning: the silent-peer reaper. Every clock in the
/// lifecycle is a LOGICAL frame count (service frames processed), never
/// wall time — the whole lifecycle trajectory is a pure function of the
/// input schedule, so schedules and reports stay byte-identical at any
/// BBA_THREADS. Eviction under maxSessions pressure and reconnect warm
/// starts run on constants (see evictionScore, kMinEvictionScore and
/// kWarmStartMaxGapFrames).
struct LifecycleConfig {
  /// Silent-peer reaper: a session whose peer has not appeared in the
  /// inputs for more than this many consecutive service frames is retired
  /// (its stats are archived, its slot freed). 0 disables the reaper.
  /// Reaping runs in the serial end-of-frame phase and never touches the
  /// surviving sessions' RNG streams or results.
  int maxSilentFrames = 50;
};

/// Cap on the lock-staleness term of evictionScore: frames since the
/// session's tracker last accepted a measurement count up to this many.
inline constexpr int kLockStalenessCapFrames = 100;

/// Reconnect: when an evicted or reaped peer returns, its archived stats +
/// trust FSM are restored and — if its last lock is at most this many
/// service frames old — the fresh tracker is warm-started from that pose
/// via acceptExternalPose, so the returning peer re-locks through the
/// normal ladder instead of bootstrapping blind (beyond the gap the
/// dead-reckoned pose is stale enough to mis-gate honest measurements).
/// (With a keyframe map attached to the consuming tracker, the relocalized
/// rung provides the same service for the peer-less case; the archive is
/// the service-side analogue.)
inline constexpr int kWarmStartMaxGapFrames = 10;

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
/// of the candidate and constant weights (service/session_lifecycle.cpp)
/// — no clocks, no randomness — so the eviction schedule is byte-identical
/// across runs and thread counts.
///
///   score = healthTerm(state)
///         + kWeightSilentFrame    * silentRunFrames
///         + kWeightLockStaleFrame * min(lockStaleFrames,
///                                       kLockStalenessCapFrames)
///         + (hasTrack ? 0 : kWeightNoTrack)
///         + kWeightLowConfidence  * (1 - clamp(lastConfidence, 0, 1))
[[nodiscard]] double evictionScore(const EvictionCandidate& c);

/// Only sessions scoring at or above this are evictable: a healthy,
/// locked, just-seen session scores below it and is never displaced by a
/// newcomer.
inline constexpr double kMinEvictionScore = 1.0;

/// Pick the eviction victim: the candidate with the strictly greatest
/// (score, then LOWER peerId wins ties) whose score reaches
/// kMinEvictionScore. The (score desc, peerId asc) order is total, so the
/// choice is deterministic for any input order. Returns nullopt when no
/// candidate qualifies (the admission becomes RejectedFull).
[[nodiscard]] std::optional<std::uint64_t> pickEvictionVictim(
    const std::vector<EvictionCandidate>& candidates);

}  // namespace bba::service
