#pragma once

#include <array>
#include <cstdint>
#include <string>

namespace bba::service {

/// Trust state of one peer session. A peer whose traffic decodes cleanly
/// can still lie (spoofed pose prior, replayed frames, fabricated boxes);
/// the FSM integrates the per-frame evidence — wire rejects, replay-guard
/// hits, gt-free validation failures, innovation-gate rejects, cross-peer
/// consistency votes — into a state the service schedules by.
///
///   healthy ──penalty──▶ suspect ──penalty──▶ quarantined
///      ▲                    │                     │ backoff elapses
///      │    clean frames    │                     ▼
///      └────────────────────┴───clean probe─── probing ──penalty──▶ quarantined
///
/// Quarantined peers are excluded from processing entirely and re-admitted
/// through `probing` after a deterministic exponential backoff measured in
/// FRAMES, never wall-clock — the state trajectory is a pure function of
/// the per-frame penalty sequence, preserving the byte-identical-at-any-
/// thread-count contract of the service.
enum class PeerHealth {
  Healthy,      ///< full trust: processed, poses reported
  Suspect,      ///< accumulating evidence: processed, but one step from
                ///  quarantine
  Quarantined,  ///< excluded from processing until the backoff elapses
  Probing,      ///< re-admitted on probation: must stay clean to recover
};

inline constexpr int kPeerHealthCount = 4;

[[nodiscard]] const char* toString(PeerHealth s);

/// Deterministic per-peer trust state machine. Feed it one penalty per
/// service frame (0 = clean); read back the state, the suspicion level and
/// the transition tally. The entire trajectory is a pure function of the
/// penalty sequence — no clocks, no randomness. Its thresholds, decay,
/// backoff and probation are constants (service/peer_health.cpp); the
/// penalty weights are the service's (service/cooperation_service.cpp).
class PeerHealthFsm {
 public:
  [[nodiscard]] PeerHealth state() const { return state_; }
  [[nodiscard]] int suspicion() const { return suspicion_; }
  /// Times the peer entered quarantine.
  [[nodiscard]] int quarantines() const { return quarantines_; }
  /// Backoff length (frames) of the current/most recent quarantine.
  [[nodiscard]] int backoffFrames() const { return backoff_; }
  /// Whether the service should process this peer's traffic this frame
  /// (false exactly while quarantined).
  [[nodiscard]] bool shouldProcess() const {
    return state_ != PeerHealth::Quarantined;
  }
  /// Transition tally: [from][to] counts of every edge taken.
  [[nodiscard]] const std::array<std::array<int, kPeerHealthCount>,
                                 kPeerHealthCount>&
  transitions() const {
    return transitions_;
  }

  /// Advance one frame with the given penalty (0 = clean). While
  /// quarantined the penalty is ignored (the peer was not processed) and
  /// the backoff counts down instead. Returns the state after the step.
  PeerHealth onFrame(int penalty);

 private:
  void moveTo(PeerHealth next);
  void enterQuarantine();

  PeerHealth state_ = PeerHealth::Healthy;
  int suspicion_ = 0;
  int quarantines_ = 0;
  int backoff_ = 0;
  int inQuarantine_ = 0;
  int probeClean_ = 0;
  std::array<std::array<int, kPeerHealthCount>, kPeerHealthCount>
      transitions_{};
};

}  // namespace bba::service
