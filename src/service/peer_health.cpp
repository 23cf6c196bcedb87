#include "service/peer_health.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace bba::service {

namespace {

// Tuning of the trust FSM. With the service's penalty weights these
// quarantine a peer that misbehaves every frame within 4 frames (2 to
// suspect, 2 more to quarantine) while absorbing the occasional honest
// failure through the per-clean-frame decay.

/// Suspicion at or above this enters `suspect`.
constexpr int kSuspectThreshold = 2;
/// Suspicion at or above this enters `quarantined`.
constexpr int kQuarantineThreshold = 4;
/// Suspicion subtracted per penalty-free frame (floor 0).
constexpr int kDecayPerCleanFrame = 1;
/// Backoff of the n-th quarantine: min(kBackoffMaxFrames,
/// kBackoffBaseFrames * 2^(n-1)) frames — exponential, frame-counted,
/// wall-clock free.
constexpr int kBackoffBaseFrames = 4;
constexpr int kBackoffMaxFrames = 64;
/// Penalty-free probing frames required to return to `healthy`.
constexpr int kProbationFrames = 2;

static_assert(kSuspectThreshold >= 1 &&
              kQuarantineThreshold > kSuspectThreshold);
static_assert(kBackoffBaseFrames >= 1 &&
              kBackoffMaxFrames >= kBackoffBaseFrames);
static_assert(kProbationFrames >= 1);

}  // namespace

const char* toString(PeerHealth s) {
  switch (s) {
    case PeerHealth::Healthy:
      return "healthy";
    case PeerHealth::Suspect:
      return "suspect";
    case PeerHealth::Quarantined:
      return "quarantined";
    case PeerHealth::Probing:
      return "probing";
  }
  return "?";
}

void PeerHealthFsm::moveTo(PeerHealth next) {
  transitions_[static_cast<std::size_t>(state_)]
              [static_cast<std::size_t>(next)] += 1;
  state_ = next;
}

void PeerHealthFsm::enterQuarantine() {
  quarantines_ += 1;
  // Deterministic exponential backoff in FRAMES: base * 2^(n-1), capped.
  // Shift count bounded by the cap check, so no UB for large n.
  long long b = kBackoffBaseFrames;
  for (int i = 1; i < quarantines_ && b < kBackoffMaxFrames; ++i) b *= 2;
  backoff_ = static_cast<int>(std::min<long long>(b, kBackoffMaxFrames));
  inQuarantine_ = 0;
  moveTo(PeerHealth::Quarantined);
}

PeerHealth PeerHealthFsm::onFrame(int penalty) {
  BBA_ASSERT(penalty >= 0);
  switch (state_) {
    case PeerHealth::Quarantined:
      // Not processed: the penalty cannot exist; count the backoff down.
      inQuarantine_ += 1;
      if (inQuarantine_ >= backoff_) {
        suspicion_ = 0;
        probeClean_ = 0;
        moveTo(PeerHealth::Probing);
      }
      break;
    case PeerHealth::Probing:
      // Probation: any offense re-quarantines with a doubled backoff; a
      // clean streak of kProbationFrames restores full trust.
      if (penalty > 0) {
        suspicion_ = kQuarantineThreshold;
        enterQuarantine();
      } else {
        probeClean_ += 1;
        if (probeClean_ >= kProbationFrames) {
          suspicion_ = 0;
          moveTo(PeerHealth::Healthy);
        }
      }
      break;
    case PeerHealth::Healthy:
    case PeerHealth::Suspect:
      if (penalty > 0) {
        suspicion_ += penalty;
      } else {
        suspicion_ = std::max(0, suspicion_ - kDecayPerCleanFrame);
      }
      if (suspicion_ >= kQuarantineThreshold) {
        enterQuarantine();
      } else if (state_ == PeerHealth::Healthy &&
                 suspicion_ >= kSuspectThreshold) {
        moveTo(PeerHealth::Suspect);
      } else if (state_ == PeerHealth::Suspect && suspicion_ == 0) {
        moveTo(PeerHealth::Healthy);
      }
      break;
  }
  return state_;
}

}  // namespace bba::service
