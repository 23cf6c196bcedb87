#include "service/session_lifecycle.hpp"

#include <algorithm>

namespace bba::service {

const char* toString(SessionAdmission a) {
  switch (a) {
    case SessionAdmission::Existing:
      return "existing";
    case SessionAdmission::Admitted:
      return "admitted";
    case SessionAdmission::AdmittedEvicting:
      return "admitted_evicting";
    case SessionAdmission::RejectedFull:
      return "rejected_full";
    case SessionAdmission::RejectedDuplicate:
      return "rejected_duplicate";
  }
  return "unknown";
}

namespace {

// Eviction score weights (see evictionScore for the formula).
constexpr double kWeightQuarantined = 100.0;  ///< quarantined sessions go first
constexpr double kWeightSuspect = 8.0;
constexpr double kWeightProbing = 4.0;
/// Per frame of the current silent run (frames since the peer last
/// appeared in a processFrame input).
constexpr double kWeightSilentFrame = 1.0;
/// Per frame since the session's tracker last accepted a measurement (lock
/// staleness), capped at kLockStalenessCapFrames.
constexpr double kWeightLockStaleFrame = 0.1;
/// Flat penalty for a session that never locked (no track to lose).
constexpr double kWeightNoTrack = 5.0;
/// Scaled by (1 - last reported confidence): a coasting, fading track is
/// cheaper to give up than a fresh lock.
constexpr double kWeightLowConfidence = 2.0;

double healthTerm(PeerHealth h) {
  switch (h) {
    case PeerHealth::Quarantined:
      return kWeightQuarantined;
    case PeerHealth::Suspect:
      return kWeightSuspect;
    case PeerHealth::Probing:
      return kWeightProbing;
    case PeerHealth::Healthy:
      return 0.0;
  }
  return 0.0;
}

}  // namespace

double evictionScore(const EvictionCandidate& c) {
  const double conf = std::clamp(c.lastConfidence, 0.0, 1.0);
  const int stale =
      std::min(std::max(c.lockStaleFrames, 0), kLockStalenessCapFrames);
  double score = healthTerm(c.health);
  score += kWeightSilentFrame *
           static_cast<double>(std::max(c.silentRunFrames, 0));
  score += kWeightLockStaleFrame * static_cast<double>(stale);
  if (!c.hasTrack) score += kWeightNoTrack;
  score += kWeightLowConfidence * (1.0 - conf);
  return score;
}

std::optional<std::uint64_t> pickEvictionVictim(
    const std::vector<EvictionCandidate>& candidates,
    const LifecycleConfig& cfg) {
  std::optional<std::uint64_t> best;
  double bestScore = 0.0;
  for (const auto& c : candidates) {
    const double s = evictionScore(c);
    if (s < cfg.minEvictionScore) continue;
    // Strict total order: score desc, peerId asc — input order never
    // changes the pick.
    if (!best || s > bestScore || (s == bestScore && c.peerId < *best)) {
      best = c.peerId;
      bestScore = s;
    }
  }
  return best;
}

}  // namespace bba::service
