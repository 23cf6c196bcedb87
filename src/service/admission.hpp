#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "geom/pose2.hpp"

namespace bba::service {

/// Spatial pre-gate (fleet-scale admission stage 1): decide from a peer's
/// *claimed* relative pose alone — before the full payload is decoded —
/// whether its BV footprint can plausibly overlap the ego footprint. A
/// claim outside the gate cannot produce a BB-Align lock (no shared
/// geometry to match), so the session is held on a cheap
/// "tracked-but-not-aligned" rung instead of burning a full recover().
///
/// The gate is a pure function of the claimed poses and the BV range:
/// deterministic, thread-free, and trivially byte-identical at any
/// BBA_THREADS (asserted by tests/admission_test.cpp). Claims only ever
/// REMOVE work — a spoofed claim can waste one recover() slot or skip the
/// spoofer's own session, but never seeds a track or touches other peers.
/// A locked session is gated on the tracker's own, unspoofable prediction
/// (PoseTracker::predictNext), a bootstrapping one on its claim; a
/// claim-less one always passes. maxPairingRangeM = +inf with
/// minOverlapFrac = 0 opens the gate.
struct PreGateConfig {
  /// Hard range cap on the claimed translation (meters). Beyond ~2x the
  /// BV range two 256x256 footprints share no pixels; the default leaves
  /// margin for claim error.
  double maxPairingRangeM = 150.0;
  /// Minimum fraction of the ego BV footprint area that the claimed peer
  /// footprint must cover for alignment to be attemptable.
  double minOverlapFrac = 0.02;
};

/// Fraction of the ego BV footprint (a square of side 2*bvRangeM centered
/// on the ego) covered by the claimed peer footprint (the same square
/// transformed by `claimedOtherToEgo`). Exact convex clipping; in [0, 1].
[[nodiscard]] double bvFootprintOverlap(const Pose2& claimedOtherToEgo,
                                        double bvRangeM);

/// The pre-gate decision: true when the pose passes both the range cap
/// and the footprint-overlap floor.
[[nodiscard]] bool preGateAdmits(const Pose2& claimedOtherToEgo,
                                 double bvRangeM, const PreGateConfig& cfg);

/// Deterministic cost model: assumed cost of one admitted session (decode +
/// recover), which converts a frame deadline into recover slots.
inline constexpr double kAssumedRecoverCostMs = 200.0;

/// Per-frame work budget (fleet-scale admission stage 2): how many full
/// recover() attempts one processFrame() may spend. Sessions beyond the
/// budget are shed — they coast on the tracker ladder this frame and move
/// to the front of the line next frame (see grantRecoverSlots).
///
/// The frame deadline is honored through the static cost model
/// kAssumedRecoverCostMs, never a mid-frame wall clock: a wall clock would
/// make the schedule depend on machine load and break the
/// byte-identical-results contract. The `fleet` workload of bench/e2e
/// measures the realized frame latency the model stands in for.
struct BudgetConfig {
  /// Frame deadline in milliseconds (0 = unlimited), converted to a slot
  /// count via kAssumedRecoverCostMs.
  double frameDeadlineMs = 0.0;
};

/// Recover slots per frame the deadline allows, 0 = unlimited.
[[nodiscard]] int effectiveRecoverBudget(const BudgetConfig& cfg);

/// One admitted session competing for a recover slot this frame.
struct SlotCandidate {
  std::uint64_t peerId = 0;
  /// Frames since this session was last *granted* a slot (not since its
  /// last lock): resetting on grant — win or lose — is what makes the
  /// rotation starvation-free even for peers that never lock.
  int staleness = 0;
  /// Caller-side index of the candidate (returned for granted slots).
  std::size_t slot = 0;
};

/// Deterministic slot assignment: sort by (staleness desc, peerId asc) and
/// grant the first `budget` candidates (budget <= 0 grants everyone).
/// Returns the granted candidates' `slot` values in grant order. With
/// every ungranted session's staleness incrementing each frame, the
/// rotation is starvation-free: no session waits more than
/// ceil(S / budget) frames for a slot (asserted by
/// tests/admission_test.cpp).
[[nodiscard]] std::vector<std::size_t> grantRecoverSlots(
    std::vector<SlotCandidate> candidates, int budget);

}  // namespace bba::service
