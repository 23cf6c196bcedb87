#include "service/admission.hpp"

#include <algorithm>
#include <cmath>

#include "common/assert.hpp"
#include "geom/iou.hpp"

namespace bba::service {

double bvFootprintOverlap(const Pose2& claimedOtherToEgo, double bvRangeM) {
  BBA_ASSERT(bvRangeM > 0.0);
  // Both footprints are the BV raster's ground coverage: a square of side
  // 2*range centered on the sensing vehicle. The ego square is axis-
  // aligned at the origin of the ego frame; the peer square is the same
  // square carried through the claimed other->ego transform.
  const OrientedBox2 egoFootprint{Vec2{0.0, 0.0}, Vec2{bvRangeM, bvRangeM},
                                  0.0};
  const OrientedBox2 peerFootprint =
      egoFootprint.transformed(claimedOtherToEgo);
  return intersectionArea(egoFootprint, peerFootprint) / egoFootprint.area();
}

bool preGateAdmits(const Pose2& claimedOtherToEgo, double bvRangeM) {
  // Cheap range reject first: the clipping below is exact but ~50x the
  // cost of a norm, and most of a dense fleet is out of range.
  const double range = claimedOtherToEgo.t.norm();
  if (range > kMaxPairingRangeM) return false;
  return bvFootprintOverlap(claimedOtherToEgo, bvRangeM) >= kMinOverlapFrac;
}

int effectiveRecoverBudget(const BudgetConfig& cfg) {
  if (cfg.frameDeadlineMs <= 0.0) return 0;
  // At least one slot: a deadline below one recover's assumed cost still
  // has to make progress, or the whole fleet would starve.
  return std::max(
      1, static_cast<int>(cfg.frameDeadlineMs / kAssumedRecoverCostMs));
}

std::vector<std::size_t> grantRecoverSlots(
    std::vector<SlotCandidate> candidates, int budget) {
  std::sort(candidates.begin(), candidates.end(),
            [](const SlotCandidate& a, const SlotCandidate& b) {
              if (a.staleness != b.staleness)
                return a.staleness > b.staleness;
              return a.peerId < b.peerId;
            });
  const std::size_t granted =
      budget <= 0 ? candidates.size()
                  : std::min(candidates.size(),
                             static_cast<std::size_t>(budget));
  std::vector<std::size_t> out;
  out.reserve(granted);
  for (std::size_t i = 0; i < granted; ++i) out.push_back(candidates[i].slot);
  return out;
}

}  // namespace bba::service
