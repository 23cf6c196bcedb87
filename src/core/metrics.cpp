#include "core/metrics.hpp"

namespace bba {

PairEvaluation evaluatePair(const BBAlign& aligner, const FramePair& pair,
                            Rng& rng, bool runVips) {
  PairEvaluation ev;
  ev.distance = pair.interVehicleDistance;
  ev.commonCars = pair.commonCars;

  const CarPerceptionData egoData =
      aligner.makeCarData(pair.egoCloud, pair.egoDets);
  const CarPerceptionData otherData =
      aligner.makeCarData(pair.otherCloud, pair.otherDets);

  ev.recovery = aligner.recover(otherData, egoData, rng);
  ev.error = poseError(ev.recovery.estimate, pair.gtOtherToEgo);
  ev.errorStage1 = poseError(ev.recovery.stage1, pair.gtOtherToEgo);

  if (runVips) {
    ev.vipsRan = true;
    ev.vips = vipsEstimate(pair.otherDets, pair.egoDets);
    if (ev.vips.ok) {
      ev.vipsError = poseError(ev.vips.transform, pair.gtOtherToEgo);
    }
  }
  return ev;
}

}  // namespace bba
