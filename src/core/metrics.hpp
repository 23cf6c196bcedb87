#pragma once

#include "baselines/vips.hpp"
#include "core/bb_align.hpp"
#include "dataset/frame_pair.hpp"

namespace bba {

/// One frame pair run through BB-Align (and optionally the VIPS baseline):
/// the record all figure benches aggregate over.
struct PairEvaluation {
  double distance = 0.0;
  int commonCars = 0;

  PoseRecoveryResult recovery;
  PoseError error;        ///< full two-stage estimate vs ground truth
  PoseError errorStage1;  ///< stage-1-only estimate vs ground truth

  bool vipsRan = false;
  VipsResult vips;
  PoseError vipsError;  ///< valid when vips.ok
};

/// Run BB-Align (and VIPS when requested) on one pair.
[[nodiscard]] PairEvaluation evaluatePair(const BBAlign& aligner,
                                          const FramePair& pair, Rng& rng,
                                          bool runVips = false);

}  // namespace bba
