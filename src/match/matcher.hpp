#pragma once

#include <vector>

#include "features/descriptor.hpp"

namespace bba {

/// A keypoint correspondence: indices into the source ("other" car) and
/// destination ("ego" car) descriptor sets.
struct Match {
  int srcIndex = -1;
  int dstIndex = -1;
  float distance = 0.0f;  ///< Euclidean descriptor distance of the match
};

struct MatchParams {
  /// Keep the k nearest destination descriptors per source keypoint. The
  /// true counterpart frequently ranks 2nd or 3rd among self-similar
  /// structure; downstream geometric verification discards the rest.
  int topK = 2;
};

/// Brute-force descriptor matching by Euclidean distance (Algorithm 1
/// line 9). Each source descriptor is also tried 180 degrees flipped and
/// the smaller distance counts, which resolves the MIM's pi rotation
/// ambiguity. Per source row, matches come out by ascending distance, ties
/// in destination order; so a row's topK = k matches are the first k of
/// its topK = k + 1 matches.
[[nodiscard]] std::vector<Match> matchDescriptors(const DescriptorSet& src,
                                                  const DescriptorSet& dst,
                                                  const MatchParams& params = {});

}  // namespace bba
