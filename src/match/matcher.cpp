#include "match/matcher.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/assert.hpp"
#include "common/parallel.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace bba {

namespace {
/// Source rows per parallel chunk. A row costs one or two descriptor
/// distances per destination keypoint, so a chunk of 16 rows is far above
/// dispatch cost while a few hundred source keypoints still split into
/// tens of chunks.
constexpr std::int64_t kRowGrain = 16;

/// Fixed-size top-k tracker of (index, distance) pairs, ascending by
/// distance. k is small (<= 4 in practice), so insertion is linear.
struct TopK {
  explicit TopK(int k) : entries(static_cast<std::size_t>(k),
                                 {-1, std::numeric_limits<float>::infinity()}) {}

  void consider(int index, float d) {
    if (d >= entries.back().second) return;
    auto it = std::upper_bound(
        entries.begin(), entries.end(), d,
        [](float v, const std::pair<int, float>& e) { return v < e.second; });
    entries.pop_back();
    entries.insert(it, {index, d});
  }

  std::vector<std::pair<int, float>> entries;
};
}  // namespace

std::vector<Match> matchDescriptors(const DescriptorSet& src,
                                    const DescriptorSet& dst,
                                    const MatchParams& prm) {
  BBA_SPAN("match");
  BBA_ASSERT(prm.topK >= 1);
  std::vector<Match> out;
  if (src.empty() || dst.empty()) return out;

  // Each destination's best source is read only by the mutual check.
  const bool mutual = prm.topK == 1 && prm.mutualCheck;
  using Best = std::pair<int, float>;
  const Best none{-1, std::numeric_limits<float>::infinity()};

  // Track one extra neighbour for the ratio test.
  const int k = prm.topK + 1;
  std::vector<TopK> forward(src.size(), TopK(k));
  const auto rows = static_cast<std::int64_t>(src.size());
  std::vector<std::vector<Best>> backwardPartials(
      mutual ? static_cast<std::size_t>(chunkCount(0, rows, kRowGrain)) : 0);

  // Row-parallel: a source row writes only its own TopK slot, and the
  // backward bests go to one partial per chunk.
  parallelFor(0, rows, kRowGrain, [&](std::int64_t i0, std::int64_t i1) {
    std::vector<Best>* backward = nullptr;
    if (mutual) {
      backward = &backwardPartials[static_cast<std::size_t>(i0 / kRowGrain)];
      backward->assign(dst.size(), none);
    }
    std::vector<float> srcFlipped;
    for (std::int64_t r = i0; r < i1; ++r) {
      const auto i = static_cast<std::size_t>(r);
      if (prm.useFlipped) srcFlipped = src.flipped(i);
      for (std::size_t j = 0; j < dst.size(); ++j) {
        float d = descriptorDistance2(src.descriptor(i), dst.descriptor(j));
        if (prm.useFlipped) {
          d = std::min(d, descriptorDistance2(srcFlipped, dst.descriptor(j)));
        }
        forward[i].consider(static_cast<int>(j), d);
        if (backward != nullptr && d < (*backward)[j].second) {
          (*backward)[j] = {static_cast<int>(i), d};
        }
      }
    }
  });

  // Merge in chunk order with strict `<`: the first minimal source row
  // wins, exactly as in one serial sweep over all rows.
  std::vector<Best> backwardBest(mutual ? dst.size() : 0, none);
  for (const std::vector<Best>& partial : backwardPartials) {
    for (std::size_t j = 0; j < dst.size(); ++j) {
      if (partial[j].second < backwardBest[j].second)
        backwardBest[j] = partial[j];
    }
  }

  const float ratio2 = prm.ratio * prm.ratio;
  for (std::size_t i = 0; i < src.size(); ++i) {
    const auto& cands = forward[i].entries;
    const float dLast = cands.back().second;  // (topK+1)-th distance
    for (int rank = 0; rank < prm.topK; ++rank) {
      const auto [j, d] = cands[static_cast<std::size_t>(rank)];
      if (j < 0) break;
      if (prm.ratio < 1.0f && std::isfinite(dLast) && dLast > 0.0f &&
          d >= ratio2 * dLast)
        continue;
      if (mutual && backwardBest[static_cast<std::size_t>(j)].first !=
              static_cast<int>(i))
        continue;
      out.push_back(Match{static_cast<int>(i), j, std::sqrt(d)});
    }
  }
  BBA_COUNTER_ADD("match.matches", static_cast<std::int64_t>(out.size()));
  return out;
}

}  // namespace bba
