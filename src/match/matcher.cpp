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
/// Source rows per parallel chunk. A row costs two descriptor distances
/// per destination keypoint, so a chunk of 16 rows is far above
/// dispatch cost while a few hundred source keypoints still split into
/// tens of chunks.
constexpr std::int64_t kRowGrain = 16;

/// Fixed-size top-k tracker of (index, distance) pairs, ascending by
/// distance; a tie goes after the entries already held, so the entries
/// are the k smallest by (distance, arrival). k is small (<= 4 in
/// practice), so insertion is linear.
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

  std::vector<TopK> forward(src.size(), TopK(prm.topK));
  const auto rows = static_cast<std::int64_t>(src.size());

  // Row-parallel: a source row writes only its own TopK slot.
  parallelFor(0, rows, kRowGrain, [&](std::int64_t i0, std::int64_t i1) {
    for (std::int64_t r = i0; r < i1; ++r) {
      const auto i = static_cast<std::size_t>(r);
      const std::vector<float> srcFlipped = src.flipped(i);
      for (std::size_t j = 0; j < dst.size(); ++j) {
        const float d = std::min(
            descriptorDistance2(src.descriptor(i), dst.descriptor(j)),
            descriptorDistance2(srcFlipped, dst.descriptor(j)));
        forward[i].consider(static_cast<int>(j), d);
      }
    }
  });

  for (std::size_t i = 0; i < src.size(); ++i) {
    for (const auto& [j, d] : forward[i].entries) {
      if (j < 0) break;
      out.push_back(Match{static_cast<int>(i), j, std::sqrt(d)});
    }
  }
  BBA_COUNTER_ADD("match.matches", static_cast<std::int64_t>(out.size()));
  return out;
}

}  // namespace bba
