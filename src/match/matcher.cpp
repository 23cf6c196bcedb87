#include "match/matcher.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>

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
  BBA_ASSERT(src.dimension() == dst.dimension());

  std::vector<TopK> forward(src.size(), TopK(prm.topK));
  const auto rows = static_cast<std::int64_t>(src.size());
  const auto dim = static_cast<std::size_t>(src.dimension());
  const std::size_t cols = dst.size();
  // Every source row's flipped copy, built once per call.
  const std::vector<float> flipped = src.flippedBlock();
  const float* dstRows = dst.descriptor(0).data();

  // Row-parallel: a source row writes only its own TopK slot. Destinations
  // go 4 rows per kernel call, then one by one; either way TopK sees them
  // in index order.
  parallelFor(0, rows, kRowGrain, [&](std::int64_t i0, std::int64_t i1) {
    for (std::int64_t r = i0; r < i1; ++r) {
      const auto i = static_cast<std::size_t>(r);
      const float* a = src.descriptor(i).data();
      const float* f = flipped.data() + i * dim;
      TopK& top = forward[i];
      std::size_t j = 0;
      for (; j + 4 <= cols; j += 4) {
        float d[8];
        descriptorDistance2x4(a, f, dstRows + j * dim, dim, d);
        for (std::size_t k = 0; k < 4; ++k) {
          top.consider(static_cast<int>(j + k), std::min(d[k], d[4 + k]));
        }
      }
      for (; j < cols; ++j) {
        const std::span<const float> b = dst.descriptor(j);
        top.consider(static_cast<int>(j),
                     std::min(descriptorDistance2({a, dim}, b),
                              descriptorDistance2({f, dim}, b)));
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

std::vector<Match> firstMatchesPerRow(const std::vector<Match>& ranked,
                                      int k) {
  BBA_ASSERT(k >= 1);
  std::vector<Match> out;
  out.reserve(ranked.size());
  int row = -1;
  int taken = 0;
  for (const Match& m : ranked) {
    if (m.srcIndex != row) {
      row = m.srcIndex;
      taken = 0;
    }
    if (taken++ < k) out.push_back(m);
  }
  return out;
}

}  // namespace bba
