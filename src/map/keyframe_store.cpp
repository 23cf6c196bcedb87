#include "map/keyframe_store.hpp"

#include <algorithm>
#include <cfloat>
#include <utility>

#include "common/assert.hpp"
#include "obs/metrics.hpp"

namespace bba::map {

namespace {

/// Distance slot for candidates without a comparable signature (empty or
/// dimension-mismatched): sorts past every real score and is filtered out.
constexpr float kIncomparable = FLT_MAX;

}  // namespace

KeyframeStore::KeyframeStore(KeyframeStoreConfig cfg) : cfg_(cfg) {
  BBA_ASSERT_MSG(cfg.capacity >= 1, "KeyframeStore capacity must be >= 1");
  BBA_ASSERT_MSG(cfg.keyframeGapM >= 0.0, "keyframe gap must be >= 0");
  BBA_ASSERT_MSG(cfg.maxCandidates >= 1, "maxCandidates must be >= 1");
  BBA_ASSERT_MSG(cfg.queryRadiusM > 0.0, "query radius must be positive");
}

std::vector<float> KeyframeStore::signatureOf(
    const DescriptorSet& descriptors) {
  if (descriptors.empty()) return {};
  const auto dim = static_cast<std::size_t>(descriptors.dimension());
  std::vector<double> acc(dim, 0.0);
  for (std::size_t i = 0; i < descriptors.size(); ++i) {
    const std::span<const float> d = descriptors.descriptor(i);
    BBA_ASSERT(d.size() == dim);
    for (std::size_t j = 0; j < dim; ++j) acc[j] += d[j];
  }
  std::vector<float> sig(dim);
  const double inv = 1.0 / static_cast<double>(descriptors.size());
  for (std::size_t j = 0; j < dim; ++j)
    sig[j] = static_cast<float>(acc[j] * inv);
  return sig;
}

InsertResult KeyframeStore::insert(const Pose2& globalPose,
                                   const DescriptorSet& descriptors,
                                   const CarPerceptionData& payload) {
  ++tick_;
  InsertResult out;

  // Dedup: the nearest existing keyframe within the gap blocks the insert
  // (ties on distance break toward the lowest id — the scan runs
  // id-ascending, so the first strict improvement wins).
  if (cfg_.keyframeGapM > 0.0) {
    Entry* blocking = nullptr;
    double best = cfg_.keyframeGapM;
    for (auto& [id, e] : frames_) {
      const double d = (e.kf.globalPose.t - globalPose.t).norm();
      if (d < best) {
        best = d;
        blocking = &e;
      }
    }
    if (blocking != nullptr) {
      touch(*blocking);  // a revisited place is a live place
      out.dedupSkipped = true;
      out.id = blocking->kf.id;
      BBA_COUNTER_ADD("map.dedup_skips", 1);
      return out;
    }
  }

  if (frames_.size() >= static_cast<std::size_t>(cfg_.capacity)) {
    evictLeastRecent();
    out.evicted = true;
    out.evictedId = lastEvictedId_;
  }

  Entry e;
  e.kf.id = nextId_++;
  e.kf.globalPose = globalPose;
  e.kf.signature = signatureOf(descriptors);
  e.kf.payload = payload;
  e.lastTouched = tick_;
  out.inserted = true;
  out.id = e.kf.id;
  frames_.emplace(e.kf.id, std::move(e));
  BBA_COUNTER_ADD("map.inserts", 1);
  BBA_GAUGE_SET("map.size", static_cast<double>(frames_.size()));
  return out;
}

void KeyframeStore::evictLeastRecent() {
  BBA_ASSERT(!frames_.empty());
  // Ascending-id iteration + strict < : ties on lastTouched break toward
  // the lowest id.
  auto victim = frames_.begin();
  for (auto it = std::next(frames_.begin()); it != frames_.end(); ++it)
    if (it->second.lastTouched < victim->second.lastTouched) victim = it;
  lastEvictedId_ = victim->first;
  frames_.erase(victim);
  BBA_COUNTER_ADD("map.evictions", 1);
  BBA_GAUGE_SET("map.size", static_cast<double>(frames_.size()));
}

std::vector<QueryMatch> KeyframeStore::query(
    const DescriptorSet& queryDescriptors, const Vec2& priorPosition) {
  ++tick_;
  BBA_COUNTER_ADD("map.queries", 1);

  const std::vector<float> querySig = signatureOf(queryDescriptors);
  if (querySig.empty()) {
    BBA_HISTOGRAM_OBSERVE("map.candidates", 0.0);
    return {};
  }

  // Stage 1: spatial neighborhood, id-ascending.
  std::vector<const Keyframe*> candidates;
  for (const auto& [id, e] : frames_) {
    if ((e.kf.globalPose.t - priorPosition).norm() <= cfg_.queryRadiusM)
      candidates.push_back(&e.kf);
  }
  BBA_HISTOGRAM_OBSERVE("map.candidates",
                        static_cast<double>(candidates.size()));
  if (candidates.empty()) return {};

  // Stage 2: SIMD signature scoring, then order by (signatureDistance,
  // id) and keep the top k.
  std::vector<float> dist(candidates.size());
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const std::vector<float>& sig = candidates[i]->signature;
    dist[i] = sig.size() == querySig.size()
                  ? descriptorDistance2(querySig, sig)
                  : kIncomparable;
  }
  std::vector<std::size_t> order;
  order.reserve(candidates.size());
  for (std::size_t i = 0; i < candidates.size(); ++i)
    if (dist[i] != kIncomparable) order.push_back(i);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (dist[a] != dist[b]) return dist[a] < dist[b];
    return candidates[a]->id < candidates[b]->id;
  });
  if (order.size() > static_cast<std::size_t>(cfg_.maxCandidates))
    order.resize(static_cast<std::size_t>(cfg_.maxCandidates));

  std::vector<QueryMatch> out;
  out.reserve(order.size());
  for (std::size_t i : order) {
    const Keyframe& kf = *candidates[i];
    touch(frames_.at(kf.id));  // hits stay resident
    out.push_back(QueryMatch{kf.id, dist[i],
                             (kf.globalPose.t - priorPosition).norm()});
  }
  if (!out.empty()) BBA_COUNTER_ADD("map.hits", 1);
  return out;
}

const Keyframe* KeyframeStore::keyframe(std::uint64_t id) const {
  const auto it = frames_.find(id);
  return it == frames_.end() ? nullptr : &it->second.kf;
}

}  // namespace bba::map
