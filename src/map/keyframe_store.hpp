#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "core/bb_align.hpp"
#include "features/descriptor.hpp"
#include "geom/pose2.hpp"
#include "spatial/tile_grid.hpp"

namespace bba::map {

/// Keyframe map service configuration.
struct KeyframeStoreConfig {
  /// Minimum spacing between stored keyframes: an insert whose global
  /// position lies within this distance of an existing keyframe is a
  /// dedup skip (the map already covers that place).
  double keyframeGapM = 4.0;
  /// Hard bound on stored keyframes. At capacity, inserting evicts the
  /// least-recently-touched keyframe (LRU by logical tick — inserts,
  /// dedup revisits and query hits all touch; no wall clocks anywhere).
  int capacity = 256;
  /// Tile edge of the spatial index (see TileGrid2). Also the future
  /// shard granularity.
  double tileSizeM = 32.0;
  /// k of the k-NN query: at most this many matches returned.
  int maxCandidates = 4;
  /// Spatial neighborhood of a query: only keyframes within this radius
  /// of the prior position compete (place recognition here always has a
  /// coarse prior — the tracker's last-known pose neighborhood).
  double queryRadiusM = 60.0;
};

/// One stored place: where it is (global pose), what it looks like (the
/// mean signature of its BVFT descriptor set — the set itself is not
/// kept), and — when the producer supplies it — the raw perception payload
/// a relocalization can feed back into BBAlign::recover as the "other"
/// car.
struct Keyframe {
  std::uint64_t id = 0;
  /// Global pose of the capturing vehicle at keyframe time (map frame).
  Pose2 globalPose;
  /// Mean of the descriptor set's vectors: one SIMD-scorable coarse
  /// signature per place (BVMatch-style database scoring).
  std::vector<float> signature;
  /// Optional: BV image + boxes for relocalization. Index-only entries
  /// (empty payload) are allowed — they serve queries but cannot anchor
  /// a recover() call.
  CarPerceptionData payload;
};

/// Outcome of one insert attempt.
struct InsertResult {
  bool inserted = false;
  /// Id assigned when inserted; id of the blocking neighbor otherwise.
  std::uint64_t id = 0;
  bool dedupSkipped = false;
  bool evicted = false;
  std::uint64_t evictedId = 0;
};

/// One k-NN query answer, best (smallest signature distance) first.
struct QueryMatch {
  std::uint64_t id = 0;
  /// Squared Euclidean distance between mean signatures.
  float signatureDistance = 0.0f;
  /// Euclidean distance from the query prior position, meters.
  double spatialDistance = 0.0;
};

/// Capacity-bounded keyframe database with an approximate spatial index:
/// the single-process seed of ROADMAP item 5's shared map service.
///
/// Lookup is two-stage: TileGrid2 gathers the keyframes whose tiles
/// intersect the query neighborhood (a deterministic, id-ordered
/// superset), then every in-radius candidate is scored against the query
/// signature with the SIMD descriptor-distance kernel. Scoring runs
/// under parallelFor with one result slot per candidate and a serial
/// merge in id order, so query results are byte-identical at any
/// BBA_THREADS.
///
/// Eviction is LRU over a logical tick counter that advances once per
/// insert/query call — never a wall clock — so the full store history is
/// a pure function of the call sequence. Ties (same tick) break toward
/// the lowest id.
///
/// Threading: externally synchronized. Producers (PoseTracker /
/// CooperationService) call from their serial merge phase; the store
/// itself spawns the only parallelism it needs.
///
/// Metrics: map.inserts, map.dedup_skips, map.evictions, map.queries,
/// map.hits, map.size (gauge), map.candidates (histogram of in-radius
/// candidates per query).
class KeyframeStore {
 public:
  explicit KeyframeStore(KeyframeStoreConfig cfg = {});

  [[nodiscard]] const KeyframeStoreConfig& config() const { return cfg_; }
  [[nodiscard]] std::size_t size() const { return frames_.size(); }
  [[nodiscard]] bool empty() const { return frames_.empty(); }
  /// Occupied tiles in the spatial index (diagnostic: keyframes / tiles
  /// is the mean bucket depth a query scans).
  [[nodiscard]] std::size_t tileCount() const { return tiles_.tileCount(); }

  /// Mean of a descriptor set's vectors (empty when the set is empty).
  [[nodiscard]] static std::vector<float> signatureOf(
      const DescriptorSet& descriptors);

  /// Offer a keyframe at `globalPose`. Skipped (dedupSkipped) when an
  /// existing keyframe lies within keyframeGapM — the skip touches that
  /// neighbor, since a revisited place is a live place. At capacity the
  /// least-recently-touched keyframe is evicted first.
  InsertResult insert(const Pose2& globalPose,
                      const DescriptorSet& descriptors,
                      CarPerceptionData payload = {});

  /// k-NN by signature distance among keyframes within queryRadiusM of
  /// `priorPosition`: at most maxCandidates matches, ordered by
  /// (signatureDistance, id) ascending. Returned matches are touched
  /// (LRU protection). Candidates without a comparable signature are
  /// dropped. An empty query descriptor set matches nothing.
  std::vector<QueryMatch> query(const DescriptorSet& queryDescriptors,
                                const Vec2& priorPosition);

  /// The stored keyframe, or nullptr after eviction / for unknown ids.
  /// The pointer stays valid until the keyframe is evicted (node-based
  /// storage).
  [[nodiscard]] const Keyframe* keyframe(std::uint64_t id) const;

 private:
  struct Entry {
    Keyframe kf;
    std::uint64_t lastTouched = 0;
  };

  void touch(Entry& e) { e.lastTouched = tick_; }
  void evictLeastRecent();

  KeyframeStoreConfig cfg_;
  TileGrid2 tiles_;
  /// id -> entry, ascending id (node-based: keyframe pointers stable).
  std::map<std::uint64_t, Entry> frames_;
  std::uint64_t nextId_ = 1;
  /// Logical clock: advances once per insert/query call.
  std::uint64_t tick_ = 0;
  /// Id removed by the most recent evictLeastRecent() call.
  std::uint64_t lastEvictedId_ = 0;
};

}  // namespace bba::map
