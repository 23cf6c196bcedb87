#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "geom/vec.hpp"

namespace bba {

/// Uniform 2-D tile index over (id, position) entries: the approximate-NN
/// front end of the keyframe map service (src/map). Positions hash to
/// square tiles of edge `tileSize`; a radius query gathers every id whose
/// tile intersects the query square — a superset of the true radius set
/// that the caller filters exactly (the store keeps the positions).
///
/// Determinism contract: tiles are held in a key-ordered std::map and ids
/// within one tile stay sorted ascending, so candidate lists are a pure
/// function of the inserted set — independent of insertion order, thread
/// count, or pointer values. Designed so one grid can later shard by tile
/// key range across processes (the key is a pure function of position).
class TileGrid2 {
 public:
  explicit TileGrid2(double tileSize);

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::size_t tileCount() const { return tiles_.size(); }

  /// Packed tile key of a position (row-major over tile coordinates,
  /// bias-shifted so key order == lexicographic (tx, ty) order).
  [[nodiscard]] std::uint64_t tileKey(const Vec2& p) const;

  /// Register `id` at `p`. Ids are caller-unique; inserting the same id
  /// twice (even at the same position) is a caller bug.
  void insert(std::uint64_t id, const Vec2& p);

  /// Remove `id`, previously inserted at `p` (the same position must be
  /// passed back — the grid stores no positions of its own).
  void remove(std::uint64_t id, const Vec2& p);

  /// Every id whose tile intersects the axis-aligned square of half-edge
  /// `radius` centered on `p`, ascending id order. A superset of the ids
  /// within Euclidean `radius`; the caller applies the exact distance
  /// filter.
  [[nodiscard]] std::vector<std::uint64_t> candidatesInRadius(
      const Vec2& p, double radius) const;

 private:
  double tileSize_;
  std::size_t size_ = 0;
  /// tile key -> ids in that tile, ascending.
  std::map<std::uint64_t, std::vector<std::uint64_t>> tiles_;
};

}  // namespace bba
