// Slippy-map style tile addressing over a table's world bounds. At zoom
// z the dataset's bounding rectangle is divided into 2^z x 2^z tiles;
// tile (z, x, y) counts columns from the west edge and rows from the
// north edge, exactly like web map tiles — so any viewport a client
// explores decomposes into a small set of independently renderable,
// independently cacheable tiles.
#ifndef VAS_SERVICE_TILE_MATH_H_
#define VAS_SERVICE_TILE_MATH_H_

#include <cstdint>
#include <string>

#include "geom/point.h"
#include "geom/rect.h"

namespace vas {

/// Address of one tile: zoom level plus column (x, from the west edge)
/// and row (y, from the north edge, increasing southward).
struct TileKey {
  uint32_t z = 0;
  uint32_t x = 0;
  uint32_t y = 0;

  /// "z/x/y" — the path form used in tile URLs and cache keys.
  std::string ToString() const {
    return std::to_string(z) + "/" + std::to_string(x) + "/" +
           std::to_string(y);
  }

  friend bool operator==(const TileKey& a, const TileKey& b) {
    return a.z == b.z && a.x == b.x && a.y == b.y;
  }
  friend bool operator<(const TileKey& a, const TileKey& b) {
    if (a.z != b.z) return a.z < b.z;
    if (a.y != b.y) return a.y < b.y;
    return a.x < b.x;
  }
};

/// Maps tile keys to world rectangles over one table's bounds and back.
/// The grid normalizes degenerate bounds (a single point, a horizontal
/// or vertical line, or no points at all) to a rectangle with positive
/// area, so every tile always has renderable extent.
class TileGrid {
 public:
  /// Deepest zoom served; 2^24 tiles per axis is far beyond any pixel
  /// grid a client can show, and keeps every tile count in 32 bits.
  static constexpr uint32_t kMaxZoom = 24;

  explicit TileGrid(const Rect& world);

  /// The (normalized) world rectangle tiles subdivide.
  const Rect& world() const { return world_; }

  static uint32_t TilesPerAxis(uint32_t z) { return 1u << z; }

  /// Whether `key` addresses a tile that exists: z within kMaxZoom and
  /// x/y inside the 2^z x 2^z grid. Grid-independent.
  static bool IsValid(const TileKey& key) {
    return key.z <= kMaxZoom && key.x < TilesPerAxis(key.z) &&
           key.y < TilesPerAxis(key.z);
  }

  /// World rectangle of `key`. Edge tiles snap exactly to the world
  /// bounds, so points lying on the dataset's extreme coordinates fall
  /// inside the boundary tiles instead of being lost to rounding.
  Rect TileBounds(const TileKey& key) const;

  /// The tile containing `p` at zoom `z`; points outside the world are
  /// clamped into the border tiles, so every point maps to one tile.
  TileKey TileAt(uint32_t z, Point p) const;

 private:
  Rect world_;
};

}  // namespace vas

#endif  // VAS_SERVICE_TILE_MATH_H_
