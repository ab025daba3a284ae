#include "service/tile_math.h"

#include <algorithm>

#include "util/logging.h"

namespace vas {

TileGrid::TileGrid(const Rect& world) : world_(world) {
  if (world_.empty()) world_ = Rect::Of(0.0, 0.0, 1.0, 1.0);
  // A degenerate axis (all points share one coordinate) is padded to a
  // unit extent centered on the data, so tiles keep positive area and
  // Viewport construction stays legal.
  if (world_.width() <= 0.0) {
    world_.min_x -= 0.5;
    world_.max_x += 0.5;
  }
  if (world_.height() <= 0.0) {
    world_.min_y -= 0.5;
    world_.max_y += 0.5;
  }
}

Rect TileGrid::TileBounds(const TileKey& key) const {
  VAS_CHECK_MSG(IsValid(key), "tile key out of range: " + key.ToString());
  double n = static_cast<double>(TilesPerAxis(key.z));
  // Interior edges interpolate; world edges are taken verbatim so the
  // extreme data points sit inside the boundary tiles exactly.
  double min_x = key.x == 0
                     ? world_.min_x
                     : world_.min_x + world_.width() * (key.x / n);
  double max_x = key.x + 1 == TilesPerAxis(key.z)
                     ? world_.max_x
                     : world_.min_x + world_.width() * ((key.x + 1) / n);
  double max_y = key.y == 0
                     ? world_.max_y
                     : world_.max_y - world_.height() * (key.y / n);
  double min_y = key.y + 1 == TilesPerAxis(key.z)
                     ? world_.min_y
                     : world_.max_y - world_.height() * ((key.y + 1) / n);
  return Rect::Of(min_x, min_y, max_x, max_y);
}

TileKey TileGrid::TileAt(uint32_t z, Point p) const {
  VAS_CHECK_MSG(z <= kMaxZoom, "zoom out of range");
  uint32_t n = TilesPerAxis(z);
  double fx = (p.x - world_.min_x) / world_.width();
  double fy = (world_.max_y - p.y) / world_.height();  // 0 at the north edge
  fx = std::min(1.0, std::max(0.0, fx));
  fy = std::min(1.0, std::max(0.0, fy));
  auto clamp_index = [n](double f) {
    auto i = static_cast<uint32_t>(f * static_cast<double>(n));
    return std::min(i, n - 1);
  };
  return TileKey{z, clamp_index(fx), clamp_index(fy)};
}

}  // namespace vas
