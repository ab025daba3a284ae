// Hashed grid of square cells over the whole plane. The locality-
// truncated Expand/Shrink step (core/expand_shrink.h, paper §IV-B) keeps
// the sample here: a candidate reads the slots within the kernel's
// cutoff radius, and a replacement is one Remove and one Insert. Cells
// are hashed on their integer coordinates, so the grid needs no bounds;
// IncrementalVas's stream has none.
#ifndef VAS_INDEX_HASHED_GRID_H_
#define VAS_INDEX_HASHED_GRID_H_

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "geom/point.h"
#include "util/logging.h"

namespace vas {

/// Points with size_t payloads, in cells `cell_width` wide. Payloads
/// need not be unique; Remove() erases one (point, payload) pair. Not
/// thread-safe: each owner keeps its own grid.
class HashedGrid {
 public:
  explicit HashedGrid(double cell_width) : width_(cell_width) {
    VAS_CHECK_MSG(width_ > 0.0 && std::isfinite(width_),
                  "cell width must be positive and finite");
  }

  void Insert(Point p, size_t payload) {
    cells_[KeyOf(p)].push_back(Entry{p, payload});
  }

  /// Removes one entry equal to (p, payload); the cell's last entry
  /// takes its place, and an emptied cell is released. Returns false if
  /// there is none.
  bool Remove(Point p, size_t payload) {
    auto it = cells_.find(KeyOf(p));
    if (it == cells_.end()) return false;
    std::vector<Entry>& cell = it->second;
    for (Entry& e : cell) {
      if (e.payload != payload || !(e.point == p)) continue;
      e = cell.back();
      cell.pop_back();
      if (cell.empty()) cells_.erase(it);
      return true;
    }
    return false;
  }

  /// Calls `visit(payload, point)` for every entry with
  /// SquaredDistance(point, q) <= radius². Cells are read in (y, x)
  /// order, each in storage order, so the visit order follows from the
  /// operations applied and never from the hash table. Reads the
  /// (2·radius / cell_width + 2)² cells around q.
  template <typename Visit>
  void ForEachWithin(Point q, double radius, Visit&& visit) const {
    VAS_CHECK(radius >= 0.0 && std::isfinite(radius));
    // Nothing lies within a finite radius of a non-finite point.
    if (!std::isfinite(q.x) || !std::isfinite(q.y)) return;
    const double r2 = radius * radius;
    // Reach past q ± radius by more than the rounding of that sum and of
    // the distance test, so every entry the test accepts is read.
    const double reach =
        radius + (std::abs(q.x) + std::abs(q.y) + radius) * 0x1p-48;
    const int64_t x0 = CellIndex(q.x - reach), x1 = CellIndex(q.x + reach);
    const int64_t y0 = CellIndex(q.y - reach), y1 = CellIndex(q.y + reach);
    for (int64_t cy = y0; cy <= y1; ++cy) {
      for (int64_t cx = x0; cx <= x1; ++cx) {
        auto it = cells_.find(CellKey{cx, cy});
        if (it == cells_.end()) continue;
        for (const Entry& e : it->second) {
          if (SquaredDistance(e.point, q) <= r2) visit(e.payload, e.point);
        }
      }
    }
  }

  /// Cells holding at least one entry.
  size_t cell_count() const { return cells_.size(); }

 private:
  struct Entry {
    Point point;
    size_t payload;
  };
  struct CellKey {
    int64_t x, y;
    bool operator==(const CellKey& o) const { return x == o.x && y == o.y; }
  };
  struct CellKeyHash {
    size_t operator()(const CellKey& k) const {
      uint64_t h = static_cast<uint64_t>(k.x) * 0x9e3779b97f4a7c15ull ^
                   static_cast<uint64_t>(k.y);
      h = (h ^ (h >> 31)) * 0xbf58476d1ce4e5b9ull;
      return static_cast<size_t>(h ^ (h >> 29));
    }
  };

  // Clamped in double before the cast, as UniformGrid::ClampCell does:
  // an out-of-range float-to-integer cast is undefined. The limit keeps
  // x1 - x0 + 1 in range; NaN maps to the low limit.
  int64_t CellIndex(double v) const {
    constexpr double kLimit = 0x1p60;
    const double f = std::floor(v / width_);
    if (!(f > -kLimit)) return -static_cast<int64_t>(kLimit);
    if (f > kLimit) return static_cast<int64_t>(kLimit);
    return static_cast<int64_t>(f);
  }
  CellKey KeyOf(Point p) const { return {CellIndex(p.x), CellIndex(p.y)}; }

  double width_;
  std::unordered_map<CellKey, std::vector<Entry>, CellKeyHash> cells_;
};

}  // namespace vas

#endif  // VAS_INDEX_HASHED_GRID_H_
