// Axis-aligned rectangles: dataset extents, stratification cells, and
// plot viewports all use Rect.
#ifndef VAS_GEOM_RECT_H_
#define VAS_GEOM_RECT_H_

#include <algorithm>
#include <limits>
#include <vector>

#include "geom/point.h"

namespace vas {

/// Closed axis-aligned rectangle [min_x, max_x] × [min_y, max_y].
struct Rect {
  double min_x = std::numeric_limits<double>::infinity();
  double min_y = std::numeric_limits<double>::infinity();
  double max_x = -std::numeric_limits<double>::infinity();
  double max_y = -std::numeric_limits<double>::infinity();

  /// The default rectangle is empty: any Extend() makes it valid.
  bool empty() const { return min_x > max_x || min_y > max_y; }

  double width() const { return empty() ? 0.0 : max_x - min_x; }
  double height() const { return empty() ? 0.0 : max_y - min_y; }
  Point Center() const {
    return {(min_x + max_x) / 2.0, (min_y + max_y) / 2.0};
  }

  bool Contains(Point p) const {
    return p.x >= min_x && p.x <= max_x && p.y >= min_y && p.y <= max_y;
  }

  bool Intersects(const Rect& o) const {
    return !(o.min_x > max_x || o.max_x < min_x || o.min_y > max_y ||
             o.max_y < min_y);
  }

  /// Grows this rectangle to cover `p`.
  void Extend(Point p) {
    min_x = std::min(min_x, p.x);
    min_y = std::min(min_y, p.y);
    max_x = std::max(max_x, p.x);
    max_y = std::max(max_y, p.y);
  }

  /// Rectangle inflated by `margin` on every side.
  Rect Inflated(double margin) const {
    return Rect{min_x - margin, min_y - margin, max_x + margin,
                max_y + margin};
  }

  friend bool operator==(const Rect& a, const Rect& b) {
    return a.min_x == b.min_x && a.min_y == b.min_y && a.max_x == b.max_x &&
           a.max_y == b.max_y;
  }

  /// Constructs from explicit bounds (asserts nothing; callers may build
  /// empty rects intentionally).
  static Rect Of(double min_x, double min_y, double max_x, double max_y) {
    Rect r;
    r.min_x = min_x;
    r.min_y = min_y;
    r.max_x = max_x;
    r.max_y = max_y;
    return r;
  }

  /// Bounding box of a point set (empty rect for an empty set).
  static Rect BoundingBox(const std::vector<Point>& pts) {
    Rect r;
    for (Point p : pts) r.Extend(p);
    return r;
  }
};

}  // namespace vas

#endif  // VAS_GEOM_RECT_H_
