// In-memory dataset of plot tuples. Each tuple is a 2-D coordinate (the
// scatter-plot axes) plus one numeric value column (color encoding, e.g.
// altitude in the paper's Geolife map plots).
#ifndef VAS_DATA_DATASET_H_
#define VAS_DATA_DATASET_H_

#include <algorithm>
#include <cstddef>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "geom/point.h"
#include "geom/rect.h"
#include "util/status.h"

namespace vas {

/// Column-oriented container: points[i] plots at coordinates points[i]
/// with color value values[i]. `values` may be empty when the plot has no
/// color encoding; otherwise it must be parallel to `points`.
struct Dataset {
  std::string name;
  std::vector<Point> points;
  std::vector<double> values;

  size_t size() const { return points.size(); }
  bool empty() const { return points.empty(); }
  bool has_values() const { return !values.empty(); }

  /// Value of tuple i, or 0 when the dataset has no value column.
  double ValueAt(size_t i) const {
    return has_values() ? values[i] : 0.0;
  }

  /// Bounding box of all points. Served from the cache when one was
  /// recorded for the current point count (CacheBounds /
  /// SetCachedBounds); otherwise recomputed O(n) *without* caching, so
  /// concurrent const calls on a shared dataset stay race-free.
  Rect Bounds() const {
    if (bounds_cached_ && bounds_cache_rows_ == points.size()) {
      return bounds_cache_;
    }
    return Rect::BoundingBox(points);
  }

  /// Computes and stores the bounds for the current point count. Call
  /// after loading/mutating and before sharing the dataset across
  /// threads; later appends invalidate the cache via the row count.
  const Rect& CacheBounds() {
    bounds_cache_ = Rect::BoundingBox(points);
    bounds_cache_rows_ = points.size();
    bounds_cached_ = true;
    return bounds_cache_;
  }

  /// Records externally accumulated bounds — e.g. the running bounds a
  /// streaming DatasetReader gathered during its scan — avoiding an
  /// O(n) recompute. The caller asserts they cover all current points.
  void SetCachedBounds(const Rect& bounds) {
    bounds_cache_ = bounds;
    bounds_cache_rows_ = points.size();
    bounds_cached_ = true;
  }

  /// Appends one tuple. The value lands in the value column only while
  /// that column is parallel to `points` (always true when tuples are
  /// appended exclusively through Add); on a dataset that is already
  /// value-less the value is dropped instead of leaving the columns
  /// misaligned and Validate() broken.
  void Add(Point p, double value) {
    if (values.size() == points.size()) values.push_back(value);
    points.push_back(p);
  }

  /// Checks structural invariants (parallel arrays, finite coordinates).
  Status Validate() const;

  /// Returns the subset of tuples whose point lies in `rect`,
  /// preserving order — the relational "WHERE x BETWEEN … AND y
  /// BETWEEN …" a visualization tool issues when zooming.
  Dataset Filter(const Rect& rect) const;

  /// Materializes the tuples at `ids` (e.g. a sample) as a new Dataset.
  Dataset Gather(const std::vector<size_t>& ids) const;

  /// (min, max) of the value column over `ids`, folded in order with
  /// std::min / std::max from (+inf, -inf): NaN values are skipped, and
  /// an empty or all-NaN selection yields (+inf, -inf). The scatter
  /// renderer colors a sample over this fold and the CAT2 writer
  /// records it per rung, so the two agree bit for bit. Requires
  /// has_values().
  std::pair<double, double> ValueRange(const std::vector<size_t>& ids) const {
    double lo = std::numeric_limits<double>::infinity();
    double hi = -lo;
    for (size_t id : ids) {
      lo = std::min(lo, values[id]);
      hi = std::max(hi, values[id]);
    }
    return {lo, hi};
  }

 private:
  Rect bounds_cache_;
  size_t bounds_cache_rows_ = 0;
  bool bounds_cached_ = false;
};

}  // namespace vas

#endif  // VAS_DATA_DATASET_H_
