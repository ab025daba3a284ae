// Uniform grid over a rectangular domain. Serves three roles:
//  * the strata of StratifiedSampler (the paper stratifies Geolife into a
//    316x316 grid / 100 bins);
//  * fast point-in-cell counting for density questions in the simulated
//    user study;
//  * a density raster for dataset diagnostics.
#ifndef VAS_INDEX_UNIFORM_GRID_H_
#define VAS_INDEX_UNIFORM_GRID_H_

#include <cstddef>
#include <vector>

#include "geom/point.h"
#include "geom/rect.h"

namespace vas {

/// Fixed nx-by-ny grid over `domain`. Points outside the domain are
/// clamped into the border cells, so every point maps to exactly one cell.
class UniformGrid {
 public:
  UniformGrid(const Rect& domain, size_t nx, size_t ny);

  size_t nx() const { return nx_; }
  size_t ny() const { return ny_; }
  size_t num_cells() const { return nx_ * ny_; }
  const Rect& domain() const { return domain_; }

  /// Flat cell id of `p` in [0, num_cells()). Coordinates outside the
  /// domain, ±inf included, clamp to the border cells; a NaN coordinate
  /// maps to cell 0 on its axis.
  size_t CellOf(Point p) const {
    double fx = (p.x - domain_.min_x) / width_;
    double fy = (p.y - domain_.min_y) / height_;
    return ClampCell(fy, ny_) * nx_ + ClampCell(fx, nx_);
  }

  /// Geometric bounds of cell `cell`.
  Rect CellBounds(size_t cell) const;

  /// Builds the id lists: cell -> indices of `points` falling in it.
  void Assign(const std::vector<Point>& points);

  /// After Assign(): point ids in `cell`.
  const std::vector<size_t>& PointsInCell(size_t cell) const;

  /// After Assign(): number of points in `cell`.
  size_t CountInCell(size_t cell) const;

  /// After Assign(): exact number of `points` inside `rect`, answered
  /// from cell aggregates — whole cells covered by `rect` contribute
  /// their count, only boundary cells scan individual points. `points`
  /// must be the vector Assign() indexed. O(cells in range + boundary
  /// points) instead of O(n).
  size_t CountInRect(const Rect& rect,
                     const std::vector<Point>& points) const;

  /// After Assign(): number of non-empty cells.
  size_t NumOccupiedCells() const;

  /// After Assign(): cell id with the most points (ties: lowest id).
  size_t DensestCell() const;

 private:
  // Clamped in double before the cast: a coordinate far outside the
  // domain (or ±inf, or NaN) would overflow an integer cast.
  static size_t ClampCell(double f, size_t n) {
    double scaled = f * static_cast<double>(n);
    if (!(scaled > 0.0)) return 0;
    if (scaled >= static_cast<double>(n)) return n - 1;
    return static_cast<size_t>(scaled);
  }

  Rect domain_;
  size_t nx_;
  size_t ny_;
  // The domain's width and height, at least 1e-300 so CellOf never
  // divides by zero.
  double width_;
  double height_;
  std::vector<std::vector<size_t>> cells_;
};

}  // namespace vas

#endif  // VAS_INDEX_UNIFORM_GRID_H_
