#include "index/uniform_grid.h"

#include <algorithm>

#include "util/logging.h"

namespace vas {

UniformGrid::UniformGrid(const Rect& domain, size_t nx, size_t ny)
    : domain_(domain),
      nx_(nx),
      ny_(ny),
      width_(std::max(domain.width(), 1e-300)),
      height_(std::max(domain.height(), 1e-300)) {
  VAS_CHECK_MSG(nx_ > 0 && ny_ > 0, "grid needs at least one cell per axis");
  VAS_CHECK_MSG(!domain.empty(), "grid domain must be non-empty");
}

Rect UniformGrid::CellBounds(size_t cell) const {
  VAS_CHECK(cell < num_cells());
  size_t cy = cell / nx_;
  size_t cx = cell % nx_;
  double w = domain_.width() / static_cast<double>(nx_);
  double h = domain_.height() / static_cast<double>(ny_);
  return Rect::Of(domain_.min_x + static_cast<double>(cx) * w,
                  domain_.min_y + static_cast<double>(cy) * h,
                  domain_.min_x + static_cast<double>(cx + 1) * w,
                  domain_.min_y + static_cast<double>(cy + 1) * h);
}

void UniformGrid::Assign(const std::vector<Point>& points) {
  cells_.assign(num_cells(), {});
  for (size_t i = 0; i < points.size(); ++i) {
    cells_[CellOf(points[i])].push_back(i);
  }
}

const std::vector<size_t>& UniformGrid::PointsInCell(size_t cell) const {
  VAS_CHECK_MSG(!cells_.empty(), "Assign() not called");
  VAS_CHECK(cell < cells_.size());
  return cells_[cell];
}

size_t UniformGrid::CountInCell(size_t cell) const {
  return PointsInCell(cell).size();
}

size_t UniformGrid::CountInRect(const Rect& rect,
                                const std::vector<Point>& points) const {
  VAS_CHECK_MSG(!cells_.empty(), "Assign() not called");
  if (rect.empty()) return 0;
  // CellOf clamps, so a rect reaching past the domain resolves to the
  // border cells and the per-point checks below keep the count exact.
  size_t lo = CellOf({rect.min_x, rect.min_y});
  size_t hi = CellOf({rect.max_x, rect.max_y});
  size_t ix0 = lo % nx_, iy0 = lo / nx_;
  size_t ix1 = hi % nx_, iy1 = hi / nx_;
  size_t count = 0;
  for (size_t iy = iy0; iy <= iy1; ++iy) {
    for (size_t ix = ix0; ix <= ix1; ++ix) {
      size_t cell = iy * nx_ + ix;
      // Border cells also hold points clamped in from outside the
      // domain, so their geometric bounds say nothing about their
      // contents — always scan them point by point.
      bool border = ix == 0 || ix + 1 == nx_ || iy == 0 || iy + 1 == ny_;
      Rect cb = CellBounds(cell);
      bool covered = !border && rect.min_x <= cb.min_x &&
                     cb.max_x <= rect.max_x && rect.min_y <= cb.min_y &&
                     cb.max_y <= rect.max_y;
      if (covered) {
        count += cells_[cell].size();
      } else {
        for (size_t id : cells_[cell]) {
          if (rect.Contains(points[id])) ++count;
        }
      }
    }
  }
  return count;
}

size_t UniformGrid::NumOccupiedCells() const {
  VAS_CHECK_MSG(!cells_.empty(), "Assign() not called");
  size_t n = 0;
  for (const auto& c : cells_) {
    if (!c.empty()) ++n;
  }
  return n;
}

size_t UniformGrid::DensestCell() const {
  VAS_CHECK_MSG(!cells_.empty(), "Assign() not called");
  size_t best = 0;
  for (size_t i = 1; i < cells_.size(); ++i) {
    if (cells_[i].size() > cells_[best].size()) best = i;
  }
  return best;
}

}  // namespace vas
