#include "engine/rung_layout.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <string>

namespace vas {

namespace {

/// Clamped grid coordinate of value `v` on the axis [lo, hi] split into
/// `dim` cells. Monotone non-decreasing in `v`, and the partitioner and
/// RowRanges share this one function, so the cell range computed for a
/// query interval is guaranteed to cover every point inside it.
size_t CellCoord(double v, double lo, double hi, uint64_t dim) {
  if (dim <= 1 || !(hi > lo)) return 0;
  double scaled = (v - lo) / (hi - lo) * static_cast<double>(dim);
  if (!(scaled > 0.0)) return 0;
  if (scaled >= static_cast<double>(dim)) return static_cast<size_t>(dim - 1);
  return static_cast<size_t>(scaled);
}

/// The cell columns [cx0, cx1] and rows [cy0, cy1] a query spans.
struct CellSpan {
  size_t cx0 = 0;
  size_t cx1 = 0;
  size_t cy0 = 0;
  size_t cy1 = 0;
};

/// The cells of `grid` that `query` spans, or nullopt when no point
/// can lie inside it. Every point of the rung lies inside its domain,
/// so a query that misses the domain selects nothing. (A rung laid out
/// without a dataset has an empty domain and one cell, which every
/// other query selects.)
std::optional<CellSpan> SpanOf(const CellGrid& grid, const Rect& query) {
  // Also false for a NaN bound, which Rect::Contains never accepts.
  const bool can_hold_points =
      query.min_x <= query.max_x && query.min_y <= query.max_y;
  if (!can_hold_points || grid.cell_counts.empty()) return std::nullopt;
  const Rect& domain = grid.domain;
  if (!domain.empty() && !query.Intersects(domain)) return std::nullopt;
  CellSpan span;
  span.cx0 = CellCoord(query.min_x, domain.min_x, domain.max_x, grid.grid_x);
  span.cx1 = CellCoord(query.max_x, domain.min_x, domain.max_x, grid.grid_x);
  span.cy0 = CellCoord(query.min_y, domain.min_y, domain.max_y, grid.grid_y);
  span.cy1 = CellCoord(query.max_y, domain.min_y, domain.max_y, grid.grid_y);
  return span;
}

}  // namespace

uint64_t GridDimFor(size_t count, size_t target_entries_per_cell) {
  size_t per_cell = std::max<size_t>(1, target_entries_per_cell);
  double cells =
      static_cast<double>(count) / static_cast<double>(per_cell);
  auto dim = static_cast<uint64_t>(std::ceil(std::sqrt(std::max(cells, 1.0))));
  return std::min<uint64_t>(dim, kMaxGridDim);
}

std::vector<std::pair<uint64_t, uint64_t>> CellGrid::RowRanges(
    const Rect& query) const {
  std::vector<std::pair<uint64_t, uint64_t>> ranges;
  const auto span = SpanOf(*this, query);
  if (!span) return ranges;
  ranges.reserve(span->cy1 - span->cy0 + 1);
  for (size_t cy = span->cy0; cy <= span->cy1; ++cy) {
    const size_t last = cy * grid_x + span->cx1;
    ranges.emplace_back(cell_starts[cy * grid_x + span->cx0],
                        cell_starts[last] + cell_counts[last]);
  }
  return ranges;
}

CellGrid::Split CellGrid::SplitCells(const Rect& query) const {
  Split split;
  const auto span = SpanOf(*this, query);
  if (!span) return split;
  const auto [cx0, cx1, cy0, cy1] = *span;
  for (size_t cy = cy0; cy <= cy1; ++cy) {
    const size_t first = cy * grid_x + cx0;
    const size_t last = cy * grid_x + cx1;
    const uint64_t first_end = cell_starts[first] + cell_counts[first];
    const uint64_t last_end = cell_starts[last] + cell_counts[last];
    if (cy == cy0 || cy == cy1 || cx1 - cx0 < 2) {
      // The row's cells are consecutive: one range holds them all.
      split.boundary.emplace_back(cell_starts[first], last_end);
      continue;
    }
    split.boundary.emplace_back(cell_starts[first], first_end);
    split.interior_entries += cell_starts[last] - first_end;
    split.boundary.emplace_back(cell_starts[last], last_end);
  }
  return split;
}

SampleSet RungLayout::Select(const SampleSet& rung, const Rect& query) const {
  SampleSet out;
  out.method = rung.method;
  const auto rows = RowRanges(query);
  size_t total = 0;
  for (const auto& [begin, end] : rows) {
    total += static_cast<size_t>(end - begin);
  }
  if (total == 0) return out;
  // Back to rung order without sorting: mark the selected positions in
  // a bitmap over the rung, then walk its set bits in order.
  std::vector<uint64_t> marks((rung.size() + 63) / 64, 0);
  for (const auto& [begin, end] : rows) {
    for (uint64_t e = begin; e < end; ++e) {
      const uint32_t p = positions[e];
      marks[p / 64] |= uint64_t{1} << (p % 64);
    }
  }
  out.ids.reserve(total);
  if (rung.has_density()) out.density.reserve(total);
  for (size_t w = 0; w < marks.size(); ++w) {
    for (uint64_t bits = marks[w]; bits != 0; bits &= bits - 1) {
      const size_t p = w * 64 + static_cast<size_t>(__builtin_ctzll(bits));
      out.ids.push_back(rung.ids[p]);
      if (rung.has_density()) out.density.push_back(rung.density[p]);
    }
  }
  return out;
}

size_t RungLayout::CountSelected(const Rect& query) const {
  size_t total = 0;
  for (const auto& [begin, end] : RowRanges(query)) {
    total += static_cast<size_t>(end - begin);
  }
  return total;
}

size_t RungLayout::CountInside(const Dataset& dataset, const SampleSet& rung,
                               const Rect& query) const {
  const Split split = SplitCells(query);
  auto count = static_cast<size_t>(split.interior_entries);
  for (const auto& [begin, end] : split.boundary) {
    for (uint64_t e = begin; e < end; ++e) {
      count += query.Contains(dataset.points[rung.ids[positions[e]]]) ? 1 : 0;
    }
  }
  return count;
}

std::optional<std::pair<double, double>> RecordedValueRange(
    const Dataset& dataset, const SampleSet& rung) {
  if (!dataset.has_values()) return std::nullopt;
  // Exactly the fold a scatter render of the whole rung colors over.
  const auto [lo, hi] = dataset.ValueRange(rung.ids);
  if (std::isfinite(lo) && std::isfinite(hi) && lo <= hi) {
    return std::make_pair(lo, hi);
  }
  return std::nullopt;
}

StatusOr<std::shared_ptr<const RungLayout>> LayOutRung(
    const Dataset* dataset, const SampleSet& rung,
    size_t target_entries_per_cell) {
  const size_t n = rung.size();
  if (rung.has_density() && rung.density.size() != n) {
    return Status::InvalidArgument("rung density column not parallel to ids");
  }
  if (n > std::numeric_limits<uint32_t>::max()) {
    return Status::InvalidArgument(
        "rung of " + std::to_string(n) +
        " entries exceeds the cell layout's 2^32-entry limit");
  }
  auto layout = std::make_shared<RungLayout>();
  if (dataset != nullptr && n > 0) {
    for (size_t id : rung.ids) {
      if (id >= dataset->size()) {
        return Status::InvalidArgument(
            "sample id out of range of the partitioning dataset");
      }
      layout->domain.Extend(dataset->points[id]);
    }
    layout->grid_x = GridDimFor(n, target_entries_per_cell);
    layout->grid_y = layout->grid_x;
  }
  if (dataset != nullptr) {
    layout->value_range = RecordedValueRange(*dataset, rung);
  }

  // Counting sort by cell: count each cell's entries, take exclusive
  // prefix sums as the cells' starts, then place entries in rung order,
  // which keeps rung order within each cell.
  const uint64_t cells = layout->grid_x * layout->grid_y;
  layout->cell_counts.assign(cells, 0);
  layout->positions.resize(n);
  if (cells == 1) {
    layout->cell_counts[0] = n;
    layout->cell_starts.assign(1, 0);
    std::iota(layout->positions.begin(), layout->positions.end(), 0u);
    return std::shared_ptr<const RungLayout>(std::move(layout));
  }
  const Rect& domain = layout->domain;
  const uint64_t gx = layout->grid_x;
  const uint64_t gy = layout->grid_y;
  std::vector<uint32_t> cell_of(n);
  for (size_t i = 0; i < n; ++i) {
    const Point p = dataset->points[rung.ids[i]];
    const size_t cx = CellCoord(p.x, domain.min_x, domain.max_x, gx);
    const size_t cy = CellCoord(p.y, domain.min_y, domain.max_y, gy);
    cell_of[i] = static_cast<uint32_t>(cy * gx + cx);
    ++layout->cell_counts[cell_of[i]];
  }
  layout->cell_starts.resize(cells);
  std::exclusive_scan(layout->cell_counts.begin(), layout->cell_counts.end(),
                      layout->cell_starts.begin(), uint64_t{0});
  std::vector<uint64_t> next = layout->cell_starts;
  for (size_t i = 0; i < n; ++i) {
    layout->positions[next[cell_of[i]]++] = static_cast<uint32_t>(i);
  }
  return std::shared_ptr<const RungLayout>(std::move(layout));
}

}  // namespace vas
