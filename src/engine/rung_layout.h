// A sample rung laid out by grid cell: the partition the paged catalog
// format (engine/catalog_store) stores on disk, computed once when a
// rung is published and shared by every snapshot that holds the rung.
// A tile then reads only the cells its viewport intersects, whether
// the rung is resident (RungLayout::Select) or mapped from a CAT2 file
// (CatalogStore::MaterializeCells); both find their cells through the
// one CellGrid::RowRanges, so they select the same entries.
#ifndef VAS_ENGINE_RUNG_LAYOUT_H_
#define VAS_ENGINE_RUNG_LAYOUT_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "data/dataset.h"
#include "geom/rect.h"
#include "sampling/sample_set.h"
#include "util/status.h"

namespace vas {

/// Default grid sizing: aim for this many entries per cell, with at
/// most kMaxGridDim cells along either axis. A cold tile loads every
/// entry of the cells it touches, so smaller cells cut what it reads:
/// vasbench's spill-mixed tiles draw about 1,500 points of a 125k
/// rung, from about 3,800 loaded entries on this target's 32x32 cells
/// and 12,200 on the 8x8 cells of a target of 2,048. Swept over 512,
/// 256, 128 and 64, targets 128 and 64 took about 7 % less tile CPU
/// than 512 and 256 and tied with each other; the coarser of the two
/// keeps a ladder read-back cheaper, since its permutation scatter
/// touches fewer cache lines.
constexpr size_t kDefaultEntriesPerCell = 128;
constexpr size_t kMaxGridDim = 64;

/// Side of the square cell grid a rung of `count` entries is laid out
/// on: about `target_entries_per_cell` entries per cell, clamped to
/// [1, kMaxGridDim].
uint64_t GridDimFor(size_t count, size_t target_entries_per_cell);

/// A row-major grid of cells over a rung's domain with the number of
/// entries in each. Entries are stored cell-major, so cell c holds
/// entries [cell_starts[c], cell_starts[c] + cell_counts[c]).
struct CellGrid {
  uint64_t grid_x = 1;  // cell grid dimensions
  uint64_t grid_y = 1;
  /// Bounding box of the rung's points; empty when the rung was laid
  /// out without a dataset (then the grid is 1×1).
  Rect domain;
  std::vector<uint64_t> cell_counts;  // row-major, grid_x*grid_y entries
  std::vector<uint64_t> cell_starts;  // exclusive prefix sums of counts

  /// The cell-major entry ranges [begin, end) of every cell `query`
  /// intersects, one per grid row it spans (a row's cells are
  /// consecutive). Empty when no point can lie inside `query` (it is
  /// empty, has a NaN bound, or misses a non-empty domain). Covers
  /// every entry whose point lies inside `query`.
  std::vector<std::pair<uint64_t, uint64_t>> RowRanges(
      const Rect& query) const;

  /// The cells RowRanges(query) covers, split in two. An interior
  /// cell's column and row lie strictly between those of the query's
  /// corners, as the partitioner's own cell coordinate computes them;
  /// that coordinate is monotone, so every point of an interior cell
  /// lies inside `query`. The other cells are the boundary, whose
  /// entries a count must check one by one.
  struct Split {
    uint64_t interior_entries = 0;
    /// Cell-major entry ranges [begin, end) of the boundary cells.
    std::vector<std::pair<uint64_t, uint64_t>> boundary;
  };
  Split SplitCells(const Rect& query) const;
};

/// One rung's cell layout. Immutable once built.
struct RungLayout : CellGrid {
  /// The rung position of each cell-major entry. LayOutRung keeps a
  /// cell's positions ascending (rung order); a layout read from a
  /// file holds them in the file's order, which earlier writers sorted
  /// by id.
  std::vector<uint32_t> positions;
  /// Dataset::ValueRange over the rung's ids, when finite with
  /// lo <= hi: the range a scatter render of the whole rung colors
  /// over.
  std::optional<std::pair<double, double>> value_range;

  /// The entries of `rung` (the rung this layout was built for) whose
  /// cells intersect `query`, in rung order, densities alongside —
  /// what CatalogStore::MaterializeCells returns for the same rung.
  SampleSet Select(const SampleSet& rung, const Rect& query) const;

  /// How many entries Select(rung, query) returns, without copying.
  size_t CountSelected(const Rect& query) const;

  /// How many of `rung`'s points lie inside `query` (Rect::Contains),
  /// where `dataset` is the dataset the rung was laid out against:
  /// interior cells count whole, and only boundary cells' entries are
  /// looked up and tested. Nothing is copied.
  size_t CountInside(const Dataset& dataset, const SampleSet& rung,
                     const Rect& query) const;
};

/// The value range LayOutRung records for `rung` laid out against
/// `dataset`: Dataset::ValueRange over its ids, when the dataset has
/// values and the range is finite with lo <= hi.
std::optional<std::pair<double, double>> RecordedValueRange(
    const Dataset& dataset, const SampleSet& rung);

/// Partitions `rung` into a grid over the bounding box of its points
/// in `dataset`, by a counting sort on cell that keeps rung order
/// within each cell. Without a dataset the grid is 1×1 with no domain
/// and no value range. InvalidArgument when the density column is not
/// parallel to the ids, an id is out of the dataset's range, or the
/// rung has 2^32 entries or more.
StatusOr<std::shared_ptr<const RungLayout>> LayOutRung(
    const Dataset* dataset, const SampleSet& rung,
    size_t target_entries_per_cell = kDefaultEntriesPerCell);

}  // namespace vas

#endif  // VAS_ENGINE_RUNG_LAYOUT_H_
