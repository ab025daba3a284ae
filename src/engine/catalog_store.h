// Paged, mmap-able catalog storage (format v2, "VAS\0CAT2"), the one
// on-disk catalog format. It lays the ladder out LevelDB-style as
// fixed-size CRC-checked pages plus a per-rung grid-cell index, so a
// reader can fault in only the pages whose cells intersect a viewport:
//
//   page 0 .. page_count-1, each `page_size` bytes:
//     u32 crc32(payload)   u32 payload_len   payload   zero padding
//   footer (48 bytes at end of file):
//     u64 footer magic, u64 page_size, u64 page_count,
//     u64 meta_first_page, u64 meta_page_count, u64 crc32(first 40 B)
//   (file_size must equal page_count * page_size + 48)
//
// Page 0 is the superblock; its payload starts with the catalog magic,
// which therefore sits at file offset 8 (offset 0 is the page CRC/len
// header). Pages 1..data_page_count hold a flat stream of u64 "slots"
// ((page_size-8)/8 per page); the remaining pages hold the rung
// metadata stream:
//
//   per rung: method (length-prefixed), u64 count, u64 flags,
//     u64 max_id, u64 grid_x, u64 grid_y, 4 × u64 domain rect (double
//     bit patterns), u64 slot_base, u64 perm_base,
//     [u64 value_lo, u64 value_hi (double bit patterns)],
//     grid_x*grid_y × u64 per-cell entry counts (row-major)
//
// Flags bit 0 marks a density column; bit 1 marks the rung's value
// range, which then follows perm_base: the std::min/std::max fold of
// the dataset's values over the rung's ids in original order
// (Dataset::ValueRange), recorded when finite with lo <= hi. It is the
// range a scatter render of the whole rung colors over. Files written
// before the range existed have bit 1 clear; other bits are invalid.
//
// A rung's entries are grouped by grid cell (row-major over the rung's
// domain bounding box) and kept in rung order within each cell — the
// rung's RungLayout (engine/rung_layout), the same partition a resident
// rung is served from — so densities ride alongside ids: slots
// [slot_base, +n) are the cell-major ids, [slot_base+n, +n) the
// parallel densities (when flagged), and [perm_base, +n) the original
// position of each entry. Full materialization applies that
// permutation to reproduce the rung byte-identically to what was
// written; partial loads read the positions of their cell range and
// return its entries in rung order. No reader depends on the order
// within a cell: files from earlier writers, which sorted each cell by
// id, load the same way. Page CRCs are verified lazily, once, on first
// touch; the verified set doubles as the store's touched-page
// accounting.
#ifndef VAS_ENGINE_CATALOG_STORE_H_
#define VAS_ENGINE_CATALOG_STORE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "data/dataset.h"
#include "engine/rung_layout.h"
#include "engine/sample_catalog.h"
#include "geom/rect.h"
#include "sampling/sample_set.h"
#include "util/status.h"

namespace vas {

/// The superblock magic of the paged format this header describes.
constexpr uint64_t kCatalogMagicV2 = 0x5641530043415432ULL;  // "VAS\0CAT2"

struct CatalogWriteOptions {
  /// Source dataset of the catalog's sample ids. When set, each rung is
  /// partitioned into a grid over the bounding box of its sampled
  /// points, enabling cell-range partial loads. When null the writer
  /// falls back to a 1×1 grid (still a valid CAT2 file; partial loads
  /// degrade to full-rung loads).
  const Dataset* dataset = nullptr;
  /// Page size in bytes. Must be a multiple of 8 in [512, 1 MiB].
  size_t page_size = 4096;
  /// Grid sizing target: aim for roughly this many entries per cell
  /// (at most kMaxGridDim cells along either axis).
  size_t target_entries_per_cell = kDefaultEntriesPerCell;
};

/// Writes every rung of `catalog` to `path` in the CAT2 paged format,
/// replacing any file there. Each rung is laid out by LayOutRung, the
/// partitioner that lays out published rungs; a rung whose published
/// layout (SampleCatalog::layout) is what LayOutRung would compute over
/// `options.dataset` at `options.target_entries_per_cell` is written
/// from that layout, in the same bytes. The file is written to
/// `path + ".tmp"`, synced, and renamed over `path`, and the directory
/// is synced after the rename: a failed write, a process crash or an
/// OS crash leaves either the previous file or the complete new one.
Status WriteCatalogPaged(const SampleCatalog& catalog, const std::string& path,
                         const CatalogWriteOptions& options = {});

/// A read-only mmap of one CAT2 file. Open() validates the footer,
/// superblock, and rung metadata eagerly (bounded, small); data pages
/// are CRC-verified lazily on first touch, so opening a store costs
/// O(metadata), not O(file). Thread-safe: all const methods may be
/// called concurrently.
class CatalogStore {
 public:
  /// Everything known about one rung without touching its data pages:
  /// its cell grid, and where its slots are.
  struct Rung : CellGrid {
    std::string method;
    uint64_t count = 0;
    bool has_density = false;
    uint64_t max_id = 0;     // largest sample id in the rung
    uint64_t slot_base = 0;  // first slot of the cell-major id array
    uint64_t perm_base = 0;  // first slot of the original-order permutation
    /// The recorded value range (see the format comment above).
    bool has_value_range = false;
    double value_lo = 0.0;
    double value_hi = 0.0;
    uint64_t occupied_cells = 0;
    uint64_t max_cell_entries = 0;
  };

  /// Maps `path`. IoError when it cannot be opened or mapped, or a
  /// checksum fails; InvalidArgument when it is not a CAT2 catalog or
  /// its structure is invalid.
  static StatusOr<std::shared_ptr<const CatalogStore>> Open(
      const std::string& path);

  ~CatalogStore();
  CatalogStore(const CatalogStore&) = delete;
  CatalogStore& operator=(const CatalogStore&) = delete;

  const std::string& path() const { return path_; }
  size_t page_size() const { return page_size_; }
  size_t page_count() const { return page_count_; }
  /// Pages holding slot data (pages 1..data_page_count); the remainder
  /// after the superblock hold rung metadata.
  size_t data_page_count() const { return data_page_count_; }
  size_t file_bytes() const { return file_bytes_; }
  size_t rung_count() const { return rungs_.size(); }
  const Rung& rung(size_t k) const { return rungs_[k]; }

  /// Pages CRC-verified so far — exactly the pages whose bytes this
  /// store has faulted in. `touched_bytes` is the resident-byte
  /// accounting CatalogManager reports for mapped catalogs.
  size_t touched_pages() const {
    return pages_touched_.load(std::memory_order_relaxed);
  }
  size_t touched_bytes() const { return touched_pages() * page_size_; }

  /// Reconstructs rung `k` exactly as written (original entry order via
  /// the stored permutation). Ids are range-checked against
  /// `dataset_size` unless it is 0. When `touched_bytes` is set it
  /// receives the bytes of the pages this call faulted in first — pages
  /// another call verified earlier (or concurrently, and first) are not
  /// counted, so concurrent calls' counts sum to the touched_bytes()
  /// delta.
  StatusOr<SampleSet> MaterializeRung(size_t k, size_t dataset_size,
                                      size_t* touched_bytes = nullptr) const;

  /// Materializes only the entries of rung `k` whose grid cells
  /// intersect `query` — a superset of the entries inside `query`, in
  /// rung order (MaterializeRung's order with the other cells' entries
  /// left out), touching only the data pages that hold those cell
  /// ranges' ids, densities and positions. Ids are range-checked
  /// against `dataset_size` unless it is 0, and positions against the
  /// rung size. `touched_bytes` as for MaterializeRung.
  StatusOr<SampleSet> MaterializeCells(size_t k, const Rect& query,
                                       size_t dataset_size,
                                       size_t* touched_bytes = nullptr) const;

  /// Fully materializes every rung (each in original order), each with
  /// its stored layout: the file's cell grid, value range and
  /// permutation, read as written rather than partitioned again.
  StatusOr<SampleCatalog> ReadAll(size_t dataset_size) const;

 private:
  CatalogStore() = default;

  /// MaterializeRung; when `positions` is set it also receives the
  /// rung's cell-major permutation. Reads the rung one page of slots at
  /// a time, so its transient memory does not grow with the rung.
  StatusOr<SampleSet> ReadRung(size_t k, size_t dataset_size,
                               size_t* touched_bytes,
                               std::vector<uint32_t>* positions) const;

  /// Verifies `page` on first touch. Adds page_size() to `*bytes_won`
  /// (when set) if this call is the one that marked it verified.
  Status EnsurePage(size_t page, size_t* bytes_won = nullptr) const;
  /// Copies `n` slots starting at data-region slot `slot` into `out`,
  /// verifying each touched page's CRC; `bytes_won` as for EnsurePage.
  Status ReadSlots(uint64_t slot, size_t n, uint64_t* out,
                   size_t* bytes_won) const;

  std::string path_;
  const uint8_t* base_ = nullptr;  // mmap base (read-only)
  size_t file_bytes_ = 0;
  size_t page_size_ = 0;
  size_t page_count_ = 0;
  size_t data_page_count_ = 0;
  size_t slots_per_page_ = 0;
  uint64_t total_slots_ = 0;
  std::vector<Rung> rungs_;

  mutable std::unique_ptr<std::atomic<uint8_t>[]> page_state_;
  mutable std::atomic<size_t> pages_touched_{0};
};

/// A catalog handle PlotService can serve from without forcing full
/// materialization: either a resident SampleCatalog snapshot or a
/// mapped CatalogStore. Rungs are addressed by ascending-size index in
/// both cases, mirroring SampleCatalog's ordering.
class CatalogView {
 public:
  CatalogView() = default;
  explicit CatalogView(std::shared_ptr<const SampleCatalog> resident);
  CatalogView(std::shared_ptr<const CatalogStore> store, size_t dataset_size);

  bool valid() const { return resident_ != nullptr || store_ != nullptr; }
  /// True when backed by a mapped store, i.e. rungs can be loaded one
  /// cell range at a time instead of whole.
  bool partial() const { return store_ != nullptr; }

  size_t rung_count() const;
  size_t rung_size(size_t k) const;

  /// Index of the largest rung whose estimated viz time fits `seconds`
  /// under `model`; falls back to the smallest (SampleCatalog
  /// semantics).
  size_t ChooseForTimeBudget(double seconds, const VizTimeModel& model) const;

  /// The resident rung, or null when store-backed (callers then go
  /// through MaterializeForRect / MaterializeRung).
  const SampleSet* ResidentRung(size_t k) const;
  std::shared_ptr<const SampleCatalog> resident() const { return resident_; }
  std::shared_ptr<const CatalogStore> store() const { return store_; }

  /// The resident rung itself when MaterializeForRect(k, rect) would
  /// return all of it (its cells all intersect `rect`, or it has no
  /// layout), so a caller can use it in place instead of copying it;
  /// null otherwise, and always when store-backed.
  const SampleSet* WholeRung(size_t k, const Rect& rect) const;

  /// Rung `k`'s value range — the file's recorded range when
  /// store-backed, the layout's when resident — or nullopt when the
  /// rung has none.
  std::optional<std::pair<double, double>> RungValueRange(size_t k) const;

  /// Entries of rung `k` whose cells intersect `rect`, in rung order.
  /// Store-backed views touch only those cells' pages; resident views
  /// select them from the rung's layout, or copy the whole rung when it
  /// has none. When `touched_bytes` is set it receives the page bytes
  /// this call faulted in first (0 when resident); see CatalogStore.
  StatusOr<SampleSet> MaterializeForRect(size_t k, const Rect& rect,
                                         size_t* touched_bytes = nullptr) const;

  /// The whole rung, in original order; `touched_bytes` as above.
  StatusOr<SampleSet> MaterializeRung(size_t k,
                                      size_t* touched_bytes = nullptr) const;

 private:
  std::shared_ptr<const SampleCatalog> resident_;
  std::shared_ptr<const CatalogStore> store_;
  size_t dataset_size_ = 0;
  std::vector<size_t> order_;  // store rung indices, ascending by size
};

}  // namespace vas

#endif  // VAS_ENGINE_CATALOG_STORE_H_
