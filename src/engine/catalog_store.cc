#include "engine/catalog_store.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <numeric>
#include <sstream>
#include <utility>

#include "data/serial.h"
#include "util/crc32.h"

namespace vas {

namespace {

constexpr uint64_t kFooterMagic = 0x5641530046545232ULL;  // "VAS\0FTR2"
constexpr uint64_t kFormatVersion = 2;
constexpr size_t kFooterBytes = 48;
constexpr size_t kPageHeaderBytes = 8;  // u32 crc + u32 payload_len
constexpr size_t kMinPageSize = 512;
constexpr size_t kMaxPageSize = 1 << 20;
constexpr size_t kMaxMethodLen = 4096;
constexpr uint64_t kMaxRungs = 4096;
constexpr uint64_t kMaxGridCells = 1ULL << 22;
constexpr uint8_t kPageVerified = 1;
// Per-rung flags word.
constexpr uint64_t kRungHasDensity = 1;
constexpr uint64_t kRungHasValueRange = 2;
constexpr uint64_t kRungFlagsMask = kRungHasDensity | kRungHasValueRange;

uint64_t LoadU64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

uint32_t LoadU32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

double U64ToDouble(uint64_t bits) {
  double d;
  std::memcpy(&d, &bits, sizeof(d));
  return d;
}

uint64_t DoubleToU64(double d) {
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

/// Set bits of `x`. Written out rather than std::bitset::count(),
/// which compiles to a library call where the popcnt instruction is
/// not assumed; this runs once per entry of a cell-range load.
inline uint64_t CountBits(uint64_t x) {
  x -= (x >> 1) & 0x5555555555555555ULL;
  x = (x & 0x3333333333333333ULL) + ((x >> 2) & 0x3333333333333333ULL);
  x = (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0fULL;
  return (x * 0x0101010101010101ULL) >> 56;
}

Status WritePage(std::ofstream& out, const uint8_t* payload, size_t len,
                 size_t page_size, const std::string& path) {
  uint8_t header[kPageHeaderBytes];
  const uint32_t crc = Crc32(payload, len);
  const auto len32 = static_cast<uint32_t>(len);
  std::memcpy(header, &crc, sizeof(crc));
  std::memcpy(header + sizeof(crc), &len32, sizeof(len32));
  VAS_RETURN_IF_ERROR(WriteRaw(out, header, sizeof(header), path));
  if (len > 0) VAS_RETURN_IF_ERROR(WriteRaw(out, payload, len, path));
  static const std::string kZeros(kMaxPageSize, '\0');
  const size_t pad = page_size - kPageHeaderBytes - len;
  if (pad > 0) VAS_RETURN_IF_ERROR(WriteRaw(out, kZeros.data(), pad, path));
  return Status::OK();
}

/// Flushes `path` to stable storage: a file's data, or a directory's
/// entries (a rename into it). A filesystem that cannot sync a
/// directory (EINVAL) is not an error.
Status SyncToDisk(const std::string& path, bool directory) {
  const int fd = ::open(path.c_str(), directory
                                          ? O_RDONLY | O_DIRECTORY | O_CLOEXEC
                                          : O_WRONLY | O_CLOEXEC);
  if (fd < 0) {
    return Status::IoError("cannot open " + path + " to sync it: " +
                           std::strerror(errno));
  }
  const int rc = ::fsync(fd);
  const int err = errno;
  ::close(fd);
  if (rc != 0 && !(directory && err == EINVAL)) {
    return Status::IoError("cannot sync " + path + ": " +
                           std::strerror(err));
  }
  return Status::OK();
}

/// The directory holding `path` ("." for a bare file name).
std::string ParentDirectory(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

/// Whether `layout`, the layout `rung` was published with, is what
/// LayOutRung(&dataset, rung, target) computes: the same grid over the
/// same domain, each cell's positions ascending, and the same recorded
/// value range. Cells then hold the same entries, since the grid and
/// domain place every point, and a spill writes the rung without laying
/// it out again. False also for a rung LayOutRung refuses, so its error
/// still reaches the writer.
bool PublishedLayoutFits(const RungLayout& layout, const SampleSet& rung,
                         const Dataset& dataset, size_t target) {
  const size_t n = rung.size();
  const uint64_t dim = GridDimFor(n, target);
  if (n == 0 || layout.positions.size() != n || layout.grid_x != dim ||
      layout.grid_y != dim ||
      (rung.has_density() && rung.density.size() != n)) {
    return false;
  }
  Rect domain;
  for (size_t id : rung.ids) {
    if (id >= dataset.size()) return false;
    domain.Extend(dataset.points[id]);
  }
  auto same = [](double a, double b) {
    return DoubleToU64(a) == DoubleToU64(b);
  };
  const Rect& have = layout.domain;
  if (!same(domain.min_x, have.min_x) || !same(domain.min_y, have.min_y) ||
      !same(domain.max_x, have.max_x) || !same(domain.max_y, have.max_y)) {
    return false;
  }
  const auto range = RecordedValueRange(dataset, rung);
  const auto& recorded = layout.value_range;
  if (range.has_value() != recorded.has_value() ||
      (range.has_value() && (!same(range->first, recorded->first) ||
                             !same(range->second, recorded->second)))) {
    return false;
  }
  for (size_t c = 0; c < layout.cell_counts.size(); ++c) {
    const uint64_t begin = layout.cell_starts[c];
    const uint64_t end = begin + layout.cell_counts[c];
    for (uint64_t e = begin + 1; e < end; ++e) {
      if (layout.positions[e - 1] >= layout.positions[e]) return false;
    }
  }
  return true;
}

}  // namespace

Status WriteCatalogPaged(const SampleCatalog& catalog, const std::string& path,
                         const CatalogWriteOptions& options) {
  const size_t page_size = options.page_size;
  if (page_size < kMinPageSize || page_size > kMaxPageSize ||
      page_size % 8 != 0) {
    return Status::InvalidArgument(
        "catalog page size must be a multiple of 8 in [512, 1 MiB]");
  }
  const auto& rungs = catalog.samples();
  if (rungs.empty()) {
    return Status::InvalidArgument("refusing to write an empty catalog");
  }
  if (rungs.size() > kMaxRungs) {
    return Status::InvalidArgument("catalog has too many rungs");
  }

  struct PlacedRung {
    std::shared_ptr<const RungLayout> layout;
    uint64_t max_id = 0;
    uint64_t slot_base = 0;
    uint64_t perm_base = 0;
  };
  std::vector<PlacedRung> placed(rungs.size());
  uint64_t next_slot = 0;
  for (size_t k = 0; k < rungs.size(); ++k) {
    const SampleSet& rung = rungs[k];
    PlacedRung& p = placed[k];
    const std::shared_ptr<const RungLayout>& published = catalog.layout(k);
    if (options.dataset != nullptr && published != nullptr &&
        PublishedLayoutFits(*published, rung, *options.dataset,
                            options.target_entries_per_cell)) {
      p.layout = published;
    } else {
      VAS_ASSIGN_OR_RETURN(
          p.layout,
          LayOutRung(options.dataset, rung, options.target_entries_per_cell));
    }
    for (size_t id : rung.ids) {
      p.max_id = std::max<uint64_t>(p.max_id, id);
    }
    const uint64_t n = rung.size();
    const uint64_t width = rung.has_density() ? 2 : 1;
    p.slot_base = next_slot;
    p.perm_base = next_slot + n * width;
    next_slot = p.perm_base + n;
  }
  const uint64_t total_slots = next_slot;

  // Rung metadata stream (paged after the data region).
  std::ostringstream meta_stream(std::ios::binary);
  for (size_t k = 0; k < rungs.size(); ++k) {
    const SampleSet& s = rungs[k];
    const PlacedRung& p = placed[k];
    const RungLayout& l = *p.layout;
    VAS_RETURN_IF_ERROR(
        WriteLengthPrefixedString(meta_stream, s.method, path));
    VAS_RETURN_IF_ERROR(WriteU64(meta_stream, s.size(), path));
    const uint64_t flags = (s.has_density() ? kRungHasDensity : 0) |
                           (l.value_range ? kRungHasValueRange : 0);
    VAS_RETURN_IF_ERROR(WriteU64(meta_stream, flags, path));
    VAS_RETURN_IF_ERROR(WriteU64(meta_stream, p.max_id, path));
    VAS_RETURN_IF_ERROR(WriteU64(meta_stream, l.grid_x, path));
    VAS_RETURN_IF_ERROR(WriteU64(meta_stream, l.grid_y, path));
    VAS_RETURN_IF_ERROR(
        WriteU64(meta_stream, DoubleToU64(l.domain.min_x), path));
    VAS_RETURN_IF_ERROR(
        WriteU64(meta_stream, DoubleToU64(l.domain.min_y), path));
    VAS_RETURN_IF_ERROR(
        WriteU64(meta_stream, DoubleToU64(l.domain.max_x), path));
    VAS_RETURN_IF_ERROR(
        WriteU64(meta_stream, DoubleToU64(l.domain.max_y), path));
    VAS_RETURN_IF_ERROR(WriteU64(meta_stream, p.slot_base, path));
    VAS_RETURN_IF_ERROR(WriteU64(meta_stream, p.perm_base, path));
    if (l.value_range) {
      VAS_RETURN_IF_ERROR(
          WriteU64(meta_stream, DoubleToU64(l.value_range->first), path));
      VAS_RETURN_IF_ERROR(
          WriteU64(meta_stream, DoubleToU64(l.value_range->second), path));
    }
    for (uint64_t count : l.cell_counts) {
      VAS_RETURN_IF_ERROR(WriteU64(meta_stream, count, path));
    }
  }
  const std::string meta = meta_stream.str();

  const size_t payload_cap = page_size - kPageHeaderBytes;
  const size_t slots_per_page = payload_cap / 8;
  const size_t data_pages =
      (total_slots + slots_per_page - 1) / slots_per_page;
  const size_t meta_pages =
      std::max<size_t>(1, (meta.size() + payload_cap - 1) / payload_cap);
  const size_t page_count = 1 + data_pages + meta_pages;

  // Written beside `path` and renamed over it once complete: a write
  // that fails part-way leaves any previous catalog at `path` intact.
  const std::string tmp = path + ".tmp";
  std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IoError("cannot open for writing: " + tmp);
  // Removes the temporary file on every exit but the final rename.
  struct TempFile {
    const std::string& path;
    bool renamed = false;
    ~TempFile() {
      if (!renamed) std::remove(path.c_str());
    }
  } temp_file{tmp};

  // Superblock.
  {
    std::ostringstream sb(std::ios::binary);
    VAS_RETURN_IF_ERROR(WriteU64(sb, kCatalogMagicV2, path));
    VAS_RETURN_IF_ERROR(WriteU64(sb, kFormatVersion, path));
    VAS_RETURN_IF_ERROR(WriteU64(sb, page_size, path));
    VAS_RETURN_IF_ERROR(WriteU64(sb, page_count, path));
    VAS_RETURN_IF_ERROR(WriteU64(sb, data_pages, path));
    VAS_RETURN_IF_ERROR(WriteU64(sb, rungs.size(), path));
    VAS_RETURN_IF_ERROR(WriteU64(sb, total_slots, path));
    const std::string payload = sb.str();
    VAS_RETURN_IF_ERROR(
        WritePage(out, reinterpret_cast<const uint8_t*>(payload.data()),
                  payload.size(), page_size, path));
  }

  // Data pages: one flat slot stream — per rung the cell-major ids, the
  // parallel densities, then the original-order permutation.
  {
    std::vector<uint64_t> window;
    window.reserve(slots_per_page);
    auto flush = [&]() -> Status {
      if (window.empty()) return Status::OK();
      VAS_RETURN_IF_ERROR(
          WritePage(out, reinterpret_cast<const uint8_t*>(window.data()),
                    window.size() * 8, page_size, path));
      window.clear();
      return Status::OK();
    };
    // Appends slot(pos) for each cell-major entry's rung position.
    auto append = [&](const std::vector<uint32_t>& positions,
                      auto slot) -> Status {
      for (uint32_t pos : positions) {
        window.push_back(slot(pos));
        if (window.size() == slots_per_page) VAS_RETURN_IF_ERROR(flush());
      }
      return Status::OK();
    };
    for (size_t k = 0; k < rungs.size(); ++k) {
      const SampleSet& s = rungs[k];
      const std::vector<uint32_t>& positions = placed[k].layout->positions;
      VAS_RETURN_IF_ERROR(append(positions, [&](uint32_t pos) {
        return static_cast<uint64_t>(s.ids[pos]);
      }));
      if (s.has_density()) {
        VAS_RETURN_IF_ERROR(
            append(positions, [&](uint32_t pos) { return s.density[pos]; }));
      }
      VAS_RETURN_IF_ERROR(
          append(positions, [](uint32_t pos) { return uint64_t{pos}; }));
    }
    VAS_RETURN_IF_ERROR(flush());
  }

  // Meta pages.
  for (size_t p = 0; p < meta_pages; ++p) {
    const size_t off = p * payload_cap;
    const size_t len = std::min(payload_cap, meta.size() - off);
    VAS_RETURN_IF_ERROR(
        WritePage(out, reinterpret_cast<const uint8_t*>(meta.data()) + off,
                  len, page_size, path));
  }

  // Footer.
  {
    uint8_t footer[kFooterBytes];
    std::memset(footer, 0, sizeof(footer));
    const uint64_t fields[5] = {kFooterMagic, page_size, page_count,
                                1 + data_pages, meta_pages};
    std::memcpy(footer, fields, sizeof(fields));
    const uint64_t crc = Crc32(footer, sizeof(fields));
    std::memcpy(footer + sizeof(fields), &crc, sizeof(crc));
    VAS_RETURN_IF_ERROR(WriteRaw(out, footer, sizeof(footer), path));
  }
  out.close();
  if (!out) return Status::IoError("failed writing catalog: " + path);
  // The data reaches the disk before the rename can, and the rename
  // before success is reported: otherwise an OS crash could leave
  // `path` naming an empty or partial file.
  VAS_RETURN_IF_ERROR(SyncToDisk(tmp, /*directory=*/false));
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    return Status::IoError("cannot rename " + tmp + " to " + path);
  }
  temp_file.renamed = true;
  return SyncToDisk(ParentDirectory(path), /*directory=*/true);
}

CatalogStore::~CatalogStore() {
  if (base_ != nullptr) {
    ::munmap(const_cast<uint8_t*>(base_), file_bytes_);
  }
}

Status CatalogStore::EnsurePage(size_t page, size_t* bytes_won) const {
  if (page >= page_count_) {
    return Status::InvalidArgument("catalog page index out of range: " +
                                   path_);
  }
  std::atomic<uint8_t>& state = page_state_[page];
  if (state.load(std::memory_order_acquire) == kPageVerified) {
    return Status::OK();
  }
  const uint8_t* p = base_ + page * page_size_;
  const uint32_t crc = LoadU32(p);
  const uint32_t len = LoadU32(p + 4);
  if (len > page_size_ - kPageHeaderBytes) {
    return Status::IoError("catalog page " + std::to_string(page) +
                           " has an oversized payload: " + path_);
  }
  if (Crc32(p + kPageHeaderBytes, len) != crc) {
    return Status::IoError("catalog page " + std::to_string(page) +
                           " checksum mismatch: " + path_);
  }
  if (state.exchange(kPageVerified, std::memory_order_release) !=
      kPageVerified) {
    pages_touched_.fetch_add(1, std::memory_order_relaxed);
    if (bytes_won != nullptr) *bytes_won += page_size_;
  }
  return Status::OK();
}

Status CatalogStore::ReadSlots(uint64_t slot, size_t n, uint64_t* out,
                               size_t* bytes_won) const {
  while (n > 0) {
    const size_t page = 1 + static_cast<size_t>(slot / slots_per_page_);
    const size_t offset = static_cast<size_t>(slot % slots_per_page_);
    if (page > data_page_count_) {
      return Status::InvalidArgument("catalog slot beyond data region: " +
                                     path_);
    }
    const size_t take = std::min(n, slots_per_page_ - offset);
    VAS_RETURN_IF_ERROR(EnsurePage(page, bytes_won));
    const uint8_t* p = base_ + page * page_size_;
    const uint32_t len = LoadU32(p + 4);
    if ((offset + take) * 8 > len) {
      return Status::IoError("catalog slot range beyond page payload: " +
                             path_);
    }
    std::memcpy(out, p + kPageHeaderBytes + offset * 8, take * 8);
    out += take;
    slot += take;
    n -= take;
  }
  return Status::OK();
}

StatusOr<std::shared_ptr<const CatalogStore>> CatalogStore::Open(
    const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return Status::IoError("cannot open catalog file: " + path);
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return Status::IoError("cannot stat catalog file: " + path);
  }
  const auto file_bytes = static_cast<size_t>(st.st_size);
  // The superblock's magic sits at file offset 8, behind page 0's
  // header. A file without it is not a catalog at all; one with it
  // that is too short or has no footer was cut short.
  uint8_t magic[8] = {};
  if (file_bytes >= kPageHeaderBytes + sizeof(magic)) {
    if (::pread(fd, magic, sizeof(magic), kPageHeaderBytes) !=
        static_cast<ssize_t>(sizeof(magic))) {
      ::close(fd);
      return Status::IoError("cannot read catalog file: " + path);
    }
    if (LoadU64(magic) != kCatalogMagicV2) {
      ::close(fd);
      return Status::InvalidArgument("not a CAT2 catalog (bad magic): " +
                                     path);
    }
  }
  if (file_bytes < kMinPageSize + kFooterBytes) {
    ::close(fd);
    return Status::InvalidArgument("truncated catalog file: " + path);
  }
  void* map = ::mmap(nullptr, file_bytes, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);
  if (map == MAP_FAILED) {
    return Status::IoError("cannot mmap catalog file: " + path);
  }
  std::shared_ptr<CatalogStore> store(new CatalogStore());
  store->path_ = path;
  store->base_ = static_cast<const uint8_t*>(map);
  store->file_bytes_ = file_bytes;

  // Footer → page geometry. Everything after this is CRC-protected.
  const uint8_t* footer = store->base_ + file_bytes - kFooterBytes;
  if (LoadU64(footer) != kFooterMagic) {
    return Status::InvalidArgument("truncated catalog file (no footer): " +
                                   path);
  }
  const uint64_t crc_stored = LoadU64(footer + 40);
  if (Crc32(footer, 40) != crc_stored) {
    return Status::IoError("catalog footer checksum mismatch: " + path);
  }
  const uint64_t page_size = LoadU64(footer + 8);
  const uint64_t page_count = LoadU64(footer + 16);
  const uint64_t meta_first = LoadU64(footer + 24);
  const uint64_t meta_pages = LoadU64(footer + 32);
  if (page_size < kMinPageSize || page_size > kMaxPageSize ||
      page_size % 8 != 0) {
    return Status::InvalidArgument("catalog page size invalid: " + path);
  }
  if (page_count < 2 || (file_bytes - kFooterBytes) % page_size != 0 ||
      page_count != (file_bytes - kFooterBytes) / page_size) {
    return Status::InvalidArgument("truncated catalog file: " + path);
  }
  if (meta_pages < 1 || meta_pages > page_count || meta_first < 1 ||
      meta_first > page_count || meta_first + meta_pages != page_count) {
    return Status::InvalidArgument("catalog page directory out of range: " +
                                   path);
  }
  store->page_size_ = page_size;
  store->page_count_ = page_count;
  store->data_page_count_ = meta_first - 1;
  store->slots_per_page_ = (page_size - kPageHeaderBytes) / 8;
  store->page_state_ =
      std::make_unique<std::atomic<uint8_t>[]>(page_count);

  // Superblock.
  VAS_RETURN_IF_ERROR(store->EnsurePage(0));
  const uint8_t* sb = store->base_ + kPageHeaderBytes;
  const uint32_t sb_len = LoadU32(store->base_ + 4);
  if (sb_len < 56) {
    return Status::InvalidArgument("catalog superblock too small: " + path);
  }
  if (LoadU64(sb) != kCatalogMagicV2) {
    return Status::InvalidArgument("not a CAT2 catalog: " + path);
  }
  if (LoadU64(sb + 8) != kFormatVersion) {
    return Status::InvalidArgument("unsupported catalog format version: " +
                                   path);
  }
  if (LoadU64(sb + 16) != page_size || LoadU64(sb + 24) != page_count ||
      LoadU64(sb + 32) != store->data_page_count_) {
    return Status::InvalidArgument(
        "catalog superblock disagrees with footer: " + path);
  }
  const uint64_t rung_count = LoadU64(sb + 40);
  store->total_slots_ = LoadU64(sb + 48);
  if (rung_count < 1 || rung_count > kMaxRungs) {
    return Status::InvalidArgument("catalog rung count invalid: " + path);
  }
  if (store->total_slots_ >
      store->data_page_count_ * store->slots_per_page_) {
    return Status::InvalidArgument("catalog slot count exceeds data pages: " +
                                   path);
  }

  // Meta region: verify its pages, then parse the concatenated payloads
  // with the shared serial helpers.
  std::string meta;
  for (uint64_t p = meta_first; p < page_count; ++p) {
    VAS_RETURN_IF_ERROR(store->EnsurePage(p));
    const uint8_t* page = store->base_ + p * page_size;
    meta.append(reinterpret_cast<const char*>(page + kPageHeaderBytes),
                LoadU32(page + 4));
  }
  std::istringstream in(meta, std::ios::binary);
  store->rungs_.resize(rung_count);
  for (uint64_t k = 0; k < rung_count; ++k) {
    Rung& r = store->rungs_[k];
    VAS_ASSIGN_OR_RETURN(r.method,
                         ReadLengthPrefixedString(in, kMaxMethodLen, path));
    VAS_ASSIGN_OR_RETURN(r.count, ReadU64(in, path));
    VAS_ASSIGN_OR_RETURN(const uint64_t flags, ReadU64(in, path));
    if ((flags & ~kRungFlagsMask) != 0) {
      return Status::InvalidArgument("catalog rung header corrupt: " + path);
    }
    r.has_density = (flags & kRungHasDensity) != 0;
    VAS_ASSIGN_OR_RETURN(r.max_id, ReadU64(in, path));
    VAS_ASSIGN_OR_RETURN(r.grid_x, ReadU64(in, path));
    VAS_ASSIGN_OR_RETURN(r.grid_y, ReadU64(in, path));
    if (r.grid_x < 1 || r.grid_y < 1 || r.grid_x * r.grid_y > kMaxGridCells) {
      return Status::InvalidArgument("catalog rung grid invalid: " + path);
    }
    uint64_t bits[4];
    for (auto& b : bits) {
      VAS_ASSIGN_OR_RETURN(b, ReadU64(in, path));
    }
    r.domain = Rect::Of(U64ToDouble(bits[0]), U64ToDouble(bits[1]),
                        U64ToDouble(bits[2]), U64ToDouble(bits[3]));
    VAS_ASSIGN_OR_RETURN(r.slot_base, ReadU64(in, path));
    VAS_ASSIGN_OR_RETURN(r.perm_base, ReadU64(in, path));
    if ((flags & kRungHasValueRange) != 0) {
      VAS_ASSIGN_OR_RETURN(const uint64_t lo_bits, ReadU64(in, path));
      VAS_ASSIGN_OR_RETURN(const uint64_t hi_bits, ReadU64(in, path));
      r.has_value_range = true;
      r.value_lo = U64ToDouble(lo_bits);
      r.value_hi = U64ToDouble(hi_bits);
      if (!std::isfinite(r.value_lo) || !std::isfinite(r.value_hi) ||
          r.value_lo > r.value_hi) {
        return Status::InvalidArgument("catalog rung value range invalid: " +
                                       path);
      }
    }
    const uint64_t width = r.has_density ? 2 : 1;
    if (r.count > store->total_slots_) {
      return Status::InvalidArgument("catalog rung size exceeds file slots: " +
                                     path);
    }
    if (r.perm_base != r.slot_base + r.count * width ||
        r.perm_base + r.count < r.perm_base ||
        r.perm_base + r.count > store->total_slots_) {
      return Status::InvalidArgument("catalog rung slots out of range: " +
                                     path);
    }
    const uint64_t cells = r.grid_x * r.grid_y;
    VAS_ASSIGN_OR_RETURN(const size_t left, RemainingBytes(in, path));
    if (left < cells * 8) {
      return Status::InvalidArgument("catalog cell index truncated: " + path);
    }
    r.cell_counts.resize(cells);
    r.cell_starts.resize(cells);
    uint64_t sum = 0;
    for (uint64_t c = 0; c < cells; ++c) {
      VAS_ASSIGN_OR_RETURN(r.cell_counts[c], ReadU64(in, path));
      r.cell_starts[c] = sum;
      if (r.cell_counts[c] > r.count - sum) {
        return Status::InvalidArgument(
            "catalog cell counts exceed rung size: " + path);
      }
      sum += r.cell_counts[c];
      if (r.cell_counts[c] > 0) {
        ++r.occupied_cells;
        r.max_cell_entries = std::max(r.max_cell_entries, r.cell_counts[c]);
      }
    }
    if (sum != r.count) {
      return Status::InvalidArgument(
          "catalog cell counts disagree with rung size: " + path);
    }
  }
  return std::shared_ptr<const CatalogStore>(std::move(store));
}

StatusOr<SampleSet> CatalogStore::MaterializeRung(
    size_t k, size_t dataset_size, size_t* touched_bytes) const {
  return ReadRung(k, dataset_size, touched_bytes, /*positions=*/nullptr);
}

StatusOr<SampleSet> CatalogStore::ReadRung(
    size_t k, size_t dataset_size, size_t* touched_bytes,
    std::vector<uint32_t>* positions) const {
  if (touched_bytes != nullptr) *touched_bytes = 0;
  if (k >= rungs_.size()) {
    return Status::InvalidArgument("catalog rung index out of range");
  }
  const Rung& r = rungs_[k];
  SampleSet out;
  out.method = r.method;
  const auto n = static_cast<size_t>(r.count);
  if (n == 0) return out;
  if (dataset_size > 0 && r.max_id >= dataset_size) {
    return Status::OutOfRange("catalog sample id out of dataset range: " +
                              path_);
  }
  // One page's worth of slots at a time: each entry's id, rung position
  // and density, placed at its position as the block is read. Beside
  // its output a read-back holds three blocks and a bitmap, not three
  // u64 copies of the rung, so a /plot read-back's transient heap stays
  // small.
  out.ids.assign(n, 0);
  if (r.has_density) out.density.assign(n, 0);
  if (positions != nullptr) positions->resize(n);
  std::vector<uint64_t> seen((n + 63) / 64, 0);
  const size_t block = std::min(n, slots_per_page_);
  std::vector<uint64_t> ids(block);
  std::vector<uint64_t> perm(block);
  std::vector<uint64_t> density(r.has_density ? block : 0);
  for (size_t e0 = 0; e0 < n; e0 += block) {
    const size_t m = std::min(block, n - e0);
    VAS_RETURN_IF_ERROR(
        ReadSlots(r.slot_base + e0, m, ids.data(), touched_bytes));
    VAS_RETURN_IF_ERROR(
        ReadSlots(r.perm_base + e0, m, perm.data(), touched_bytes));
    if (r.has_density) {
      VAS_RETURN_IF_ERROR(ReadSlots(r.slot_base + n + e0, m, density.data(),
                                    touched_bytes));
    }
    for (size_t i = 0; i < m; ++i) {
      const uint64_t pos = perm[i];
      const uint64_t bit = uint64_t{1} << (pos % 64);
      if (pos >= n || (seen[pos / 64] & bit) != 0) {
        return Status::InvalidArgument("catalog rung permutation corrupt: " +
                                       path_);
      }
      seen[pos / 64] |= bit;
      if (dataset_size > 0 && ids[i] >= dataset_size) {
        return Status::OutOfRange("catalog sample id out of dataset range: " +
                                  path_);
      }
      out.ids[pos] = static_cast<size_t>(ids[i]);
      if (r.has_density) out.density[pos] = density[i];
      if (positions != nullptr) {
        (*positions)[e0 + i] = static_cast<uint32_t>(pos);
      }
    }
  }
  return out;
}

StatusOr<SampleSet> CatalogStore::MaterializeCells(
    size_t k, const Rect& query, size_t dataset_size,
    size_t* touched_bytes) const {
  if (touched_bytes != nullptr) *touched_bytes = 0;
  if (k >= rungs_.size()) {
    return Status::InvalidArgument("catalog rung index out of range");
  }
  const Rung& r = rungs_[k];
  SampleSet out;
  out.method = r.method;
  if (r.count == 0) return out;
  // Each grid row's x-range is one contiguous entry range: one slot run
  // each of ids, densities and rung positions per row.
  const auto rows = r.RowRanges(query);
  size_t total = 0;
  for (const auto& [e0, e1] : rows) total += static_cast<size_t>(e1 - e0);
  if (total == 0) return out;
  std::vector<uint64_t> ids(total);
  std::vector<uint64_t> density(r.has_density ? total : 0);
  std::vector<uint64_t> positions(total);
  size_t at = 0;
  for (const auto& [e0, e1] : rows) {
    const auto run = static_cast<size_t>(e1 - e0);
    if (run == 0) continue;
    VAS_RETURN_IF_ERROR(
        ReadSlots(r.slot_base + e0, run, ids.data() + at, touched_bytes));
    if (r.has_density) {
      VAS_RETURN_IF_ERROR(ReadSlots(r.slot_base + r.count + e0, run,
                                    density.data() + at, touched_bytes));
    }
    VAS_RETURN_IF_ERROR(ReadSlots(r.perm_base + e0, run,
                                  positions.data() + at, touched_bytes));
    at += run;
  }
  // Back to rung order, so a scatter tile drawn from the cells overlaps
  // its dots exactly as one drawn from the whole rung. A counting sort
  // on position: mark the loaded positions in a bitmap over the rung
  // and count the marks before each 64-position word; an entry's index
  // is that count plus the marks below it in its word. Linear in the
  // entries plus rung size / 64: sorting (position, index) pairs, even
  // by radix, made cell-range loads several times slower.
  struct Word {
    uint64_t marks = 0;
    uint64_t before = 0;
  };
  std::vector<Word> words(static_cast<size_t>((r.count + 63) / 64));
  for (size_t i = 0; i < total; ++i) {
    if (dataset_size > 0 && ids[i] >= dataset_size) {
      return Status::OutOfRange("catalog sample id out of dataset range: " +
                                path_);
    }
    const uint64_t p = positions[i];
    const uint64_t bit = uint64_t{1} << (p % 64);
    if (p >= r.count || (words[p / 64].marks & bit) != 0) {
      return Status::InvalidArgument("catalog rung permutation corrupt: " +
                                     path_);
    }
    words[p / 64].marks |= bit;
  }
  uint64_t before = 0;
  for (Word& w : words) {
    w.before = before;
    before += CountBits(w.marks);
  }
  out.ids.resize(total);
  out.density.resize(density.size());
  for (size_t i = 0; i < total; ++i) {
    const uint64_t p = positions[i];
    const Word& w = words[p / 64];
    const uint64_t below = (uint64_t{1} << (p % 64)) - 1;
    const auto index =
        static_cast<size_t>(w.before + CountBits(w.marks & below));
    out.ids[index] = static_cast<size_t>(ids[i]);
    if (r.has_density) out.density[index] = density[i];
  }
  return out;
}

StatusOr<SampleCatalog> CatalogStore::ReadAll(size_t dataset_size) const {
  std::vector<SampleSet> samples;
  std::vector<std::shared_ptr<const RungLayout>> layouts;
  samples.reserve(rungs_.size());
  layouts.reserve(rungs_.size());
  for (size_t k = 0; k < rungs_.size(); ++k) {
    const Rung& r = rungs_[k];
    // Positions are u32; a rung too large for them is served whole.
    const bool fits = r.count <= std::numeric_limits<uint32_t>::max();
    auto layout = std::make_shared<RungLayout>();
    VAS_ASSIGN_OR_RETURN(
        SampleSet s, ReadRung(k, dataset_size, /*touched_bytes=*/nullptr,
                              fits ? &layout->positions : nullptr));
    if (fits) {
      static_cast<CellGrid&>(*layout) = r;  // the file's grid and cells
      if (r.has_value_range) {
        layout->value_range = std::make_pair(r.value_lo, r.value_hi);
      }
      layouts.push_back(std::move(layout));
    } else {
      layouts.push_back(nullptr);
    }
    samples.push_back(std::move(s));
  }
  return SampleCatalog(std::move(samples), std::move(layouts));
}

CatalogView::CatalogView(std::shared_ptr<const SampleCatalog> resident)
    : resident_(std::move(resident)) {}

CatalogView::CatalogView(std::shared_ptr<const CatalogStore> store,
                         size_t dataset_size)
    : store_(std::move(store)), dataset_size_(dataset_size) {
  order_.resize(store_->rung_count());
  std::iota(order_.begin(), order_.end(), 0);
  std::stable_sort(order_.begin(), order_.end(), [&](size_t a, size_t b) {
    return store_->rung(a).count < store_->rung(b).count;
  });
}

size_t CatalogView::rung_count() const {
  if (resident_ != nullptr) return resident_->samples().size();
  if (store_ != nullptr) return order_.size();
  return 0;
}

size_t CatalogView::rung_size(size_t k) const {
  if (resident_ != nullptr) return resident_->samples()[k].size();
  return static_cast<size_t>(store_->rung(order_[k]).count);
}

size_t CatalogView::ChooseForTimeBudget(double seconds,
                                        const VizTimeModel& model) const {
  size_t best = 0;
  for (size_t k = 0; k < rung_count(); ++k) {
    if (model.SecondsFor(rung_size(k)) <= seconds) best = k;
  }
  return best;
}

std::optional<std::pair<double, double>> CatalogView::RungValueRange(
    size_t k) const {
  if (k >= rung_count()) return std::nullopt;
  if (resident_ != nullptr) {
    const auto& layout = resident_->layout(k);
    return layout != nullptr ? layout->value_range : std::nullopt;
  }
  const CatalogStore::Rung& rung = store_->rung(order_[k]);
  if (!rung.has_value_range) return std::nullopt;
  return std::make_pair(rung.value_lo, rung.value_hi);
}

const SampleSet* CatalogView::ResidentRung(size_t k) const {
  if (resident_ == nullptr) return nullptr;
  return &resident_->samples()[k];
}

const SampleSet* CatalogView::WholeRung(size_t k, const Rect& rect) const {
  if (resident_ == nullptr || k >= rung_count()) return nullptr;
  const SampleSet& rung = resident_->samples()[k];
  const auto& layout = resident_->layout(k);
  if (layout == nullptr || layout->CountSelected(rect) == rung.size()) {
    return &rung;
  }
  return nullptr;
}

StatusOr<SampleSet> CatalogView::MaterializeForRect(
    size_t k, const Rect& rect, size_t* touched_bytes) const {
  if (touched_bytes != nullptr) *touched_bytes = 0;
  if (k >= rung_count()) {
    return Status::InvalidArgument("catalog rung index out of range");
  }
  if (store_ != nullptr) {
    return store_->MaterializeCells(order_[k], rect, dataset_size_,
                                    touched_bytes);
  }
  const SampleSet& rung = resident_->samples()[k];
  const auto& layout = resident_->layout(k);
  return layout != nullptr ? layout->Select(rung, rect) : SampleSet(rung);
}

StatusOr<SampleSet> CatalogView::MaterializeRung(size_t k,
                                                 size_t* touched_bytes) const {
  if (touched_bytes != nullptr) *touched_bytes = 0;
  if (k >= rung_count()) {
    return Status::InvalidArgument("catalog rung index out of range");
  }
  if (store_ != nullptr) {
    return store_->MaterializeRung(order_[k], dataset_size_, touched_bytes);
  }
  return SampleSet(resident_->samples()[k]);
}

}  // namespace vas
