// Chunked streaming ingest (paper §II-A: VAS sits between the RDBMS and
// the visualization tool, so data arrives as a scan, not as an in-memory
// array). A DatasetReader yields bounded-size chunks of tuples while
// accumulating running bounds and row counts, which lets the ingest path
// convert arbitrarily large CSV files to the binary format — and lets
// loaders seed Dataset's bounds cache — without ever materializing the
// whole file.
#ifndef VAS_DATA_DATASET_STREAM_H_
#define VAS_DATA_DATASET_STREAM_H_

#include <cstdint>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "geom/rect.h"
#include "util/status.h"

namespace vas {

/// One bounded slice of a dataset scan. `values` is either empty (no
/// value column) or parallel to `points`.
struct DatasetChunk {
  /// Global row index of points[0] within the source.
  size_t first_row = 0;
  std::vector<Point> points;
  std::vector<double> values;

  size_t size() const { return points.size(); }
  bool empty() const { return points.empty(); }
  bool has_values() const { return !values.empty(); }

  void Clear() {
    first_row = 0;
    points.clear();
    values.clear();
  }
};

/// Pull-based chunk iterator over a stored dataset. Memory is bounded by
/// chunk_rows regardless of file size; bounds() and rows_read() grow as
/// the scan advances and are exact once Next() returns false.
class DatasetReader {
 public:
  static constexpr size_t kDefaultChunkRows = 1 << 16;

  virtual ~DatasetReader() = default;

  /// Fills `chunk` with the next at-most-chunk_rows() rows. Returns
  /// true while rows were produced, false at clean end-of-stream (the
  /// chunk is cleared), and an error Status on malformed input (a
  /// non-finite coordinate included).
  virtual StatusOr<bool> Next(DatasetChunk* chunk) = 0;

  /// Whether the source carries a value column. Meaningful once the
  /// first chunk was read (binary sources know it from the header).
  virtual bool has_values() const = 0;

  size_t chunk_rows() const { return chunk_rows_; }

  /// Rows delivered so far.
  size_t rows_read() const { return rows_read_; }

  /// Bounding box accumulated over every row delivered so far.
  const Rect& bounds() const { return bounds_; }

 protected:
  explicit DatasetReader(size_t chunk_rows)
      : chunk_rows_(chunk_rows == 0 ? kDefaultChunkRows : chunk_rows) {}

  /// Folds a freshly produced chunk into rows_read() / bounds().
  /// InvalidArgument naming the first data row (1-based) of `source`
  /// whose x or y is NaN or infinite: no sampler, index or grid is
  /// defined over such a point. Non-finite values still load.
  Status Accumulate(const DatasetChunk& chunk, const std::string& source);

 private:
  size_t chunk_rows_;
  size_t rows_read_ = 0;
  Rect bounds_;
};

/// Streams an x,y[,value] CSV (same dialect ReadCsv accepts: optional
/// header, blank lines skipped, malformed rows are errors). Whether the
/// source carries a value column is decided by the first data row —
/// two-column CSVs stream value-less chunks instead of a fabricated
/// all-zero column — and rows must agree with that decision (a
/// mid-stream column-count flip is an error).
class CsvDatasetReader : public DatasetReader {
 public:
  static StatusOr<std::unique_ptr<CsvDatasetReader>> Open(
      const std::string& path, size_t chunk_rows = kDefaultChunkRows);

  StatusOr<bool> Next(DatasetChunk* chunk) override;
  bool has_values() const override { return has_values_; }

 private:
  CsvDatasetReader(const std::string& path, size_t chunk_rows);

  std::string path_;
  std::ifstream in_;
  size_t line_no_ = 0;
  bool seen_first_line_ = false;
  bool values_decided_ = false;
  bool has_values_ = false;
};

/// Streams the length-prefixed binary format WriteBinary produces. The
/// on-disk layout stores all points then all values, so each chunk is
/// assembled with two positioned reads from one stream.
class BinaryDatasetReader : public DatasetReader {
 public:
  static StatusOr<std::unique_ptr<BinaryDatasetReader>> Open(
      const std::string& path, size_t chunk_rows = kDefaultChunkRows);

  StatusOr<bool> Next(DatasetChunk* chunk) override;
  bool has_values() const override { return has_values_; }

  /// Total rows in the file (binary sources know it up front).
  size_t total_rows() const { return total_rows_; }

 private:
  BinaryDatasetReader(const std::string& path, size_t chunk_rows);

  std::string path_;
  std::ifstream in_;
  size_t total_rows_ = 0;
  bool has_values_ = false;
  size_t next_row_ = 0;
  uint64_t points_offset_ = 0;
  uint64_t values_offset_ = 0;
};

/// Opens the reader matching the path's format: ".bin" (the library's
/// binary format) or CSV for everything else — the same dispatch rule
/// vas_tool applies to its --in flags.
StatusOr<std::unique_ptr<DatasetReader>> OpenDatasetReader(
    const std::string& path,
    size_t chunk_rows = DatasetReader::kDefaultChunkRows);

/// Chunk-at-a-time writer for the binary dataset format. The header's
/// row count and the trailing value section are only known at the end of
/// the stream, so Append() spools values to a sidecar file and Finish()
/// splices them in and patches the header. Memory stays bounded by the
/// chunk size. The file is built as `path + ".tmp"` and Finish() renames
/// it over `path`, so a stream that fails part-way leaves any previous
/// file at `path` as it was; an unfinished writer leaves neither the
/// temporary file nor the spool behind.
class BinaryDatasetWriter {
 public:
  static StatusOr<std::unique_ptr<BinaryDatasetWriter>> Open(
      const std::string& path);
  ~BinaryDatasetWriter();

  BinaryDatasetWriter(const BinaryDatasetWriter&) = delete;
  BinaryDatasetWriter& operator=(const BinaryDatasetWriter&) = delete;

  /// Appends one chunk. Every chunk must agree on the presence of the
  /// value column (the first non-empty chunk decides).
  Status Append(const DatasetChunk& chunk);

  /// Same, from raw parallel arrays; `values` may be null for
  /// value-less data. WriteBinary feeds whole datasets through here
  /// without copying them into a chunk first.
  Status Append(const Point* points, const double* values, size_t count);

  /// Seals the file: splices the spooled values after the points,
  /// rewrites the header with the final row count and renames the
  /// temporary file over `path`.
  Status Finish();

  size_t rows_written() const { return rows_written_; }
  const Rect& bounds() const { return bounds_; }

 private:
  explicit BinaryDatasetWriter(const std::string& path);

  std::string path_;
  std::string tmp_path_;
  std::string values_spool_path_;
  std::fstream out_;
  std::ofstream values_spool_;
  size_t rows_written_ = 0;
  Rect bounds_;
  bool decided_values_ = false;
  bool has_values_ = false;
  bool finished_ = false;
};

/// Totals reported by a streaming ingest.
struct IngestStats {
  size_t rows = 0;
  Rect bounds;
  bool has_values = false;
};

/// Pumps `reader` into a binary dataset file at `out_path` chunk by
/// chunk (the vas_tool `ingest` pipeline). `progress`, when set, is
/// invoked with the running stats after every chunk.
StatusOr<IngestStats> IngestToBinary(
    DatasetReader& reader, const std::string& out_path,
    const std::function<void(const IngestStats&)>& progress = nullptr);

/// Drains `reader` into one in-memory Dataset named `name`, seeding its
/// bounds cache from the scan's accumulated bounds. The thin wrapper
/// ReadCsv / ReadBinary are built on.
StatusOr<Dataset> MaterializeDataset(DatasetReader& reader,
                                     std::string name);

}  // namespace vas

#endif  // VAS_DATA_DATASET_STREAM_H_
