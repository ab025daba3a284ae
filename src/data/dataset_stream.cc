#include "data/dataset_stream.h"

#include <cmath>
#include <cstdio>
#include <utility>

#include "data/serial.h"
#include "util/strings.h"

namespace vas {

namespace {

// On-disk layout of the binary dataset format (shared with dataset_io):
// magic, row count, has_values flag — all uint64 — then n packed Points,
// then n packed value doubles when has_values is set.
constexpr uint64_t kBinaryMagic = 0x5641530042494e31ULL;  // "VAS\0BIN1"
constexpr uint64_t kHeaderBytes = 3 * sizeof(uint64_t);

bool HasBinaryExtension(const std::string& path) {
  return path.size() > 4 && path.substr(path.size() - 4) == ".bin";
}

}  // namespace

// ---------------------------------------------------------------------------
// DatasetReader

Status DatasetReader::Accumulate(const DatasetChunk& chunk,
                                 const std::string& source) {
  for (size_t i = 0; i < chunk.size(); ++i) {
    const Point p = chunk.points[i];
    if (!std::isfinite(p.x) || !std::isfinite(p.y)) {
      return Status::InvalidArgument(StrFormat(
          "%s: data row %zu has a non-finite coordinate (%g, %g)",
          source.c_str(), chunk.first_row + i + 1, p.x, p.y));
    }
    bounds_.Extend(p);
  }
  rows_read_ += chunk.size();
  return Status::OK();
}

// ---------------------------------------------------------------------------
// CsvDatasetReader

CsvDatasetReader::CsvDatasetReader(const std::string& path,
                                   size_t chunk_rows)
    : DatasetReader(chunk_rows), path_(path), in_(path) {}

StatusOr<std::unique_ptr<CsvDatasetReader>> CsvDatasetReader::Open(
    const std::string& path, size_t chunk_rows) {
  std::unique_ptr<CsvDatasetReader> reader(
      new CsvDatasetReader(path, chunk_rows));
  if (!reader->in_) {
    return Status::IoError("cannot open for read: " + path);
  }
  return reader;
}

StatusOr<bool> CsvDatasetReader::Next(DatasetChunk* chunk) {
  chunk->Clear();
  chunk->first_row = rows_read();
  chunk->points.reserve(chunk_rows());
  chunk->values.reserve(chunk_rows());
  std::string line;
  while (chunk->size() < chunk_rows() && std::getline(in_, line)) {
    ++line_no_;
    std::string_view stripped = StripWhitespace(line);
    if (stripped.empty()) continue;
    auto fields = Split(stripped, ',');
    if (!seen_first_line_) {
      seen_first_line_ = true;
      // Header line: skip if the first field is not numeric.
      if (!ParseDouble(fields[0]).ok()) continue;
    }
    if (fields.size() < 2) {
      return Status::InvalidArgument(StrFormat(
          "%s:%zu: expected at least 2 fields", path_.c_str(), line_no_));
    }
    auto x = ParseDouble(fields[0]);
    auto y = ParseDouble(fields[1]);
    if (!x.ok()) return x.status();
    if (!y.ok()) return y.status();
    // The first data row decides whether the source has a value column;
    // later rows must agree, so a 2-column file can never round-trip as
    // a fabricated all-zero value column (and vice versa).
    if (!values_decided_) {
      values_decided_ = true;
      has_values_ = fields.size() >= 3;
    }
    if (has_values_ != (fields.size() >= 3)) {
      return Status::InvalidArgument(StrFormat(
          "%s:%zu: expected %zu fields like the first row", path_.c_str(),
          line_no_, has_values_ ? size_t{3} : size_t{2}));
    }
    if (has_values_) {
      auto v = ParseDouble(fields[2]);
      if (!v.ok()) return v.status();
      chunk->values.push_back(*v);
    }
    chunk->points.push_back({*x, *y});
  }
  VAS_RETURN_IF_ERROR(Accumulate(*chunk, path_));
  return !chunk->empty();
}

// ---------------------------------------------------------------------------
// BinaryDatasetReader

BinaryDatasetReader::BinaryDatasetReader(const std::string& path,
                                         size_t chunk_rows)
    : DatasetReader(chunk_rows),
      path_(path),
      in_(path, std::ios::binary) {}

StatusOr<std::unique_ptr<BinaryDatasetReader>> BinaryDatasetReader::Open(
    const std::string& path, size_t chunk_rows) {
  std::unique_ptr<BinaryDatasetReader> reader(
      new BinaryDatasetReader(path, chunk_rows));
  if (!reader->in_) {
    return Status::IoError("cannot open for read: " + path);
  }
  auto magic = ReadU64(reader->in_, path);
  auto n = ReadU64(reader->in_, path);
  auto has_values = ReadU64(reader->in_, path);
  if (!magic.ok() || !n.ok() || !has_values.ok() ||
      *magic != kBinaryMagic) {
    return Status::InvalidArgument("not a VAS binary dataset: " + path);
  }
  reader->total_rows_ = *n;
  reader->has_values_ = *has_values != 0;
  reader->points_offset_ = kHeaderBytes;
  reader->values_offset_ = kHeaderBytes + *n * sizeof(Point);
  return reader;
}

StatusOr<bool> BinaryDatasetReader::Next(DatasetChunk* chunk) {
  chunk->Clear();
  chunk->first_row = next_row_;
  size_t rows = std::min(chunk_rows(), total_rows_ - next_row_);
  if (rows == 0) return false;
  chunk->points.resize(rows);
  in_.seekg(static_cast<std::streamoff>(points_offset_ +
                                        next_row_ * sizeof(Point)));
  Status read = ReadRaw(in_, chunk->points.data(), rows * sizeof(Point),
                        path_);
  if (read.ok() && has_values_) {
    chunk->values.resize(rows);
    in_.seekg(static_cast<std::streamoff>(values_offset_ +
                                          next_row_ * sizeof(double)));
    read = ReadRaw(in_, chunk->values.data(), rows * sizeof(double), path_);
  }
  if (!read.ok()) {
    return Status::IoError("truncated binary dataset: " + path_);
  }
  next_row_ += rows;
  VAS_RETURN_IF_ERROR(Accumulate(*chunk, path_));
  return true;
}

StatusOr<std::unique_ptr<DatasetReader>> OpenDatasetReader(
    const std::string& path, size_t chunk_rows) {
  if (HasBinaryExtension(path)) {
    auto reader = BinaryDatasetReader::Open(path, chunk_rows);
    if (!reader.ok()) return reader.status();
    return std::unique_ptr<DatasetReader>(std::move(*reader));
  }
  auto reader = CsvDatasetReader::Open(path, chunk_rows);
  if (!reader.ok()) return reader.status();
  return std::unique_ptr<DatasetReader>(std::move(*reader));
}

// ---------------------------------------------------------------------------
// BinaryDatasetWriter

BinaryDatasetWriter::BinaryDatasetWriter(const std::string& path)
    : path_(path),
      tmp_path_(path + ".tmp"),
      values_spool_path_(path + ".values.spool"),
      out_(tmp_path_, std::ios::binary | std::ios::in | std::ios::out |
                          std::ios::trunc) {}

StatusOr<std::unique_ptr<BinaryDatasetWriter>> BinaryDatasetWriter::Open(
    const std::string& path) {
  std::unique_ptr<BinaryDatasetWriter> writer(new BinaryDatasetWriter(path));
  if (!writer->out_) {
    return Status::IoError("cannot open for write: " + path);
  }
  // Placeholder header; Finish() rewrites it with the real counts.
  VAS_RETURN_IF_ERROR(WriteU64(writer->out_, kBinaryMagic, path));
  VAS_RETURN_IF_ERROR(WriteU64(writer->out_, 0, path));
  VAS_RETURN_IF_ERROR(WriteU64(writer->out_, 0, path));
  return writer;
}

BinaryDatasetWriter::~BinaryDatasetWriter() {
  if (!finished_) {
    if (values_spool_.is_open()) values_spool_.close();
    std::remove(values_spool_path_.c_str());
    if (out_.is_open()) out_.close();
    std::remove(tmp_path_.c_str());
  }
}

Status BinaryDatasetWriter::Append(const DatasetChunk& chunk) {
  if (chunk.has_values() && chunk.values.size() != chunk.points.size()) {
    return Status::InvalidArgument(
        "chunk value column not parallel to points");
  }
  return Append(chunk.points.data(),
                chunk.has_values() ? chunk.values.data() : nullptr,
                chunk.size());
}

Status BinaryDatasetWriter::Append(const Point* points, const double* values,
                                   size_t count) {
  if (finished_) {
    return Status::FailedPrecondition("Append() after Finish(): " + path_);
  }
  if (count == 0) return Status::OK();
  bool with_values = values != nullptr;
  if (!decided_values_) {
    decided_values_ = true;
    has_values_ = with_values;
    if (has_values_) {
      values_spool_.open(values_spool_path_,
                         std::ios::binary | std::ios::trunc);
      if (!values_spool_) {
        return Status::IoError("cannot open for write: " +
                               values_spool_path_);
      }
    }
  } else if (with_values != has_values_) {
    return Status::InvalidArgument(
        "chunk value column presence changed mid-stream: " + path_);
  }
  VAS_RETURN_IF_ERROR(WriteRaw(out_, points, count * sizeof(Point), path_));
  if (has_values_) {
    VAS_RETURN_IF_ERROR(WriteRaw(values_spool_, values,
                                 count * sizeof(double),
                                 values_spool_path_));
  }
  rows_written_ += count;
  for (size_t i = 0; i < count; ++i) bounds_.Extend(points[i]);
  return Status::OK();
}

Status BinaryDatasetWriter::Finish() {
  if (finished_) return Status::OK();
  if (has_values_) {
    values_spool_.close();
    if (!values_spool_) {
      return Status::IoError("write failed: " + values_spool_path_);
    }
    std::ifstream spool(values_spool_path_, std::ios::binary);
    if (!spool) {
      return Status::IoError("cannot open for read: " + values_spool_path_);
    }
    std::vector<char> buffer(1 << 20);
    while (spool) {
      spool.read(buffer.data(),
                 static_cast<std::streamsize>(buffer.size()));
      std::streamsize got = spool.gcount();
      if (got > 0) out_.write(buffer.data(), got);
    }
    spool.close();
    std::remove(values_spool_path_.c_str());
  }
  out_.seekp(0);
  VAS_RETURN_IF_ERROR(WriteU64(out_, kBinaryMagic, path_));
  VAS_RETURN_IF_ERROR(WriteU64(out_, rows_written_, path_));
  VAS_RETURN_IF_ERROR(WriteU64(out_, has_values_ ? 1 : 0, path_));
  out_.close();
  if (!out_) return Status::IoError("write failed: " + path_);
  if (std::rename(tmp_path_.c_str(), path_.c_str()) != 0) {
    return Status::IoError("cannot rename " + tmp_path_ + " to " + path_);
  }
  finished_ = true;
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Pipelines

StatusOr<IngestStats> IngestToBinary(
    DatasetReader& reader, const std::string& out_path,
    const std::function<void(const IngestStats&)>& progress) {
  auto writer = BinaryDatasetWriter::Open(out_path);
  if (!writer.ok()) return writer.status();
  DatasetChunk chunk;
  for (;;) {
    auto more = reader.Next(&chunk);
    if (!more.ok()) return more.status();
    if (!*more) break;
    VAS_RETURN_IF_ERROR((*writer)->Append(chunk));
    if (progress) {
      progress(
          IngestStats{reader.rows_read(), reader.bounds(),
                      reader.has_values()});
    }
  }
  VAS_RETURN_IF_ERROR((*writer)->Finish());
  return IngestStats{(*writer)->rows_written(), (*writer)->bounds(),
                     reader.has_values()};
}

StatusOr<Dataset> MaterializeDataset(DatasetReader& reader,
                                     std::string name) {
  Dataset out;
  out.name = std::move(name);
  DatasetChunk chunk;
  for (;;) {
    auto more = reader.Next(&chunk);
    if (!more.ok()) return more.status();
    if (!*more) break;
    out.points.insert(out.points.end(), chunk.points.begin(),
                      chunk.points.end());
    if (chunk.has_values()) {
      out.values.insert(out.values.end(), chunk.values.begin(),
                        chunk.values.end());
    }
  }
  // The scan already visited every point; hand its bounds to the cache
  // so downstream consumers skip their own O(n) pass.
  out.SetCachedBounds(reader.bounds());
  return out;
}

}  // namespace vas
