// Streaming ingest: chunked CSV/binary readers (bounded per-chunk
// memory, running bounds/row-count accumulation, non-finite
// coordinates refused), the chunk-at-a-time binary writer (a failed
// stream leaves the previous file and no temporaries), and the CSV ->
// binary ingest pipeline vas_tool uses.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "data/dataset_io.h"
#include "data/dataset_stream.h"
#include "test_util.h"

namespace vas {
namespace {

class DatasetStreamTest : public ::testing::Test {
 protected:
  test::ScopedTempFile csv_{"vas_stream_test.csv"};
  test::ScopedTempFile bin_{"vas_stream_test.bin"};
  test::ScopedTempFile out_{"vas_stream_test_out.bin"};
};

TEST_F(DatasetStreamTest, CsvReaderChunksAreBoundedAndComplete) {
  Dataset d = test::Skewed(1000);
  ASSERT_TRUE(WriteCsv(d, csv_.path()).ok());

  auto reader = CsvDatasetReader::Open(csv_.path(), 128);
  ASSERT_TRUE(reader.ok());
  DatasetChunk chunk;
  size_t total = 0, chunks = 0;
  for (;;) {
    auto more = (*reader)->Next(&chunk);
    ASSERT_TRUE(more.ok());
    if (!*more) break;
    ++chunks;
    EXPECT_LE(chunk.size(), 128u);  // bounded per-chunk memory
    EXPECT_EQ(chunk.first_row, total);
    ASSERT_EQ(chunk.values.size(), chunk.points.size());
    // Spot-check content against the source row indices.
    for (size_t i = 0; i < chunk.size(); i += 31) {
      EXPECT_DOUBLE_EQ(chunk.points[i].x, d.points[chunk.first_row + i].x);
      EXPECT_DOUBLE_EQ(chunk.values[i], d.values[chunk.first_row + i]);
    }
    total += chunk.size();
  }
  EXPECT_EQ(total, d.size());
  EXPECT_EQ(chunks, (d.size() + 127) / 128);
  EXPECT_EQ((*reader)->rows_read(), d.size());
  EXPECT_EQ((*reader)->bounds(), d.Bounds());
}

TEST_F(DatasetStreamTest, BinaryReaderStreamsPointsAndValues) {
  Dataset d = test::Splom(5000);
  ASSERT_TRUE(WriteBinary(d, bin_.path()).ok());

  auto reader = BinaryDatasetReader::Open(bin_.path(), 512);
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ((*reader)->total_rows(), d.size());
  EXPECT_TRUE((*reader)->has_values());
  DatasetChunk chunk;
  size_t total = 0;
  for (;;) {
    auto more = (*reader)->Next(&chunk);
    ASSERT_TRUE(more.ok());
    if (!*more) break;
    EXPECT_LE(chunk.size(), 512u);
    for (size_t i = 0; i < chunk.size(); i += 97) {
      EXPECT_EQ(chunk.points[i], d.points[chunk.first_row + i]);
      EXPECT_EQ(chunk.values[i], d.values[chunk.first_row + i]);
    }
    total += chunk.size();
  }
  EXPECT_EQ(total, d.size());
  EXPECT_EQ((*reader)->bounds(), d.Bounds());
}

TEST_F(DatasetStreamTest, OpenDatasetReaderDispatchesByExtension) {
  Dataset d = test::Skewed(200);
  ASSERT_TRUE(WriteCsv(d, csv_.path()).ok());
  ASSERT_TRUE(WriteBinary(d, bin_.path()).ok());
  auto csv = OpenDatasetReader(csv_.path());
  auto bin = OpenDatasetReader(bin_.path());
  ASSERT_TRUE(csv.ok());
  ASSERT_TRUE(bin.ok());
  auto via_csv = MaterializeDataset(**csv, "csv");
  auto via_bin = MaterializeDataset(**bin, "bin");
  ASSERT_TRUE(via_csv.ok());
  ASSERT_TRUE(via_bin.ok());
  EXPECT_EQ(via_csv->size(), d.size());
  EXPECT_EQ(via_bin->points, d.points);
  EXPECT_FALSE(OpenDatasetReader("/nonexistent/nope.csv").ok());
}

TEST_F(DatasetStreamTest, MaterializeSeedsBoundsCache) {
  Dataset d = test::Skewed(1500);
  ASSERT_TRUE(WriteBinary(d, bin_.path()).ok());
  auto back = ReadBinary(bin_.path());
  ASSERT_TRUE(back.ok());
  // The cached bounds from the scan must agree with a fresh O(n) pass.
  EXPECT_EQ(back->Bounds(), Rect::BoundingBox(back->points));
}

TEST_F(DatasetStreamTest, WriterRoundTripsChunkByChunk) {
  Dataset d = test::Skewed(3000);
  auto writer = BinaryDatasetWriter::Open(out_.path());
  ASSERT_TRUE(writer.ok());
  // Feed uneven chunk sizes to exercise the spool splicing.
  size_t offsets[] = {0, 7, 1000, 1001, 2500, 3000};
  for (size_t i = 0; i + 1 < sizeof(offsets) / sizeof(offsets[0]); ++i) {
    DatasetChunk chunk;
    chunk.first_row = offsets[i];
    for (size_t r = offsets[i]; r < offsets[i + 1]; ++r) {
      chunk.points.push_back(d.points[r]);
      chunk.values.push_back(d.values[r]);
    }
    ASSERT_TRUE((*writer)->Append(chunk).ok());
  }
  ASSERT_TRUE((*writer)->Finish().ok());
  EXPECT_EQ((*writer)->rows_written(), d.size());
  EXPECT_EQ((*writer)->bounds(), d.Bounds());

  auto back = ReadBinary(out_.path());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->points, d.points);
  EXPECT_EQ(back->values, d.values);
}

TEST_F(DatasetStreamTest, WriterHandlesValuelessStreams) {
  DatasetChunk chunk;
  chunk.points = {{0, 0}, {1, 2}, {3, 4}};
  auto writer = BinaryDatasetWriter::Open(out_.path());
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->Append(chunk).ok());
  ASSERT_TRUE((*writer)->Finish().ok());
  auto back = ReadBinary(out_.path());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->size(), 3u);
  EXPECT_FALSE(back->has_values());
}

TEST_F(DatasetStreamTest, WriterRejectsValuePresenceFlips) {
  auto writer = BinaryDatasetWriter::Open(out_.path());
  ASSERT_TRUE(writer.ok());
  DatasetChunk with_values;
  with_values.points = {{0, 0}};
  with_values.values = {1.0};
  DatasetChunk without_values;
  without_values.points = {{1, 1}};
  ASSERT_TRUE((*writer)->Append(with_values).ok());
  EXPECT_FALSE((*writer)->Append(without_values).ok());
  // Abandoned unfinished: no file appears, temporary or final.
  writer->reset();
  EXPECT_FALSE(std::filesystem::exists(out_.path()));
  EXPECT_FALSE(std::filesystem::exists(out_.path() + ".tmp"));
  EXPECT_FALSE(std::filesystem::exists(out_.path() + ".values.spool"));
}

TEST_F(DatasetStreamTest, FailedIngestLeavesThePreviousFileIntact) {
  // A stream that fails on its last row must not touch what is already
  // at the output path, and must leave no temporary or spool file.
  Dataset d = test::Skewed(300);
  ASSERT_TRUE(WriteBinary(d, out_.path()).ok());
  std::string before;
  {
    std::ifstream in(out_.path(), std::ios::binary);
    before.assign(std::istreambuf_iterator<char>(in), {});
  }
  ASSERT_FALSE(before.empty());
  {
    std::ofstream out(csv_.path(), std::ios::trunc);
    out << "x,y,value\n";
    for (int i = 0; i < 100; ++i) out << i << "," << i * 2 << ",1\n";
    out << "0.5,inf,3\n";
  }
  auto reader = CsvDatasetReader::Open(csv_.path(), 16);
  ASSERT_TRUE(reader.ok());
  auto stats = IngestToBinary(**reader, out_.path());
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kInvalidArgument);

  std::string after;
  {
    std::ifstream in(out_.path(), std::ios::binary);
    after.assign(std::istreambuf_iterator<char>(in), {});
  }
  EXPECT_EQ(after, before);
  EXPECT_FALSE(std::filesystem::exists(out_.path() + ".tmp"));
  EXPECT_FALSE(std::filesystem::exists(out_.path() + ".values.spool"));
}

TEST_F(DatasetStreamTest, IngestConvertsCsvToBinaryWithProgress) {
  Dataset d = test::Skewed(4000);
  ASSERT_TRUE(WriteCsv(d, csv_.path()).ok());

  auto reader = CsvDatasetReader::Open(csv_.path(), 256);
  ASSERT_TRUE(reader.ok());
  std::vector<size_t> progress_rows;
  auto stats = IngestToBinary(**reader, out_.path(),
                              [&](const IngestStats& s) {
                                progress_rows.push_back(s.rows);
                              });
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->rows, d.size());
  EXPECT_EQ(stats->bounds, d.Bounds());
  // Progress fired once per chunk with monotonically growing counts.
  ASSERT_EQ(progress_rows.size(), (d.size() + 255) / 256);
  EXPECT_EQ(progress_rows.back(), d.size());
  for (size_t i = 1; i < progress_rows.size(); ++i) {
    EXPECT_GT(progress_rows[i], progress_rows[i - 1]);
  }

  auto back = ReadBinary(out_.path());
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back->size(), d.size());
  for (size_t i = 0; i < d.size(); i += 101) {
    EXPECT_DOUBLE_EQ(back->points[i].x, d.points[i].x);
    EXPECT_DOUBLE_EQ(back->points[i].y, d.points[i].y);
    EXPECT_DOUBLE_EQ(back->values[i], d.values[i]);
  }
}

TEST_F(DatasetStreamTest, ValuelessCsvIngestsWithoutFabricatedValues) {
  // Regression: 2-column CSVs used to stream a fabricated all-zero
  // value column, so IngestToBinary stamped has_values=true and wrote 8
  // bytes/row of zeros — poisoning every Dataset::has_values() consumer
  // downstream and inflating the binary.
  {
    std::ofstream out(csv_.path());
    out << "x,y\n";
    for (int i = 0; i < 100; ++i) out << i << "," << 2 * i << "\n";
  }
  auto reader = CsvDatasetReader::Open(csv_.path(), 32);
  ASSERT_TRUE(reader.ok());
  auto stats = IngestToBinary(**reader, out_.path());
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->rows, 100u);
  EXPECT_FALSE(stats->has_values);
  EXPECT_FALSE((*reader)->has_values());

  // The binary holds header + points only: no trailing value section.
  EXPECT_EQ(std::filesystem::file_size(out_.path()),
            3 * sizeof(uint64_t) + 100 * sizeof(Point));
  auto back = ReadBinary(out_.path());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->size(), 100u);
  EXPECT_FALSE(back->has_values());
  EXPECT_EQ(back->points[7], (Point{7, 14}));

  // With a third column the value column is real, not defaulted.
  {
    std::ofstream out(csv_.path());
    out << "x,y,value\n1,2,3\n4,5,6\n";
  }
  auto with_values = CsvDatasetReader::Open(csv_.path(), 32);
  ASSERT_TRUE(with_values.ok());
  auto d = MaterializeDataset(**with_values, "v");
  ASSERT_TRUE(d.ok());
  ASSERT_TRUE(d->has_values());
  EXPECT_DOUBLE_EQ(d->values[1], 6.0);
}

TEST_F(DatasetStreamTest, CsvErrorsSurfaceMidStream) {
  // Row 3 is malformed, or has a coordinate no sampler or index can
  // place; the last three name it.
  for (const char* row : {"7,oops,9", "nan,0.5,3", "0.5,inf,3", "-inf,2,3"}) {
    SCOPED_TRACE(row);
    {
      std::ofstream out(csv_.path(), std::ios::trunc);
      out << "x,y,value\n1,2,3\n4,5,6\n" << row << "\n";
    }
    auto reader = CsvDatasetReader::Open(csv_.path(), 2);
    ASSERT_TRUE(reader.ok());
    DatasetChunk chunk;
    auto first = (*reader)->Next(&chunk);  // rows 1-2 parse fine
    ASSERT_TRUE(first.ok());
    EXPECT_EQ(chunk.size(), 2u);
    auto third = (*reader)->Next(&chunk);
    ASSERT_FALSE(third.ok());
    EXPECT_EQ(third.status().code(), StatusCode::kInvalidArgument);
    if (std::string(row) != "7,oops,9") {
      EXPECT_NE(third.status().ToString().find("data row 3"),
                std::string::npos)
          << third.status().ToString();
    }
  }
  // A non-finite value is not a coordinate: it still loads.
  {
    std::ofstream out(csv_.path(), std::ios::trunc);
    out << "x,y,value\n1,2,3\n4,5,nan\n";
  }
  auto loaded = ReadCsv(csv_.path());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->size(), 2u);
}

TEST_F(DatasetStreamTest, BinaryPointWithANanCoordinateIsRefused) {
  Dataset d;
  d.points = {{0.0, 0.0}, {1.0, 1.0}, {std::nan(""), 0.5}};
  ASSERT_TRUE(WriteBinary(d, bin_.path()).ok());
  auto back = ReadBinary(bin_.path());
  ASSERT_FALSE(back.ok());
  EXPECT_EQ(back.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(back.status().ToString().find("data row 3"), std::string::npos)
      << back.status().ToString();
}

TEST_F(DatasetStreamTest, EmptyCsvStreamsZeroRows) {
  {
    std::ofstream out(csv_.path());
    out << "x,y,value\n";
  }
  auto reader = CsvDatasetReader::Open(csv_.path(), 64);
  ASSERT_TRUE(reader.ok());
  DatasetChunk chunk;
  auto more = (*reader)->Next(&chunk);
  ASSERT_TRUE(more.ok());
  EXPECT_FALSE(*more);
  EXPECT_EQ((*reader)->rows_read(), 0u);
}

}  // namespace
}  // namespace vas
