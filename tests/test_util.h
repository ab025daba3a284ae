// Shared test fixtures: the standard seeded datasets every suite draws
// from, an RAII scratch-file helper for I/O round-trip tests, and a
// writer for retired CAT1 catalog files. Keeping the generator defaults
// here (seed 7 Geolife, seed 11 SPLOM — the same defaults bench_common.h
// uses) means every suite exercises the same deterministic workload.
#ifndef VAS_TESTS_TEST_UTIL_H_
#define VAS_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <random>
#include <string>
#include <system_error>
#include <vector>

#include "data/dataset.h"
#include "data/generators.h"
#include "data/serial.h"
#include "engine/sample_catalog.h"
#include "util/status.h"

namespace vas {
namespace test {

/// The standard skewed map-plot workload (Geolife substitute):
/// heavy-tailed hot spots, road filaments, sparse background.
/// Deterministic in (n, seed).
inline Dataset Skewed(size_t n, uint64_t seed = 7) {
  GeolifeLikeGenerator::Options opt;
  opt.num_points = n;
  opt.seed = seed;
  return GeolifeLikeGenerator(opt).Generate();
}

/// The SPLOM workload projected onto its first two columns with the
/// third as color/value. Deterministic in (n, seed).
inline Dataset Splom(size_t n, uint64_t seed = 11) {
  SplomGenerator::Options opt;
  opt.num_rows = n;
  opt.seed = seed;
  return SplomGenerator(opt).Generate(0, 1, 2);
}

/// FNV-1a over the ids' 8 little-endian bytes each: a short pin for a
/// sample's sorted ids.
inline uint64_t Fingerprint(const std::vector<size_t>& ids) {
  uint64_t h = 14695981039346656037ull;
  for (size_t id : ids) {
    const uint64_t v = id;
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (v >> (8 * byte)) & 0xff;
      h *= 1099511628211ull;
    }
  }
  return h;
}

/// Drawn once per process; keeps concurrent runs of the same test
/// binary from sharing scratch-file paths, without POSIX-only getpid().
inline const std::string& ProcessUniqueSuffix() {
  static const std::string suffix = std::to_string(std::random_device{}());
  return suffix;
}

/// A scratch path under the system temp dir — a file, or a directory
/// the test creates there — removed with its contents on destruction
/// (and on construction, in case a previous crashed run left one). The
/// name gets a per-process suffix so concurrent runs of the same test
/// binary cannot clobber each other's file.
class ScopedTempFile {
 public:
  explicit ScopedTempFile(const std::string& name)
      : path_((std::filesystem::temp_directory_path() /
               (ProcessUniqueSuffix() + "_" + name))
                  .string()) {
    Remove();
  }
  ~ScopedTempFile() { Remove(); }
  ScopedTempFile(const ScopedTempFile&) = delete;
  ScopedTempFile& operator=(const ScopedTempFile&) = delete;

  const std::string& path() const { return path_; }

 private:
  void Remove() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  std::string path_;
};

/// Fixture base for suites that need one scratch file per test.
class TempFileTest : public ::testing::Test {
 protected:
  explicit TempFileTest(const std::string& name) : file_(name) {}
  const std::string& path() const { return file_.path(); }

 private:
  ScopedTempFile file_;
};

/// Writes `catalog` in the retired CAT1 serial format: the u64 magic
/// "VAS\0CAT1", the u64 rung count, then per rung its method
/// (length-prefixed), u64 id count, u64 density flag, the packed ids
/// and the packed densities when flagged. The library no longer reads
/// CAT1; this is the fixture that checks every reader refuses it.
inline Status WriteCatalogV1(const SampleCatalog& catalog,
                             const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IoError("cannot open for write: " + path);
  VAS_RETURN_IF_ERROR(WriteU64(out, 0x5641530043415431ULL, path));
  VAS_RETURN_IF_ERROR(WriteU64(out, catalog.samples().size(), path));
  for (const SampleSet& rung : catalog.samples()) {
    VAS_RETURN_IF_ERROR(WriteLengthPrefixedString(out, rung.method, path));
    VAS_RETURN_IF_ERROR(WriteU64(out, rung.size(), path));
    VAS_RETURN_IF_ERROR(WriteU64(out, rung.has_density() ? 1 : 0, path));
    VAS_RETURN_IF_ERROR(WriteRaw(out, rung.ids.data(),
                                 rung.size() * sizeof(uint64_t), path));
    if (rung.has_density()) {
      VAS_RETURN_IF_ERROR(WriteRaw(out, rung.density.data(),
                                   rung.size() * sizeof(uint64_t), path));
    }
  }
  return Status::OK();
}

}  // namespace test
}  // namespace vas

#endif  // VAS_TESTS_TEST_UTIL_H_
