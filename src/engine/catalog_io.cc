#include "engine/catalog_io.h"

#include <cstdint>
#include <fstream>
#include <utility>
#include <vector>

#include "data/serial.h"
#include "engine/catalog_store.h"
#include "sampling/sample_io.h"

namespace vas {

StatusOr<SampleCatalog> ReadCatalog(const std::string& path) {
  VAS_ASSIGN_OR_RETURN(CatalogFormat format, SniffCatalogFormat(path));
  if (format == CatalogFormat::kV2) {
    VAS_ASSIGN_OR_RETURN(std::shared_ptr<const CatalogStore> store,
                         CatalogStore::Open(path));
    return store->ReadAll(/*dataset_size=*/0);
  }
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open for read: " + path);
  auto magic = ReadU64(in, path);
  if (!magic.ok() || *magic != kCatalogMagicV1) {
    return Status::InvalidArgument("not a VAS catalog file: " + path);
  }
  VAS_ASSIGN_OR_RETURN(uint64_t rungs, ReadU64(in, path));
  // A rung body is at least its three header u64s; bound the count by
  // the bytes actually present so corrupt headers fail cleanly.
  VAS_ASSIGN_OR_RETURN(size_t remaining, RemainingBytes(in, path));
  if (rungs > remaining / (3 * sizeof(uint64_t))) {
    return Status::InvalidArgument("corrupt catalog header: " + path);
  }
  std::vector<SampleSet> samples;
  samples.reserve(rungs);
  for (uint64_t i = 0; i < rungs; ++i) {
    VAS_ASSIGN_OR_RETURN(SampleSet rung, ReadSampleSetFrom(in, path));
    samples.push_back(std::move(rung));
  }
  return SampleCatalog(std::move(samples));
}

Status ValidateCatalogAgainst(const SampleCatalog& catalog,
                              size_t dataset_size) {
  for (const SampleSet& rung : catalog.samples()) {
    VAS_RETURN_IF_ERROR(ValidateSampleAgainst(rung, dataset_size));
  }
  return Status::OK();
}

size_t CatalogMemoryBytes(const SampleCatalog& catalog) {
  size_t bytes = sizeof(SampleCatalog);
  for (size_t k = 0; k < catalog.samples().size(); ++k) {
    const SampleSet& rung = catalog.samples()[k];
    bytes += sizeof(SampleSet) + rung.method.capacity();
    bytes += rung.ids.capacity() * sizeof(size_t);
    bytes += rung.density.capacity() * sizeof(uint64_t);
    if (const auto& layout = catalog.layout(k)) {
      bytes += sizeof(RungLayout);
      bytes += layout->positions.capacity() * sizeof(uint32_t);
      bytes += (layout->cell_counts.capacity() +
                layout->cell_starts.capacity()) *
               sizeof(uint64_t);
    }
  }
  return bytes;
}

}  // namespace vas
