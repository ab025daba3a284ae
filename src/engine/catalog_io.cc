#include "engine/catalog_io.h"

#include <memory>

#include "engine/catalog_store.h"
#include "sampling/sample_io.h"

namespace vas {

StatusOr<SampleCatalog> ReadCatalog(const std::string& path) {
  VAS_ASSIGN_OR_RETURN(std::shared_ptr<const CatalogStore> store,
                       CatalogStore::Open(path));
  return store->ReadAll(/*dataset_size=*/0);
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
