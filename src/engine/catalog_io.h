// Catalog persistence helpers (paper §II-B: the sample ladder is built
// once, offline, and then served like any other index). A catalog file
// is the paged CAT2 format of engine/catalog_store: fixed-size
// CRC-checked pages with a per-rung grid-cell index, mmap-able and
// partially loadable. Every writer produces it (WriteCatalogPaged;
// CatalogManager::SaveCatalog and spills pass the dataset for cell
// partitioning), and every reader opens it through CatalogStore::Open.
#ifndef VAS_ENGINE_CATALOG_IO_H_
#define VAS_ENGINE_CATALOG_IO_H_

#include <string>

#include "engine/sample_catalog.h"
#include "util/status.h"

namespace vas {

/// Reads every rung of the CAT2 catalog file at `path`; any other file
/// is InvalidArgument. Validates structure but not id range; pair with
/// ValidateCatalogAgainst() before serving.
StatusOr<SampleCatalog> ReadCatalog(const std::string& path);

/// Checks every rung's ids against a dataset of `dataset_size` rows.
Status ValidateCatalogAgainst(const SampleCatalog& catalog,
                              size_t dataset_size);

/// Approximate heap footprint of a resident catalog, rung layouts
/// included — the accounting unit of CatalogManager's memory budget.
size_t CatalogMemoryBytes(const SampleCatalog& catalog);

}  // namespace vas

#endif  // VAS_ENGINE_CATALOG_IO_H_
