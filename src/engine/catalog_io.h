// Catalog persistence helpers (paper §II-B: the sample ladder is built
// once, offline, and then served like any other index). Two on-disk
// formats exist:
//
//   CAT1 (legacy, u64 magic "VAS\0CAT1" at offset 0): one serial blob —
//     u64 rung count, then per rung the standalone sample framing
//     (method, id count, has_density, packed ids, optional densities).
//   CAT2 (paged, engine/catalog_store): fixed-size CRC-checked pages
//     with a per-rung grid-cell index, mmap-able and partially loadable.
//
// Every writer produces CAT2 (WriteCatalogPaged; CatalogManager::
// SaveCatalog and spills pass the dataset for cell partitioning).
// ReadCatalog sniffs the magic and loads either, so CAT1 files written
// by earlier builds keep loading byte-identically: CatalogManager::
// LoadCatalog registers them resident, and vas_tool convert-catalog
// rewrites them as CAT2.
#ifndef VAS_ENGINE_CATALOG_IO_H_
#define VAS_ENGINE_CATALOG_IO_H_

#include <string>

#include "engine/sample_catalog.h"
#include "util/status.h"

namespace vas {

/// Reads a CAT1 or CAT2 catalog file, auto-detected by magic.
/// Validates structure but not id range; pair with
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
