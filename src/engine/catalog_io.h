// Catalog persistence compatibility surface (paper §II-B: the sample
// ladder is built once, offline, and then served like any other index).
// Two on-disk formats exist:
//
//   CAT1 (legacy, u64 magic "VAS\0CAT1" at offset 0): one serial blob —
//     u64 rung count, then per rung the standalone sample framing
//     (method, id count, has_density, packed ids, optional densities).
//   CAT2 (paged, engine/catalog_store): fixed-size CRC-checked pages
//     with a per-rung grid-cell index, mmap-able and partially loadable.
//
// WriteCatalog writes CAT2 by default; ReadCatalog sniffs the magic and
// loads either, so every CAT1 file written by earlier builds keeps
// loading byte-identically. CatalogManager spills through the CAT2
// writer directly (with cell partitioning); these wrappers remain the
// explicit save/load surface (vas_tool save-catalog / load-catalog) and
// the migration path (vas_tool convert-catalog).
#ifndef VAS_ENGINE_CATALOG_IO_H_
#define VAS_ENGINE_CATALOG_IO_H_

#include <string>

#include "engine/sample_catalog.h"
#include "util/status.h"

namespace vas {

/// Writes every rung of `catalog` to `path` in the CAT2 paged format
/// (1×1 cell grids — no dataset is available at this surface; pass the
/// dataset to WriteCatalogPaged for cell-partitioned files),
/// overwriting.
Status WriteCatalog(const SampleCatalog& catalog, const std::string& path);

/// Writes the legacy CAT1 serial format. Kept for format back-compat
/// tests and for producing fixtures older builds can read.
Status WriteCatalogV1(const SampleCatalog& catalog, const std::string& path);

/// Reads a catalog written by either WriteCatalog (CAT1 or CAT2,
/// auto-detected by magic). Validates structure but not id range; pair
/// with ValidateCatalogAgainst() before serving.
StatusOr<SampleCatalog> ReadCatalog(const std::string& path);

/// Checks every rung's ids against a dataset of `dataset_size` rows.
Status ValidateCatalogAgainst(const SampleCatalog& catalog,
                              size_t dataset_size);

/// Approximate heap footprint of a resident catalog, rung layouts
/// included — the accounting unit of CatalogManager's memory budget.
size_t CatalogMemoryBytes(const SampleCatalog& catalog);

}  // namespace vas

#endif  // VAS_ENGINE_CATALOG_IO_H_
