// Catalog persistence: cold-load-from-disk vs rebuild. The ParkCM16
// design treats the sample ladder as a durable offline artifact — build
// once, serve forever. This bench quantifies that claim over a
// >=1M-point dataset: (1) build the ladder from scratch, (2) save it to
// one catalog file, (3) cold-load it back and verify byte-identical
// rung ids, reporting the load/rebuild speedup. It then drives the
// CatalogManager memory budget: two catalogs under a one-catalog
// budget, showing LRU spill + transparent reload with identical rungs.
// Finally it measures the paged (CAT2) store itself: cold full-load
// p50 vs single-tile partial-touch p50, and the touched-page bytes one
// tile faults in vs a full materialization — the partial-load payoff.
#include "bench_common.h"

#include <algorithm>
#include <cinttypes>
#include <memory>
#include <vector>

#include "engine/catalog_io.h"
#include "engine/catalog_manager.h"
#include "engine/catalog_store.h"
#include "engine/session.h"
#include "util/stopwatch.h"

namespace vas::bench {
namespace {

std::unique_ptr<Sampler> MakeSampler(const std::string& method) {
  InterchangeSampler::Options vopt;
  vopt.max_passes = 1;
  if (method == "vas") return std::make_unique<InterchangeSampler>(vopt);
  if (method == "vas-parallel") {
    ParallelInterchangeSampler::Options popt;
    popt.base = vopt;
    return std::make_unique<ParallelInterchangeSampler>(popt);
  }
  if (method == "stratified") return std::make_unique<StratifiedSampler>();
  return std::make_unique<UniformReservoirSampler>(1);
}

int Run(int argc, char** argv) {
  FlagSet flags;
  flags.Define("n", "1000000", "generated dataset size");
  flags.Define("method", "stratified",
               "rung sampler: uniform | stratified | vas | vas-parallel");
  flags.Define("density", "true", "embed density on every rung");
  flags.Define("threads", "0", "build workers (0 = hardware concurrency)");
  flags.Define("file", "/tmp/vas_bench_catalog.vascat",
               "catalog file the save/load cycle uses");
  if (!ParseBenchFlags(flags, argc, argv,
                       "Catalog persistence: cold-load-from-disk vs "
                       "rebuilding the ladder, plus memory-budget "
                       "eviction/reload.")) {
    return 0;
  }
  size_t n = static_cast<size_t>(flags.GetInt("n"));
  if (flags.GetBool("quick")) n = 100000;
  std::string method = flags.GetString("method");
  std::string file = flags.GetString("file");

  SampleCatalog::Options copt;
  copt.ladder = {1000, 10000, n / 10, n / 2};
  copt.embed_density = flags.GetBool("density");

  PrintHeader(StrFormat(
      "Catalog persistence over %s points (sampler: %s, density: %s)",
      FormatWithCommas(static_cast<int64_t>(n)).c_str(), method.c_str(),
      copt.embed_density ? "on" : "off"));

  Stopwatch watch;
  auto dataset = std::make_shared<Dataset>(MakeGeolifeLike(n));
  dataset->CacheBounds();
  std::printf("generated %s tuples in %.2fs\n",
              FormatWithCommas(static_cast<int64_t>(n)).c_str(),
              watch.ElapsedSeconds());

  // --- Rebuild cost: the full offline ladder build ------------------
  watch.Restart();
  std::unique_ptr<Sampler> sampler = MakeSampler(method);
  SampleCatalog built(*dataset, *sampler, copt);
  double rebuild_secs = watch.ElapsedSeconds();
  std::printf("\nladder rebuild from scratch: %.3fs (%zu rungs)\n",
              rebuild_secs, built.samples().size());

  // --- Save (paged, cell-partitioned — the spill layout) ------------
  watch.Restart();
  CatalogWriteOptions wopt;
  wopt.dataset = dataset.get();
  Status saved = WriteCatalogPaged(built, file, wopt);
  if (!saved.ok()) {
    std::fprintf(stderr, "error: %s\n", saved.ToString().c_str());
    return 1;
  }
  std::printf("saved catalog in %.3fs (%zu bytes resident -> %s)\n",
              watch.ElapsedSeconds(), CatalogMemoryBytes(built),
              file.c_str());

  // --- Cold load ----------------------------------------------------
  watch.Restart();
  auto loaded = ReadCatalog(file);
  double load_secs = watch.ElapsedSeconds();
  if (!loaded.ok()) {
    std::fprintf(stderr, "error: %s\n", loaded.status().ToString().c_str());
    return 1;
  }
  std::printf("cold load from disk: %.3fs\n", load_secs);
  std::printf("cold-load vs rebuild speedup: %.0fx\n",
              load_secs > 0 ? rebuild_secs / load_secs : 0.0);

  // The reload must be byte-identical, rung by rung.
  bool identical = loaded->samples().size() == built.samples().size();
  for (size_t r = 0; identical && r < built.samples().size(); ++r) {
    identical = loaded->samples()[r].ids == built.samples()[r].ids &&
                loaded->samples()[r].density == built.samples()[r].density;
  }
  std::printf("rung ids byte-identical after reload: %s\n",
              identical ? "yes" : "NO — PERSISTENCE BUG");
  if (!identical) return 1;

  // --- Serve under a memory budget ----------------------------------
  CatalogManager::Options mopt;
  mopt.num_threads = static_cast<size_t>(flags.GetInt("threads"));
  // Fits one materialized ladder plus slack, never two.
  size_t ladder_bytes = CatalogMemoryBytes(*loaded);
  mopt.memory_budget_bytes = ladder_bytes + ladder_bytes / 2;
  CatalogManager manager(mopt);
  CatalogKey hot{"hot"};
  CatalogKey cold{"cold"};
  Status add = manager.LoadCatalog(cold, dataset, file);
  if (add.ok()) add = manager.LoadCatalog(hot, dataset, file);
  if (!add.ok()) {
    std::fprintf(stderr, "error: %s\n", add.ToString().c_str());
    return 1;
  }
  // CAT2 loads start cold: both ladders are mmap'd, neither resident,
  // and nothing was deserialized yet.
  auto stats = manager.memory_stats();
  std::printf(
      "\nmemory budget %zu bytes after mapping 2 catalogs: %zu resident, "
      "%zu bytes mapped\n",
      stats.budget_bytes, stats.resident_bytes, stats.mapped_bytes);

  watch.Restart();
  auto reloaded = manager.Snapshot(cold);  // transparent materialization
  double reload_secs = watch.ElapsedSeconds();
  if (!reloaded.ok()) {
    std::fprintf(stderr, "error: %s\n",
                 reloaded.status().ToString().c_str());
    return 1;
  }
  bool same = (*reloaded)->samples().size() == built.samples().size();
  for (size_t r = 0; same && r < built.samples().size(); ++r) {
    same = (*reloaded)->samples()[r].ids == built.samples()[r].ids;
  }
  std::printf(
      "evicted catalog served again in %.3fs (%" PRId64
      " reloads, ids identical: %s)\n",
      reload_secs,
      manager.metrics_registry()->Total("vas_catalog_reloads_total"),
      same ? "yes" : "NO — EVICTION BUG");
  if (!same) return 1;

  // --- Paged store: full load vs single-tile partial touch ----------
  // Each iteration opens a fresh store so the lazy CRC/touch
  // accounting starts cold, exactly like a server faulting in a
  // spilled table for the first time.
  constexpr int kIters = 7;
  const size_t rung = built.samples().size() - 1;  // the big rung
  Rect bounds = dataset->Bounds();
  // A zoom-3-ish tile: 1/8 of the domain on each axis.
  Rect tile = Rect::Of(bounds.min_x + bounds.width() * 0.500,
                       bounds.min_y + bounds.height() * 0.375,
                       bounds.min_x + bounds.width() * 0.625,
                       bounds.min_y + bounds.height() * 0.500);
  auto p50 = [](std::vector<double> xs) {
    std::sort(xs.begin(), xs.end());
    return xs[xs.size() / 2];
  };
  std::vector<double> full_secs, tile_secs;
  size_t full_touched = 0, tile_touched = 0, tile_entries = 0;
  size_t file_bytes = 0;
  for (int i = 0; i < kIters; ++i) {
    watch.Restart();
    auto store = CatalogStore::Open(file);
    if (!store.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   store.status().ToString().c_str());
      return 1;
    }
    auto whole = (*store)->MaterializeRung(rung, dataset->size());
    full_secs.push_back(watch.ElapsedSeconds());
    if (!whole.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   whole.status().ToString().c_str());
      return 1;
    }
    full_touched = (*store)->touched_bytes();
    file_bytes = (*store)->file_bytes();

    watch.Restart();
    auto fresh = CatalogStore::Open(file);
    if (!fresh.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   fresh.status().ToString().c_str());
      return 1;
    }
    auto partial = (*fresh)->MaterializeCells(rung, tile, dataset->size());
    tile_secs.push_back(watch.ElapsedSeconds());
    if (!partial.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   partial.status().ToString().c_str());
      return 1;
    }
    tile_touched = (*fresh)->touched_bytes();
    tile_entries = partial->size();
  }
  std::remove(file.c_str());
  const double full_p50 = p50(full_secs);
  const double tile_p50 = p50(tile_secs);
  std::printf(
      "\npaged store, %zu-point rung (%zu-byte file):\n",
      built.samples()[rung].size(), file_bytes);
  std::printf("  cold full-load p50:      %.4fs (%zu bytes touched)\n",
              full_p50, full_touched);
  std::printf(
      "  one-tile partial p50:    %.4fs (%zu bytes touched, %zu entries)\n",
      tile_p50, tile_touched, tile_entries);
  std::printf(
      "  partial touch ratio:     %.1f%% of the full load's bytes "
      "(%.1fx faster)\n",
      full_touched > 0 ? 100.0 * static_cast<double>(tile_touched) /
                             static_cast<double>(full_touched)
                       : 0.0,
      tile_p50 > 0 ? full_p50 / tile_p50 : 0.0);
  if (tile_touched == 0 || tile_touched >= full_touched) {
    std::printf("PARTIAL LOAD BUG: one tile touched as much as full load\n");
    return 1;
  }

  std::printf(
      "\nsave -> evict -> load preserved the ladder exactly; cold "
      "serving costs %.3fs instead of the %.3fs rebuild (%.0fx)\n",
      load_secs, rebuild_secs,
      load_secs > 0 ? rebuild_secs / load_secs : 0.0);

  JsonMetrics metrics;
  metrics.Set("n", n);
  metrics.Set("sampler", method);
  metrics.Set("rebuild_secs", rebuild_secs);
  metrics.Set("cold_load_secs", load_secs);
  metrics.Set("load_vs_rebuild_speedup",
              load_secs > 0 ? rebuild_secs / load_secs : 0.0);
  metrics.Set("evicted_reload_secs", reload_secs);
  metrics.Set("file_bytes", file_bytes);
  metrics.Set("full_load_p50_secs", full_p50);
  metrics.Set("tile_load_p50_secs", tile_p50);
  metrics.Set("full_touched_bytes", full_touched);
  metrics.Set("tile_touched_bytes", tile_touched);
  metrics.Set("tile_entries", tile_entries);
  Status wrote = metrics.WriteIfRequested(flags.GetString("json"));
  if (!wrote.ok()) {
    std::fprintf(stderr, "error: %s\n", wrote.ToString().c_str());
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace vas::bench

int main(int argc, char** argv) { return vas::bench::Run(argc, argv); }
