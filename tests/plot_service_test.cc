// PlotService: the serving layer between HTTP and the engine. Covers
// registration paths (build / prebuilt / from file), tile rendering
// with cache hits sharing bytes, the acceptance-criterion contract
// that a served tile is byte-identical to the same rung rendered
// directly through ScatterRenderer, rung-upgrade invalidation
// (progressive refinement), time-budget rung selection, viewport
// queries against brute-force counts (the sample count too, resident,
// spilled, and from files on an older cell grid), drop semantics,
// resident tiles drawn from their rung's cells, partial loads of
// spilled tables (both styles, drawn in rung order) charged page by
// page to the render that paid them, and single-flight waiters that
// receive a failed render's own error.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/density.h"
#include "engine/catalog_store.h"
#include "render_reference.h"
#include "service/plot_service.h"
#include "sampling/uniform_sampler.h"
#include "test_util.h"

namespace vas {
namespace {

SamplerFactory UniformFactory(uint64_t seed) {
  return [seed]() { return std::make_unique<UniformReservoirSampler>(seed); };
}

/// One of `service`'s counts, read from its registry by metric name
/// (the way /stats reads it).
int64_t Count(const PlotService& service, const std::string& metric,
              const obs::LabelSet& match = {}) {
  return service.metrics_registry()->Total(metric, match);
}

SampleCatalog::Options Ladder(std::vector<size_t> rungs) {
  SampleCatalog::Options options;
  options.ladder = std::move(rungs);
  options.embed_density = false;
  return options;
}

std::shared_ptr<const Dataset> SkewedShared(size_t n) {
  auto dataset = std::make_shared<Dataset>(test::Skewed(n));
  dataset->CacheBounds();
  return dataset;
}

/// Blocks rungs of at least `gate_at_k` points until the shared future
/// resolves, making "the larger rung has not landed yet" deterministic.
class GatedSampler : public Sampler {
 public:
  GatedSampler(uint64_t seed, size_t gate_at_k, std::shared_future<void> gate)
      : inner_(seed), gate_at_k_(gate_at_k), gate_(std::move(gate)) {}

  SampleSet Sample(const Dataset& dataset, size_t k) override {
    if (k >= gate_at_k_) gate_.wait();
    return inner_.Sample(dataset, k);
  }
  std::string name() const override { return "gated-uniform"; }

 private:
  UniformReservoirSampler inner_;
  size_t gate_at_k_;
  std::shared_future<void> gate_;
};

TEST(PlotServiceTest, UnknownTableIsNotFound) {
  PlotService service;
  EXPECT_EQ(service.RenderTile("nope", TileKey{0, 0, 0}).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(service.GetTable("nope").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(service.DropTable("nope").code(), StatusCode::kNotFound);
  EXPECT_EQ(
      service.QueryViewport("nope", Rect(), 2.0).status().code(),
      StatusCode::kNotFound);
}

TEST(PlotServiceTest, TileKeyOutsideGridIsInvalidArgument) {
  PlotService service;
  ASSERT_TRUE(service
                  .RegisterTable("geo", SkewedShared(2000), UniformFactory(3),
                                 Ladder({100}))
                  .ok());
  EXPECT_EQ(service.RenderTile("geo", TileKey{2, 4, 0}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(
      service.RenderTile("geo", TileKey{TileGrid::kMaxZoom + 1, 0, 0})
          .status()
          .code(),
      StatusCode::kInvalidArgument);
}

TEST(PlotServiceTest, SecondFetchIsACacheHitSharingTheBytes) {
  PlotService service;
  auto dataset = SkewedShared(3000);
  ASSERT_TRUE(service
                  .RegisterTable("geo", dataset, UniformFactory(5),
                                 Ladder({200}))
                  .ok());
  auto first = service.RenderTile("geo", TileKey{1, 0, 1});
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first->cache_hit);
  ASSERT_NE(first->png, nullptr);
  EXPECT_FALSE(first->png->empty());
  EXPECT_EQ(first->png->substr(0, 8), std::string("\x89PNG\r\n\x1a\n", 8));

  auto second = service.RenderTile("geo", TileKey{1, 0, 1});
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->cache_hit);
  EXPECT_EQ(second->png.get(), first->png.get())
      << "a hit must serve the cached bytes, not a copy";
  EXPECT_EQ(Count(service, "vas_tile_cache_hits_total"), 1);
  EXPECT_EQ(Count(service, "vas_tile_cache_misses_total"), 1);
  EXPECT_EQ(service.cache().entries(), 1u);
}

TEST(PlotServiceTest, ServedTileIsByteIdenticalToDirectRender) {
  // The acceptance-criterion contract in miniature: GridFor +
  // TileRenderOptions reproduce the served tile exactly through a
  // directly-driven ScatterRenderer.
  PlotService::Options options;
  options.tile_px = 128;
  PlotService service(options);
  auto dataset = SkewedShared(4000);
  ASSERT_TRUE(service
                  .RegisterTable("geo", dataset, UniformFactory(17),
                                 Ladder({300, 900}))
                  .ok());
  CatalogKey key{"geo", "x", "y"};
  ASSERT_TRUE(service.manager().WaitUntilDone(key).ok());

  TileKey tile{2, 1, 2};
  auto served = service.RenderTile("geo", tile);
  ASSERT_TRUE(served.ok());

  auto snapshot = service.manager().Snapshot(key);
  ASSERT_TRUE(snapshot.ok());
  const SampleSet& rung = (*snapshot)->ChooseForTimeBudget(
      service.options().tile_time_budget_seconds, service.options().viz_model);
  EXPECT_EQ(rung.size(), served->sample_size);

  auto grid = service.GridFor("geo");
  ASSERT_TRUE(grid.ok());
  Viewport viewport(grid->TileBounds(tile), options.tile_px, options.tile_px);
  ScatterRenderer renderer(service.TileRenderOptions());
  Image direct = renderer.RenderSample(*dataset, rung, viewport);
  EXPECT_EQ(direct.EncodePng(), *served->png);
  // A scatter tile has at most 256 colors, so it ships indexed: IHDR's
  // color type (byte 25) is 3.
  ASSERT_GT(served->png->size(), 25u);
  EXPECT_EQ(static_cast<uint8_t>((*served->png)[25]), 3);
}

TEST(PlotServiceTest, TruecolorScatterTileMatchesTheScalarReference) {
  // A value-colored scatter tile whose dots take more than 256 colormap
  // colors converts from palette to RGB storage while it is drawn, once,
  // and ships as 8-bit RGB (IHDR's color type, byte 25, is 2). Its bytes
  // equal the scalar per-point reference's image encoded, an image drawn
  // a pixel at a time and never through a span.
  PlotService::Options options;
  options.tile_px = 128;
  PlotService service(options);
  auto dataset = SkewedShared(20000);
  ASSERT_TRUE(dataset->has_values());
  SampleCatalog::Options ladder = Ladder({8000});
  ladder.embed_density = true;
  ASSERT_TRUE(
      service.RegisterTable("geo", dataset, UniformFactory(29), ladder).ok());
  CatalogKey key{"geo", "x", "y"};
  ASSERT_TRUE(service.manager().WaitUntilDone(key).ok());
  auto snapshot = service.manager().Snapshot(key);
  ASSERT_TRUE(snapshot.ok());
  const SampleSet& rung = (*snapshot)->samples()[0];
  auto grid = service.GridFor("geo");
  ASSERT_TRUE(grid.ok());

  for (const TileKey& tile : {TileKey{0, 0, 0}, TileKey{1, 1, 0}}) {
    auto served = service.RenderTile("geo", tile);
    ASSERT_TRUE(served.ok());
    ASSERT_GT(served->png->size(), 25u);
    ASSERT_EQ(static_cast<uint8_t>((*served->png)[25]), 2)
        << "tile " << tile.ToString() << " has at most 256 colors";
    // The reference colors over the whole rung's values, as the served
    // tile does, and culls what lies outside the tile.
    Viewport viewport(grid->TileBounds(tile), options.tile_px,
                      options.tile_px);
    Image reference = test::RenderSampleScalar(service.TileRenderOptions(),
                                               *dataset, rung, viewport);
    EXPECT_EQ(reference.EncodePng(service.options().png), *served->png)
        << "tile " << tile.ToString();
  }
}

TEST(PlotServiceTest, ConditionalRenderTileHonorsEtags) {
  PlotService service;
  ASSERT_TRUE(service
                  .RegisterTable("geo", SkewedShared(3000), UniformFactory(5),
                                 Ladder({200}))
                  .ok());
  ASSERT_TRUE(service.manager().WaitUntilDone(CatalogKey{"geo"}).ok());
  TileKey tile{1, 0, 1};
  auto cold = service.RenderTile("geo", tile);
  ASSERT_TRUE(cold.ok());
  EXPECT_FALSE(cold->etag.empty());
  EXPECT_TRUE(cold->build_done);
  EXPECT_FALSE(cold->not_modified);

  // A matching If-None-Match answers from the tag alone: no bytes, no
  // render, not even a cache lookup.
  const int64_t hits = Count(service, "vas_tile_cache_hits_total");
  const int64_t misses = Count(service, "vas_tile_cache_misses_total");
  auto conditional = service.RenderTile("geo", tile, cold->etag);
  ASSERT_TRUE(conditional.ok());
  EXPECT_TRUE(conditional->not_modified);
  EXPECT_EQ(conditional->png, nullptr);
  EXPECT_EQ(conditional->etag, cold->etag);
  EXPECT_EQ(conditional->sample_size, cold->sample_size);
  EXPECT_EQ(Count(service, "vas_tile_cache_hits_total"), hits);
  EXPECT_EQ(Count(service, "vas_tile_cache_misses_total"), misses);

  // RFC 9110 weak comparison: W/ prefixes, lists, and "*" all match.
  EXPECT_TRUE(
      service.RenderTile("geo", tile, "W/" + cold->etag)->not_modified);
  EXPECT_TRUE(service.RenderTile("geo", tile, "\"zz\", " + cold->etag)
                  ->not_modified);
  EXPECT_TRUE(service.RenderTile("geo", tile, "*")->not_modified);

  // A stale tag serves the full bytes.
  auto stale = service.RenderTile("geo", tile, "\"stale\"");
  ASSERT_TRUE(stale.ok());
  EXPECT_FALSE(stale->not_modified);
  ASSERT_NE(stale->png, nullptr);

  // Tags are per tile: a different key has a different tag.
  auto other = service.RenderTile("geo", TileKey{1, 1, 1});
  ASSERT_TRUE(other.ok());
  EXPECT_NE(other->etag, cold->etag);
}

TEST(PlotServiceTest, EtagRotatesWhenASharperRungLands) {
  // The progressive-refinement contract behind the short max-age: while
  // the ladder builds, a client revalidating with its old tag gets the
  // sharper tile the moment the served rung advances.
  std::promise<void> gate;
  std::shared_future<void> future = gate.get_future().share();
  PlotService service;
  ASSERT_TRUE(service
                  .RegisterTable(
                      "geo", SkewedShared(5000),
                      [future]() {
                        return std::make_unique<GatedSampler>(9, 2000, future);
                      },
                      Ladder({200, 2000}))
                  .ok());

  auto early = service.RenderTile("geo", TileKey{0, 0, 0});
  ASSERT_TRUE(early.ok());
  EXPECT_FALSE(early->build_done);
  // Nothing changed yet — revalidation is still a cheap 304.
  EXPECT_TRUE(
      service.RenderTile("geo", TileKey{0, 0, 0}, early->etag)->not_modified);

  gate.set_value();
  ASSERT_TRUE(service.manager().WaitUntilDone(CatalogKey{"geo"}).ok());

  // The old tag no longer matches: the conditional fetch returns the
  // sharper tile, under a new tag, now marked stable.
  auto upgraded = service.RenderTile("geo", TileKey{0, 0, 0}, early->etag);
  ASSERT_TRUE(upgraded.ok());
  EXPECT_FALSE(upgraded->not_modified);
  ASSERT_NE(upgraded->png, nullptr);
  EXPECT_EQ(upgraded->sample_size, 2000u);
  EXPECT_NE(upgraded->etag, early->etag);
  EXPECT_TRUE(upgraded->build_done);
}

TEST(PlotServiceTest, RungUpgradeServesAFreshSharperTile) {
  std::promise<void> gate;
  std::shared_future<void> future = gate.get_future().share();
  PlotService service;
  auto dataset = SkewedShared(5000);
  ASSERT_TRUE(service
                  .RegisterTable(
                      "geo", dataset,
                      [future]() {
                        return std::make_unique<GatedSampler>(9, 2000, future);
                      },
                      Ladder({200, 2000}))
                  .ok());

  // Rung 1 only: the tile serves and caches at sample_size 200.
  auto early = service.RenderTile("geo", TileKey{0, 0, 0});
  ASSERT_TRUE(early.ok());
  EXPECT_EQ(early->sample_size, 200u);
  EXPECT_LT(early->rungs_ready, early->rungs_total);
  ASSERT_TRUE(service.RenderTile("geo", TileKey{0, 0, 0})->cache_hit);

  gate.set_value();
  ASSERT_TRUE(service.manager().WaitUntilDone(CatalogKey{"geo"}).ok());

  // The sharper rung must now serve — freshly rendered, not the stale
  // cached tile: rung size is part of the cache key.
  auto sharper = service.RenderTile("geo", TileKey{0, 0, 0});
  ASSERT_TRUE(sharper.ok());
  EXPECT_EQ(sharper->sample_size, 2000u);
  EXPECT_FALSE(sharper->cache_hit);
  EXPECT_EQ(sharper->rungs_ready, sharper->rungs_total);
  EXPECT_NE(*sharper->png, *early->png);
}

TEST(PlotServiceTest, TileTimeBudgetPicksTheRung) {
  // MathGL model: 0.2 s overhead + 2 µs/point. A 0.205 s budget fits
  // the 200-point rung (0.2004 s) but not 5000 points (0.21 s).
  PlotService::Options options;
  options.tile_time_budget_seconds = 0.205;
  PlotService service(options);
  ASSERT_TRUE(service
                  .RegisterTable("geo", SkewedShared(20000),
                                 UniformFactory(23), Ladder({200, 5000}))
                  .ok());
  ASSERT_TRUE(service.manager().WaitUntilDone(CatalogKey{"geo"}).ok());
  auto tile = service.RenderTile("geo", TileKey{0, 0, 0});
  ASSERT_TRUE(tile.ok());
  EXPECT_EQ(tile->sample_size, 200u);
}

TEST(PlotServiceTest, AddAndLoadTableServePrebuiltLadders) {
  auto dataset = SkewedShared(3000);
  UniformReservoirSampler sampler(31);
  SampleCatalog catalog(*dataset, sampler, Ladder({150, 600}));

  PlotService service;
  ASSERT_TRUE(service.AddTable("mem", dataset, catalog).ok());
  auto tile = service.RenderTile("mem", TileKey{0, 0, 0});
  ASSERT_TRUE(tile.ok());
  EXPECT_EQ(tile->rungs_ready, 2u);

  test::ScopedTempFile file("plot_service_test.vascat");
  ASSERT_TRUE(WriteCatalogPaged(catalog, file.path()).ok());
  ASSERT_TRUE(service.LoadTable("disk", dataset, file.path()).ok());
  auto loaded = service.RenderTile("disk", TileKey{0, 0, 0});
  ASSERT_TRUE(loaded.ok());
  // Same ladder, same renderer, same tile: identical bytes.
  EXPECT_EQ(*loaded->png, *tile->png);

  ASSERT_EQ(service.Tables().size(), 2u);
  EXPECT_EQ(service.Tables()[0].key.table, "disk");
  EXPECT_EQ(service.Tables()[1].key.table, "mem");

  // A retired CAT1 file is refused and registers no table.
  test::ScopedTempFile cat1("plot_service_test_cat1.vascat");
  ASSERT_TRUE(test::WriteCatalogV1(catalog, cat1.path()).ok());
  EXPECT_EQ(service.LoadTable("old", dataset, cat1.path()).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(service.GetTable("old").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(service.Tables().size(), 2u);
}

/// How many of `rung`'s points lie inside `viewport`, by testing each.
size_t BruteForceCount(const Dataset& dataset, const SampleSet& rung,
                       const Rect& viewport) {
  size_t count = 0;
  for (size_t id : rung.ids) {
    count += viewport.Contains(dataset.points[id]) ? 1 : 0;
  }
  return count;
}

TEST(PlotServiceTest, ViewportQueryCountsMatchBruteForce) {
  PlotService service;
  auto dataset = SkewedShared(8000);
  ASSERT_TRUE(service
                  .RegisterTable("geo", dataset, UniformFactory(41),
                                 Ladder({500}))
                  .ok());
  ASSERT_TRUE(service.manager().WaitUntilDone(CatalogKey{"geo"}).ok());

  Rect bounds = dataset->Bounds();
  Rect viewport = Rect::Of(bounds.min_x + bounds.width() * 0.2,
                           bounds.min_y + bounds.height() * 0.3,
                           bounds.min_x + bounds.width() * 0.7,
                           bounds.min_y + bounds.height() * 0.8);
  size_t brute = 0;
  for (const Point& p : dataset->points) {
    if (viewport.Contains(p)) ++brute;
  }
  auto info = service.QueryViewport("geo", viewport, 2.0);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->points_in_viewport, brute);
  EXPECT_EQ(info->sample_size, 500u);
  auto snapshot = service.manager().Snapshot(CatalogKey{"geo"});
  ASSERT_TRUE(snapshot.ok());
  EXPECT_EQ(info->sample_points_in_viewport,
            BruteForceCount(*dataset, (*snapshot)->samples()[0], viewport));
  EXPECT_GT(info->estimated_full_viz_seconds, info->estimated_viz_seconds);
}

/// Viewports for /plot count checks over `world`: zooms at several
/// depths, one reaching far past the data, and one that misses it.
std::vector<Rect> PlotViewports(const Rect& world) {
  auto at = [&](double fx0, double fy0, double fx1, double fy1) {
    return Rect::Of(world.min_x + world.width() * fx0,
                    world.min_y + world.height() * fy0,
                    world.min_x + world.width() * fx1,
                    world.min_y + world.height() * fy1);
  };
  return {at(0.2, 0.3, 0.7, 0.8),     at(0.45, 0.45, 0.55, 0.52),
          at(0.0, 0.0, 0.125, 0.125), at(0.5, 0.5, 0.5, 0.5),
          at(0.3, 0.1, 1e18, 1e18),   at(1.5, 1.5, 2.0, 2.0)};
}

TEST(PlotServiceTest, SampleCountsAreExactOnResidentAndSpilledTables) {
  // /plot's sample_points_in_viewport is counted from the served rung's
  // cell layout: on a resident table from the layout it was published
  // with, on a spilled one from the layout its read-back brings from
  // the file. Either way it equals the brute-force count over the
  // rung's ids, and an empty viewport answers the whole rung.
  PlotService::Options tight;
  tight.catalog.memory_budget_bytes = 1;  // evict everything not in use
  PlotService service(tight);
  auto dataset = SkewedShared(40000);
  UniformReservoirSampler sampler(91);
  SampleCatalog::Options ladder = Ladder({2000, 20000});
  ladder.embed_density = true;
  SampleCatalog catalog(*dataset, sampler, ladder);
  const SampleSet rung = catalog.samples().back();
  ASSERT_TRUE(service.AddTable("geo", dataset, catalog).ok());
  CatalogKey key{"geo", "x", "y"};

  auto check = [&](const char* state) {
    for (const Rect& viewport : PlotViewports(dataset->Bounds())) {
      auto info = service.QueryViewport("geo", viewport, 2.0);
      ASSERT_TRUE(info.ok()) << info.status().ToString();
      EXPECT_EQ(info->sample_size, rung.size());
      EXPECT_EQ(info->sample_points_in_viewport,
                BruteForceCount(*dataset, rung, viewport))
          << state << " viewport [" << viewport.min_x << ", "
          << viewport.min_y << ", " << viewport.max_x << ", "
          << viewport.max_y << "]";
    }
    auto whole = service.QueryViewport("geo", Rect(), 2.0);
    ASSERT_TRUE(whole.ok());
    EXPECT_EQ(whole->sample_points_in_viewport, rung.size()) << state;
    EXPECT_EQ(whole->points_in_viewport, dataset->size()) << state;
  };
  ASSERT_TRUE(service.manager().GetStatus(key)->resident);
  check("resident");

  // A second table's registration pushes "geo" out to its spill file;
  // the next /plot reads it back.
  auto tiny_dataset = SkewedShared(2000);
  UniformReservoirSampler tiny_sampler(92);
  SampleCatalog tiny_catalog(*tiny_dataset, tiny_sampler, Ladder({100}));
  ASSERT_TRUE(service.AddTable("tiny", tiny_dataset, tiny_catalog).ok());
  for (int i = 0; i < 500 && service.manager().GetStatus(key)->resident;
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_FALSE(service.manager().GetStatus(key)->resident);
  const int64_t reloads = Count(service, "vas_catalog_reloads_total");
  check("spilled");
  EXPECT_GT(Count(service, "vas_catalog_reloads_total"), reloads);
}

TEST(PlotServiceTest, FilesWrittenOnTheOldGridServeTheSameTilesAndCounts) {
  // The CAT2 format did not change with the default cell target: a
  // file written at the earlier target of 2,048 entries per cell (a
  // coarser grid) serves the same tile bytes as one written on
  // today's grid and as the resident ladder, and /plot counts from its
  // grid exactly.
  constexpr size_t kOldTarget = 2048;
  auto dataset = SkewedShared(60000);
  UniformReservoirSampler sampler(93);
  SampleCatalog::Options ladder = Ladder({3000, 30000});
  ladder.embed_density = true;
  SampleCatalog catalog(*dataset, sampler, ladder);
  const SampleSet rung = catalog.samples().back();

  test::ScopedTempFile old_file("plot_service_old_grid.vascat");
  test::ScopedTempFile new_file("plot_service_new_grid.vascat");
  CatalogWriteOptions write;
  write.dataset = dataset.get();
  write.target_entries_per_cell = kOldTarget;
  ASSERT_TRUE(WriteCatalogPaged(catalog, old_file.path(), write).ok());
  write.target_entries_per_cell = kDefaultEntriesPerCell;
  ASSERT_TRUE(WriteCatalogPaged(catalog, new_file.path(), write).ok());
  auto old_store = CatalogStore::Open(old_file.path());
  auto new_store = CatalogStore::Open(new_file.path());
  ASSERT_TRUE(old_store.ok());
  ASSERT_TRUE(new_store.ok());
  EXPECT_EQ((*old_store)->rung(1).grid_x, GridDimFor(rung.size(), kOldTarget));
  EXPECT_LT((*old_store)->rung(1).grid_x, (*new_store)->rung(1).grid_x);

  PlotService service;
  ASSERT_TRUE(service.AddTable("mem", dataset, catalog).ok());
  ASSERT_TRUE(service.LoadTable("old", dataset, old_file.path()).ok());
  ASSERT_TRUE(service.LoadTable("new", dataset, new_file.path()).ok());
  auto grid = service.GridFor("mem");
  ASSERT_TRUE(grid.ok());
  std::vector<TileKey> tiles = {{0, 0, 0}, {1, 1, 0}, {2, 1, 2}};
  for (uint32_t z = 3; z <= 7; ++z) {
    tiles.push_back(grid->TileAt(z, dataset->points[rung.ids[z * 31]]));
  }
  for (const TileKey& tile : tiles) {
    for (TileStyle style : {TileStyle::kScatter, TileStyle::kHeatmap}) {
      auto mem = service.RenderTile("mem", tile, "", style);
      auto old_grid = service.RenderTile("old", tile, "", style);
      auto new_grid = service.RenderTile("new", tile, "", style);
      ASSERT_TRUE(mem.ok());
      ASSERT_TRUE(old_grid.ok());
      ASSERT_TRUE(new_grid.ok());
      EXPECT_EQ(*old_grid->png, *mem->png)
          << TileStyleName(style) << " tile " << tile.ToString();
      EXPECT_EQ(*new_grid->png, *mem->png)
          << TileStyleName(style) << " tile " << tile.ToString();
    }
  }
  for (const Rect& viewport : PlotViewports(dataset->Bounds())) {
    const size_t want = BruteForceCount(*dataset, rung, viewport);
    for (const char* table : {"mem", "old", "new"}) {
      auto info = service.QueryViewport(table, viewport, 2.0);
      ASSERT_TRUE(info.ok()) << info.status().ToString();
      EXPECT_EQ(info->sample_points_in_viewport, want) << table;
    }
  }
}

TEST(PlotServiceTest, ConcurrentColdFetchesOfOneTileShareOneRender) {
  // Single-flight: simultaneous misses on the same uncached tile must
  // resolve to the very same bytes object — one render, shared by the
  // leader, the coalesced waiters, and the cache.
  PlotService service;
  ASSERT_TRUE(service
                  .RegisterTable("geo", SkewedShared(6000), UniformFactory(2),
                                 Ladder({3000}))
                  .ok());
  ASSERT_TRUE(service.manager().WaitUntilDone(CatalogKey{"geo"}).ok());

  constexpr size_t kThreads = 8;
  std::vector<std::shared_ptr<const std::string>> pngs(kThreads);
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      auto tile = service.RenderTile("geo", TileKey{3, 4, 4});
      if (!tile.ok() || tile->png == nullptr) {
        failed = true;
        return;
      }
      pngs[t] = tile->png;
    });
  }
  for (std::thread& t : threads) t.join();
  ASSERT_FALSE(failed.load());
  for (size_t t = 1; t < kThreads; ++t) {
    EXPECT_EQ(pngs[t].get(), pngs[0].get())
        << "thread " << t << " got a redundantly rendered copy";
  }
}

TEST(PlotServiceTest, ReRegisteredTableNeverServesTheOldDatasetsTiles) {
  // Same table name, same rung size, different dataset: the tile must
  // be re-rendered from the new data (per-registration generation in
  // the cache key), never served from the old registration's cache.
  PlotService service;
  ASSERT_TRUE(service
                  .RegisterTable("t", SkewedShared(3000), UniformFactory(4),
                                 Ladder({500}))
                  .ok());
  ASSERT_TRUE(service.manager().WaitUntilDone(CatalogKey{"t"}).ok());
  auto old_tile = service.RenderTile("t", TileKey{1, 0, 0});
  ASSERT_TRUE(old_tile.ok());

  ASSERT_TRUE(service.DropTable("t").ok());
  auto other = std::make_shared<Dataset>(test::Skewed(3000, /*seed=*/99));
  other->CacheBounds();
  ASSERT_TRUE(service
                  .RegisterTable("t", other, UniformFactory(4), Ladder({500}))
                  .ok());
  ASSERT_TRUE(service.manager().WaitUntilDone(CatalogKey{"t"}).ok());
  auto new_tile = service.RenderTile("t", TileKey{1, 0, 0});
  ASSERT_TRUE(new_tile.ok());
  EXPECT_FALSE(new_tile->cache_hit);
  EXPECT_NE(*new_tile->png, *old_tile->png)
      << "re-registered table served a tile of the dropped dataset";
}

TEST(PlotServiceTest, DropTableForgetsStateAndAllowsReRegistration) {
  PlotService service;
  auto dataset = SkewedShared(2000);
  ASSERT_TRUE(service
                  .RegisterTable("geo", dataset, UniformFactory(7),
                                 Ladder({100}))
                  .ok());
  ASSERT_TRUE(service.manager().WaitUntilDone(CatalogKey{"geo"}).ok());
  ASSERT_TRUE(service.RenderTile("geo", TileKey{0, 0, 0}).ok());
  const size_t cached = service.cache().entries();
  ASSERT_GE(cached, 1u);

  ASSERT_TRUE(service.DropTable("geo").ok());
  EXPECT_EQ(service.RenderTile("geo", TileKey{0, 0, 0}).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(service.cache().entries(), 0u)
      << "dropping a table must drop its cached tiles";
  EXPECT_EQ(Count(service, "vas_tile_cache_invalidations_total"),
            static_cast<int64_t>(cached));
  EXPECT_TRUE(service.Tables().empty());

  ASSERT_TRUE(service
                  .RegisterTable("geo", dataset, UniformFactory(8),
                                 Ladder({100}))
                  .ok());
  EXPECT_TRUE(service.RenderTile("geo", TileKey{0, 0, 0}).ok());
}

TEST(PlotServiceTest, DropWhileBuildingIsFailedPrecondition) {
  std::promise<void> gate;
  std::shared_future<void> future = gate.get_future().share();
  PlotService service;
  ASSERT_TRUE(service
                  .RegisterTable(
                      "geo", SkewedShared(3000),
                      [future]() {
                        return std::make_unique<GatedSampler>(2, 1000, future);
                      },
                      Ladder({100, 1000}))
                  .ok());
  ASSERT_TRUE(service.RenderTile("geo", TileKey{0, 0, 0}).ok());
  EXPECT_EQ(service.DropTable("geo").code(),
            StatusCode::kFailedPrecondition);
  gate.set_value();
  ASSERT_TRUE(service.manager().WaitUntilDone(CatalogKey{"geo"}).ok());
  EXPECT_TRUE(service.DropTable("geo").ok());
}

TEST(TileStyleTest, NamesAndParsingRoundTrip) {
  EXPECT_STREQ(TileStyleName(TileStyle::kScatter), "scatter");
  EXPECT_STREQ(TileStyleName(TileStyle::kHeatmap), "heatmap");
  EXPECT_EQ(*ParseTileStyle(""), TileStyle::kScatter)
      << "no ?style= means the default";
  EXPECT_EQ(*ParseTileStyle("scatter"), TileStyle::kScatter);
  EXPECT_EQ(*ParseTileStyle("heatmap"), TileStyle::kHeatmap);
  EXPECT_EQ(ParseTileStyle("sepia").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseTileStyle("Heatmap").status().code(),
            StatusCode::kInvalidArgument)
      << "style names are exact, not case-folded";
}

TEST(PlotServiceTest, HeatmapStyleIsADistinctCachedResource) {
  PlotService service;
  ASSERT_TRUE(service
                  .RegisterTable("geo", SkewedShared(3000), UniformFactory(5),
                                 Ladder({400}))
                  .ok());
  TileKey tile{0, 0, 0};
  auto scatter = service.RenderTile("geo", tile);
  auto heatmap = service.RenderTile("geo", tile, "", TileStyle::kHeatmap);
  ASSERT_TRUE(scatter.ok());
  ASSERT_TRUE(heatmap.ok());
  EXPECT_FALSE(scatter->cache_hit);
  EXPECT_FALSE(heatmap->cache_hit)
      << "the styles must not collide on one cache entry";
  EXPECT_NE(scatter->etag, heatmap->etag);
  ASSERT_NE(heatmap->png, nullptr);
  EXPECT_EQ(heatmap->png->substr(0, 8), std::string("\x89PNG\r\n\x1a\n", 8));
  EXPECT_NE(*heatmap->png, *scatter->png);

  // Each style warms its own entry.
  EXPECT_TRUE(service.RenderTile("geo", tile)->cache_hit);
  EXPECT_TRUE(
      service.RenderTile("geo", tile, "", TileStyle::kHeatmap)->cache_hit);

  // Conditional requests are per style: the scatter tag can never 304
  // the heatmap resource.
  EXPECT_TRUE(service.RenderTile("geo", tile, heatmap->etag,
                                 TileStyle::kHeatmap)
                  ->not_modified);
  EXPECT_FALSE(service.RenderTile("geo", tile, scatter->etag,
                                  TileStyle::kHeatmap)
                   ->not_modified);
}

TEST(PlotServiceTest, HeatmapTileMatchesDirectDensityRender) {
  // The byte-identity contract for the heatmap style: RenderCounts with
  // the rung's density weights, colormapped by RenderDensityImage and
  // encoded with the service's PNG options, reproduces the served tile
  // exactly.
  PlotService::Options options;
  options.tile_px = 64;
  PlotService service(options);
  auto dataset = SkewedShared(4000);
  SampleCatalog::Options ladder = Ladder({300});
  ladder.embed_density = true;  // weights flow into the counts
  ASSERT_TRUE(
      service.RegisterTable("geo", dataset, UniformFactory(9), ladder).ok());
  CatalogKey key{"geo", "x", "y"};
  ASSERT_TRUE(service.manager().WaitUntilDone(key).ok());

  TileKey tile{1, 0, 0};
  auto served = service.RenderTile("geo", tile, "", TileStyle::kHeatmap);
  ASSERT_TRUE(served.ok());

  auto snapshot = service.manager().Snapshot(key);
  ASSERT_TRUE(snapshot.ok());
  const SampleSet& rung = (*snapshot)->ChooseForTimeBudget(
      service.options().tile_time_budget_seconds, service.options().viz_model);
  ASSERT_TRUE(rung.has_density());

  auto grid = service.GridFor("geo");
  ASSERT_TRUE(grid.ok());
  Viewport viewport(grid->TileBounds(tile), options.tile_px, options.tile_px);
  ScatterRenderer renderer(service.TileRenderOptions());
  std::vector<uint32_t> counts = renderer.RenderCounts(
      rung.MaterializePoints(*dataset), DensityWeights(rung), viewport);
  Image direct =
      RenderDensityImage(counts, options.tile_px, options.tile_px,
                         service.options().heatmap_colormap,
                         service.options().renderer.background);
  EXPECT_EQ(direct.EncodePng(service.options().png), *served->png);
  // A heatmap tile has at most 256 colors, so it ships indexed: IHDR's
  // color type (byte 25) is 3.
  ASSERT_GT(served->png->size(), 25u);
  EXPECT_EQ(static_cast<uint8_t>((*served->png)[25]), 3);
}

TEST(PlotServiceTest, ResidentTilesFromCellsMatchWholeRungRenders) {
  // A resident table's cold tile draws only the cells of its rung's
  // layout that the tile intersects, or the rung in place when the tile
  // covers every cell. Every tile of zooms 0-5, in both styles, must
  // match a direct render of the whole rung; value-colored scatter
  // colors over the layout's recorded range, which must equal the
  // whole rung's fold.
  PlotService::Options options;
  options.tile_px = 32;
  PlotService service(options);
  auto dataset = SkewedShared(30000);
  ASSERT_TRUE(dataset->has_values());
  SampleCatalog::Options ladder = Ladder({10000});
  ladder.embed_density = true;
  ASSERT_TRUE(
      service.RegisterTable("geo", dataset, UniformFactory(21), ladder).ok());
  CatalogKey key{"geo", "x", "y"};
  ASSERT_TRUE(service.manager().WaitUntilDone(key).ok());
  auto snapshot = service.manager().Snapshot(key);
  ASSERT_TRUE(snapshot.ok());
  const SampleSet& rung = (*snapshot)->samples()[0];
  const RungLayout* layout = (*snapshot)->layout(0).get();
  ASSERT_NE(layout, nullptr);
  ASSERT_GE(layout->grid_x, 2u);
  ASSERT_GE(layout->grid_y, 2u);

  auto grid = service.GridFor("geo");
  ASSERT_TRUE(grid.ok());
  ScatterRenderer renderer(service.TileRenderOptions());
  const PlotService::Options& served_with = service.options();
  size_t cell_tiles = 0;
  for (uint32_t z = 0; z <= 5; ++z) {
    for (uint32_t x = 0; x < (1u << z); ++x) {
      for (uint32_t y = 0; y < (1u << z); ++y) {
        const TileKey tile{z, x, y};
        const Rect bounds = grid->TileBounds(tile);
        Viewport viewport(bounds, options.tile_px, options.tile_px);
        if (layout->CountSelected(bounds) < rung.size()) ++cell_tiles;

        auto scatter = service.RenderTile("geo", tile);
        ASSERT_TRUE(scatter.ok());
        EXPECT_EQ(*scatter->png, renderer.RenderSample(*dataset, rung, viewport)
                                     .EncodePng(served_with.png))
            << "scatter tile " << tile.ToString();

        auto heatmap = service.RenderTile("geo", tile, "", TileStyle::kHeatmap);
        ASSERT_TRUE(heatmap.ok());
        std::vector<uint32_t> counts = renderer.RenderCounts(
            rung.MaterializePoints(*dataset), DensityWeights(rung), viewport);
        EXPECT_EQ(*heatmap->png,
                  RenderDensityImage(counts, options.tile_px, options.tile_px,
                                     served_with.heatmap_colormap,
                                     served_with.renderer.background)
                      .EncodePng(served_with.png))
            << "heatmap tile " << tile.ToString();
      }
    }
  }
  EXPECT_GT(cell_tiles, 0u) << "no tile exercised a cell range";
  // Partial loads count mapped loads only.
  EXPECT_EQ(Count(service, "vas_tile_partial_loads_total"), 0);
}

TEST(PlotServiceTest, RenderCountersCountColdRendersPerStyle) {
  PlotService service;
  ASSERT_TRUE(service
                  .RegisterTable("geo", SkewedShared(2000), UniformFactory(3),
                                 Ladder({200}))
                  .ok());
  EXPECT_EQ(Count(service, "vas_tiles_rendered_total"), 0);
  EXPECT_EQ(Count(service, "vas_tile_encode_bytes_out_total"), 0);

  TileKey tile{0, 0, 0};
  auto scatter = service.RenderTile("geo", tile);
  auto heatmap = service.RenderTile("geo", tile, "", TileStyle::kHeatmap);
  ASSERT_TRUE(scatter.ok());
  ASSERT_TRUE(heatmap.ok());
  // Neither a cache hit nor a 304 is a render.
  ASSERT_TRUE(service.RenderTile("geo", tile)->cache_hit);
  ASSERT_TRUE(service.RenderTile("geo", tile, scatter->etag)->not_modified);

  EXPECT_EQ(Count(service, "vas_tiles_rendered_total"), 2);
  EXPECT_EQ(Count(service, "vas_tiles_rendered_total", {{"style", "scatter"}}),
            1);
  EXPECT_EQ(Count(service, "vas_tiles_rendered_total", {{"style", "heatmap"}}),
            1);
  // Both tiles are indexed (IHDR's color type, byte 25, is 3), so the
  // encoder handed DEFLATE one filter byte and one index byte per pixel
  // for each row.
  EXPECT_EQ((*scatter->png)[25], 3);
  EXPECT_EQ((*heatmap->png)[25], 3);
  int64_t px = service.options().tile_px;
  EXPECT_EQ(Count(service, "vas_tile_encode_bytes_in_total"),
            2 * px * (px + 1));
  EXPECT_EQ(Count(service, "vas_tile_encode_bytes_out_total"),
            static_cast<int64_t>(scatter->png->size() + heatmap->png->size()));
  EXPECT_GT(Count(service, "vas_tile_render_ns"), 0);
  EXPECT_GT(Count(service, "vas_tile_encode_ns"), 0);
  // Zoom 0 covers every cell, so each render drew the whole rung.
  EXPECT_EQ(Count(service, "vas_tile_materialized_entries_total",
                  {{"style", "scatter"}}),
            200);
  EXPECT_EQ(Count(service, "vas_tile_materialized_entries_total",
                  {{"style", "heatmap"}}),
            200);
}

TEST(PlotServiceTest, SpilledMillionPointTableServesIdenticalTilesPartially) {
  // The acceptance criterion for the paged catalog store: a table
  // whose ladder was evicted to its CAT2 spill file serves tiles
  // byte-identical to the fully-resident path, while the mmap'd
  // backing faults in strictly fewer bytes than a full
  // materialization would read.
  constexpr size_t kMillion = 1000000;
  auto dataset = SkewedShared(kMillion);
  ASSERT_GE(dataset->size(), kMillion);
  UniformReservoirSampler sampler(77);
  SampleCatalog catalog(*dataset, sampler, Ladder({20000}));

  PlotService resident;  // unlimited memory: the baseline pixels
  ASSERT_TRUE(resident.AddTable("geo", dataset, catalog).ok());

  PlotService::Options tight;
  tight.catalog.memory_budget_bytes = 1;  // evict everything not in use
  PlotService spilled(tight);
  ASSERT_TRUE(spilled.AddTable("geo", dataset, catalog).ok());
  // Eviction spares the entry being accessed, so a second table's
  // registration is what pushes "geo" out; the spill write itself runs
  // off-lock — wait until the ladder is provably out of memory.
  auto tiny_dataset = SkewedShared(2000);
  UniformReservoirSampler tiny_sampler(78);
  SampleCatalog tiny_catalog(*tiny_dataset, tiny_sampler, Ladder({100}));
  ASSERT_TRUE(spilled.AddTable("tiny", tiny_dataset, tiny_catalog).ok());
  CatalogKey key{"geo", "x", "y"};
  for (int i = 0; i < 500; ++i) {
    auto status = spilled.manager().GetStatus(key);
    ASSERT_TRUE(status.ok());
    if (!status->resident) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_FALSE(spilled.manager().GetStatus(key)->resident);

  // A deep-zoom tile and both styles: the spilled service must render
  // the very same bytes, and both come from cell-range partial loads.
  // The scatter tile is value-colored (Skewed data has values); the
  // rung's recorded value range stands in for the whole-rung fold.
  TileKey tile{3, 4, 3};
  for (TileStyle style : {TileStyle::kScatter, TileStyle::kHeatmap}) {
    auto baseline = resident.RenderTile("geo", tile, "", style);
    auto partial = spilled.RenderTile("geo", tile, "", style);
    ASSERT_TRUE(baseline.ok());
    ASSERT_TRUE(partial.ok());
    EXPECT_EQ(baseline->sample_size, 20000u);
    EXPECT_EQ(partial->sample_size, 20000u);
    EXPECT_EQ(*partial->png, *baseline->png)
        << "spilled tile diverged from the resident render";
  }
  EXPECT_EQ(Count(spilled, "vas_tile_partial_loads_total"), 2);
  EXPECT_EQ(Count(resident, "vas_tile_partial_loads_total"), 0);

  // The resident-byte accounting proves the partial load: the mapped
  // store faulted in some pages, but strictly fewer than the whole
  // file a full materialization reads.
  auto stats = spilled.manager().memory_stats();
  EXPECT_GT(stats.mapped_bytes, 0u);
  EXPECT_GT(stats.touched_page_bytes, 0u);
  EXPECT_LT(stats.touched_page_bytes, stats.mapped_bytes);
  // The tiles really came from the mapping, not a transparent reload.
  EXPECT_EQ(Count(spilled, "vas_catalog_reloads_total"), 0);
  EXPECT_FALSE(spilled.manager().GetStatus(key)->resident);

  // Value-colored scatter tiles at zooms 3-7, including a tile across
  // an interior cell boundary of the rung's grid and tiles at the
  // corners of the rung's domain, where the extreme points sit.
  auto view = spilled.manager().ViewFor(key);
  ASSERT_TRUE(view.ok());
  ASSERT_TRUE(view->partial());
  const CatalogStore::Rung& rung = view->store()->rung(0);
  ASSERT_GT(rung.grid_x, 1u);
  const Rect& domain = rung.domain;
  const TileGrid grid(dataset->Bounds());
  const Point cell_corner{
      domain.min_x + domain.width() / static_cast<double>(rung.grid_x),
      domain.min_y + domain.height() / static_cast<double>(rung.grid_y)};
  std::vector<TileKey> tiles = {grid.TileAt(5, cell_corner),
                                grid.TileAt(6, {domain.max_x, domain.max_y}),
                                grid.TileAt(7, {domain.min_x, domain.min_y})};
  const Point hot = dataset->points[catalog.samples()[0].ids[0]];
  for (uint32_t z = 3; z <= 7; ++z) tiles.push_back(grid.TileAt(z, hot));
  for (const TileKey& t : tiles) {
    auto baseline = resident.RenderTile("geo", t);
    auto partial = spilled.RenderTile("geo", t);
    ASSERT_TRUE(baseline.ok());
    ASSERT_TRUE(partial.ok());
    EXPECT_EQ(*partial->png, *baseline->png)
        << "spilled scatter tile " << t.ToString()
        << " diverged from the resident render";
  }
  EXPECT_EQ(Count(spilled, "vas_catalog_reloads_total"), 0);
}

TEST(PlotServiceTest, SpilledScatterTileKeepsRungDrawOrder) {
  // Two overlapping, differently valued dots sit in grid cells whose
  // cell-major order is the reverse of their rung order. The big dot
  // comes first in the rung, so the small dot drawn after it stays
  // visible ("later points win") — on the mapped path too.
  auto dataset = std::make_shared<Dataset>();
  dataset->Add(Point{0.0, 0.0}, 0.0);
  dataset->Add(Point{10.0, 10.0}, 0.0);
  dataset->Add(Point{6.02, 6.02}, 1.0);  // first in the rung, top cell
  dataset->Add(Point{6.0, 6.0}, 5.0);    // second, bottom cell
  dataset->CacheBounds();
  SampleSet sample;
  sample.method = "hand";
  sample.ids = {2, 3};
  sample.density = {1000, 2};
  SampleCatalog catalog(std::vector<SampleSet>{sample});

  test::ScopedTempFile file("plot_service_draw_order.vascat");
  CatalogWriteOptions write;
  write.dataset = dataset.get();
  write.target_entries_per_cell = 1;  // a 2x2 grid over the two dots
  ASSERT_TRUE(WriteCatalogPaged(catalog, file.path(), write).ok());

  PlotService resident;
  ASSERT_TRUE(resident.AddTable("dots", dataset, catalog).ok());
  PlotService mapped;
  ASSERT_TRUE(mapped.LoadTable("dots", dataset, file.path()).ok());
  auto view = mapped.manager().ViewFor(CatalogKey{"dots", "x", "y"});
  ASSERT_TRUE(view.ok());
  ASSERT_TRUE(view->partial());
  ASSERT_EQ(view->store()->rung(0).grid_x, 2u);

  const TileGrid grid(dataset->Bounds());
  for (TileKey tile : {TileKey{0, 0, 0}, grid.TileAt(4, Point{6.0, 6.0})}) {
    auto baseline = resident.RenderTile("dots", tile);
    auto served = mapped.RenderTile("dots", tile);
    ASSERT_TRUE(baseline.ok());
    ASSERT_TRUE(served.ok());
    EXPECT_EQ(*served->png, *baseline->png)
        << "mapped tile " << tile.ToString() << " drew the dots out of order";
  }
  EXPECT_EQ(Count(mapped, "vas_tile_partial_loads_total"), 2);
}

TEST(PlotServiceTest, SpilledFileWithoutValueRangeServesScatterWhole) {
  // A file written without a recorded value range (partitioned against
  // a value-less copy of the dataset: a cell grid, but no range) served
  // with the valued dataset: scatter tiles must come from the whole
  // rung and still match the resident render.
  auto dataset = SkewedShared(20000);
  ASSERT_TRUE(dataset->has_values());
  UniformReservoirSampler sampler(79);
  SampleCatalog catalog(*dataset, sampler, Ladder({5000}));
  Dataset valueless = *dataset;
  valueless.values.clear();
  test::ScopedTempFile file("plot_service_no_range.vascat");
  CatalogWriteOptions write;
  write.dataset = &valueless;
  ASSERT_TRUE(WriteCatalogPaged(catalog, file.path(), write).ok());

  PlotService resident;
  ASSERT_TRUE(resident.AddTable("geo", dataset, catalog).ok());
  PlotService mapped;
  ASSERT_TRUE(mapped.LoadTable("geo", dataset, file.path()).ok());
  auto view = mapped.manager().ViewFor(CatalogKey{"geo", "x", "y"});
  ASSERT_TRUE(view.ok());
  ASSERT_GT(view->store()->rung(0).grid_x, 1u);
  EXPECT_FALSE(view->RungValueRange(0).has_value());
  const TileGrid grid(dataset->Bounds());
  const Point hot = dataset->points[catalog.samples()[0].ids[0]];
  for (uint32_t z = 2; z <= 5; ++z) {
    const TileKey tile = grid.TileAt(z, hot);
    auto baseline = resident.RenderTile("geo", tile);
    auto served = mapped.RenderTile("geo", tile);
    ASSERT_TRUE(baseline.ok());
    ASSERT_TRUE(served.ok());
    EXPECT_EQ(*served->png, *baseline->png)
        << "mapped tile " << tile.ToString() << " diverged";
  }
  EXPECT_EQ(Count(mapped, "vas_tile_partial_loads_total"), 0);
  EXPECT_EQ(Count(mapped, "vas_tiles_rendered_total", {{"style", "scatter"}}),
            4);
}

TEST(PlotServiceTest, ConcurrentSpilledRendersChargeOnlyTheirOwnPages) {
  // Cold heatmap tiles of two spilled tables rendered concurrently:
  // each render is charged only the pages it faulted in itself, so
  // vas_tile_partial_load_bytes_total moves by exactly the two stores'
  // combined touched_bytes() delta.
  PlotService::Options tight;
  tight.catalog.memory_budget_bytes = 1;  // evict everything not in use
  PlotService service(tight);
  const std::vector<std::string> names = {"a", "b"};
  for (size_t t = 0; t < names.size(); ++t) {
    auto dataset = SkewedShared(50000);
    UniformReservoirSampler sampler(80 + t);
    SampleCatalog catalog(*dataset, sampler, Ladder({8000}));
    ASSERT_TRUE(service.AddTable(names[t], dataset, catalog).ok());
  }
  // Eviction spares the entry being accessed: a third registration
  // pushes the second table out as well.
  auto tiny_dataset = SkewedShared(2000);
  UniformReservoirSampler tiny_sampler(82);
  SampleCatalog tiny_catalog(*tiny_dataset, tiny_sampler, Ladder({100}));
  ASSERT_TRUE(service.AddTable("tiny", tiny_dataset, tiny_catalog).ok());
  for (const std::string& name : names) {
    CatalogKey key{name, "x", "y"};
    for (int i = 0; i < 500; ++i) {
      auto status = service.manager().GetStatus(key);
      ASSERT_TRUE(status.ok());
      if (!status->resident) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    ASSERT_FALSE(service.manager().GetStatus(key)->resident);
  }

  // Map both stores before measuring: opening one verifies its
  // superblock and metadata pages.
  std::vector<std::shared_ptr<const CatalogStore>> stores;
  size_t touched_before = 0;
  for (const std::string& name : names) {
    auto view = service.manager().ViewFor(CatalogKey{name, "x", "y"});
    ASSERT_TRUE(view.ok());
    ASSERT_TRUE(view->partial());
    stores.push_back(view->store());
    touched_before += stores.back()->touched_bytes();
  }
  obs::Counter* charged = service.metrics_registry()->GetCounter(
      "vas_tile_partial_load_bytes_total", "");
  const uint64_t charged_before = charged->Value();

  // Every zoom-2 tile of each table, one thread per table.
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (const std::string& name : names) {
    threads.emplace_back([&service, &failures, name] {
      for (uint32_t x = 0; x < 4; ++x) {
        for (uint32_t y = 0; y < 4; ++y) {
          auto tile = service.RenderTile(name, TileKey{2, x, y}, "",
                                         TileStyle::kHeatmap);
          if (!tile.ok()) failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(Count(service, "vas_tile_partial_loads_total"), 32);

  size_t touched_after = 0;
  for (const auto& store : stores) touched_after += store->touched_bytes();
  EXPECT_GT(touched_after, touched_before);
  EXPECT_EQ(charged->Value() - charged_before, touched_after - touched_before);
  for (const std::string& name : names) {
    EXPECT_FALSE(service.manager().GetStatus({name, "x", "y"})->resident);
  }
}

TEST(PlotServiceTest, SingleFlightWaitersGetTheRendersError) {
  // A cold tile of a mapped table with a corrupt data page: the
  // elected render fails with the page's IoError, and every caller
  // coalesced behind it must get that same error.
  auto dataset = SkewedShared(200000);
  UniformReservoirSampler sampler(83);
  SampleCatalog catalog(*dataset, sampler, Ladder({100000}));
  test::ScopedTempFile file("plot_service_corrupt_page.vascat");
  CatalogWriteOptions write;
  write.dataset = dataset.get();
  ASSERT_TRUE(WriteCatalogPaged(catalog, file.path(), write).ok());
  {
    // Flip a byte of the last data page. The whole-domain tile below
    // verifies nearly every other page before it reaches that one,
    // which keeps the elected render in flight while others arrive.
    std::fstream f(file.path(),
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(-48, std::ios::end);
    uint64_t footer[5] = {};
    f.read(reinterpret_cast<char*>(footer), sizeof(footer));
    const uint64_t page_size = footer[1];
    const uint64_t last_data_page = footer[3] - 1;
    ASSERT_GE(last_data_page, 2u);
    f.seekp(static_cast<std::streamoff>(last_data_page * page_size + 8));
    f.put('\x5a');
    ASSERT_TRUE(f.good());
  }

  constexpr size_t kThreads = 8;
  uint64_t waiters = 0;
  for (int round = 0; round < 20 && waiters == 0; ++round) {
    PlotService service;  // a fresh mapping: no page verified yet
    ASSERT_TRUE(service.LoadTable("geo", dataset, file.path()).ok());
    std::promise<void> start;
    std::shared_future<void> gate = start.get_future().share();
    std::vector<StatusCode> codes(kThreads, StatusCode::kOk);
    std::vector<std::thread> threads;
    for (size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        gate.wait();
        codes[t] = service.RenderTile("geo", TileKey{0, 0, 0}).status().code();
      });
    }
    start.set_value();
    for (std::thread& thread : threads) thread.join();
    for (size_t t = 0; t < kThreads; ++t) {
      EXPECT_EQ(codes[t], StatusCode::kIoError)
          << "round " << round << ", thread " << t;
    }
    // Nothing was cached, so every hit is a caller that waited on the
    // elected render.
    waiters = service.metrics_registry()
                  ->GetCounter("vas_tile_cache_hits_total", "")
                  ->Value();
  }
  EXPECT_GT(waiters, 0u) << "no caller ever waited on an elected render";
}

TEST(PlotServiceTest, PlotOfADamagedCatalogFileReturnsTheManagersError) {
  // /plot reads a mapped table's ladder back into memory. When a data
  // page fails its CRC, QueryViewport returns the manager's Internal
  // error on every call instead of aborting the process.
  auto dataset = SkewedShared(20000);
  UniformReservoirSampler sampler(84);
  SampleCatalog catalog(*dataset, sampler, Ladder({500, 5000}));
  test::ScopedTempFile file("plot_service_damaged_plot.vascat");
  CatalogWriteOptions write;
  write.dataset = dataset.get();
  ASSERT_TRUE(WriteCatalogPaged(catalog, file.path(), write).ok());
  {
    // Flip a payload byte of data page 1. The footer's second u64, 40
    // bytes from the end, is the page size.
    std::fstream f(file.path(),
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(-40, std::ios::end);
    uint64_t page_size = 0;
    f.read(reinterpret_cast<char*>(&page_size), sizeof(page_size));
    f.seekp(static_cast<std::streamoff>(page_size + 8));
    f.put('\x5a');
    ASSERT_TRUE(f.good());
  }

  PlotService service;
  ASSERT_TRUE(service.LoadTable("geo", dataset, file.path()).ok());
  for (int call = 0; call < 2; ++call) {
    auto info = service.QueryViewport("geo", Rect(), 2.0);
    ASSERT_FALSE(info.ok()) << "call " << call;
    EXPECT_EQ(info.status().code(), StatusCode::kInternal)
        << info.status().ToString();
    EXPECT_NE(info.status().message().find("spill file corrupt"),
              std::string::npos)
        << info.status().ToString();
  }
  // The file opens, so each failed read-back counts at the read stage.
  EXPECT_EQ(Count(service, "vas_catalog_load_failures_total",
                  {{"stage", "read"}}),
            2);
  EXPECT_EQ(Count(service, "vas_catalog_load_failures_total",
                  {{"stage", "open"}}),
            0);
  EXPECT_EQ(Count(service, "vas_catalog_reloads_total"), 0);
}

TEST(PlotServiceTest, GetTableReportsWorldAndBuildState) {
  PlotService service;
  auto dataset = SkewedShared(2500);
  ASSERT_TRUE(service
                  .RegisterTable("geo", dataset, UniformFactory(13),
                                 Ladder({100, 400}))
                  .ok());
  ASSERT_TRUE(service.manager().WaitUntilDone(CatalogKey{"geo"}).ok());
  auto info = service.GetTable("geo");
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->rows, 2500u);
  EXPECT_EQ(info->key.table, "geo");
  EXPECT_EQ(info->world, TileGrid(dataset->Bounds()).world());
  EXPECT_TRUE(info->build.done);
  EXPECT_EQ(info->build.rungs_total, 2u);
}

}  // namespace
}  // namespace vas
