// The serving layer between HTTP and the engine: PlotService owns a
// CatalogManager, resolves a (table, tile) request to the best sample
// rung currently available, renders it through ScatterRenderer, and
// fronts every render with a sharded byte-budgeted TileCache. The
// cache key carries the served rung's size, so when a larger rung of a
// background build lands the next fetch misses and renders the sharper
// tile, while the LRU reclaims the stale one — progressive refinement
// reaching clients as the paper's "serve the best sample the budget
// allows" policy, turned into a multi-user tile server.
#ifndef VAS_SERVICE_PLOT_SERVICE_H_
#define VAS_SERVICE_PLOT_SERVICE_H_

#include <atomic>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "engine/catalog_manager.h"
#include "engine/session.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "render/scatter_renderer.h"
#include "service/tile_cache.h"
#include "service/tile_math.h"
#include "util/status.h"

namespace vas {

/// How a tile is rendered. Part of the cache key and the ETag: the two
/// styles of one tile are distinct cached resources.
enum class TileStyle {
  /// Sampled scatter dots (the default).
  kScatter,
  /// Colormapped per-pixel density counts from the binning pass,
  /// weighted by embedded density when the rung carries it.
  kHeatmap,
};

/// Stable wire name ("scatter" / "heatmap") used in cache keys, ETags,
/// and the ?style= query parameter.
const char* TileStyleName(TileStyle style);

/// Inverse of TileStyleName; empty input means kScatter (the default
/// style). InvalidArgument for anything else.
StatusOr<TileStyle> ParseTileStyle(const std::string& name);

class PlotService {
 public:
  struct Options {
    /// Build pool / memory budget / spill dir for the owned manager.
    CatalogManager::Options catalog;
    /// Tile edge in pixels (tiles are square).
    size_t tile_px = 256;
    /// Byte budget of the encoded-tile cache (sharded as
    /// TileCache::Options' default).
    size_t tile_cache_budget_bytes = 64ull << 20;
    /// Interactivity budget a tile render may spend: the served rung is
    /// the largest whose estimated viz time fits (paper §II-D policy).
    double tile_time_budget_seconds = 2.0;
    /// Latency model converting rung sizes to estimated viz time.
    VizTimeModel viz_model = VizTimeModel::MathGL();
    /// Client-cache lifetimes (Cache-Control: max-age) for tiles. A
    /// tile of a *finished* build is stable for its registration, so it
    /// may live long in browser caches; while the ladder is still
    /// building, tiles go stale the moment a sharper rung lands, so
    /// clients should revalidate quickly (the ETag makes that refetch a
    /// cheap 304 when nothing changed). Caveat: tile URLs carry only
    /// the table name, so within the final max-age a browser will not
    /// revalidate at all — re-registering *different* data under the
    /// same table name can serve stale cached tiles for up to this
    /// long. Serve changed datasets under a new table name, or lower
    /// this.
    int tile_final_max_age_seconds = 3600;
    int tile_building_max_age_seconds = 2;
    /// Renderer styling for tiles; width/height are overridden per tile
    /// with tile_px.
    ScatterRenderer::Options renderer;
    /// PNG encoding of tile bytes. It has no settings: the pixels pick
    /// indexed or row-filtered RGB scanlines, and DEFLATE takes their
    /// geometry from the image (see PngEncodeOptions).
    PngEncodeOptions png;
    /// Colormap for ?style=heatmap tiles.
    ColormapKind heatmap_colormap = ColormapKind::kViridis;
    /// Registry the render/cache/catalog metrics live in. Null = the
    /// service owns a private registry (read it via
    /// metrics_registry()). Propagated into the owned CatalogManager
    /// (unless catalog.registry is already set) so one registry covers
    /// the whole serving stack.
    obs::MetricsRegistry* registry = nullptr;
  };

  struct TileResult {
    /// Encoded PNG bytes; shared with the cache so eviction cannot
    /// invalidate an in-flight response.
    std::shared_ptr<const std::string> png;
    /// Rung the tile was rendered from, and ladder progress at serve
    /// time — rungs_ready < rungs_total means a sharper tile will
    /// exist once the build advances.
    size_t sample_size = 0;
    size_t rungs_ready = 0;
    size_t rungs_total = 0;
    bool cache_hit = false;
    /// Strong entity tag for this tile's current bytes, derived from
    /// the cache-key material (registration generation + tile + rung):
    /// any event that changes the pixels — a sharper rung landing, or a
    /// drop/re-register of the table — changes the tag.
    std::string etag;
    /// True when the request's If-None-Match matched: the client's copy
    /// is current, `png` is null, and no render was performed.
    bool not_modified = false;
    /// True when the ladder build is finished — no sharper rung will
    /// land, so the tile is stable for this registration.
    bool build_done = false;
  };

  /// /plot's answer: viewport aggregates from the engine session (the
  /// exact count comes from the cached UniformGrid, not a rescan, and
  /// the sample count from the chosen rung's cell layout).
  struct ViewportInfo {
    size_t sample_size = 0;
    size_t sample_points_in_viewport = 0;
    size_t points_in_viewport = 0;
    double estimated_viz_seconds = 0.0;
    double estimated_full_viz_seconds = 0.0;
    size_t rungs_ready = 0;
    size_t rungs_total = 0;
  };

  struct TableInfo {
    CatalogKey key;
    CatalogManager::BuildStatus build;
    /// Tile addressing domain (the dataset bounds, normalized).
    Rect world;
    size_t rows = 0;
  };

  explicit PlotService(const Options& options);
  PlotService() : PlotService(Options{}) {}

  PlotService(const PlotService&) = delete;
  PlotService& operator=(const PlotService&) = delete;

  /// Registers `table` and starts its ladder build in the background;
  /// tiles serve from the smallest rung the moment it lands. The
  /// dataset should have cached bounds (Dataset::CacheBounds) and must
  /// not be mutated while registered.
  Status RegisterTable(const std::string& table,
                       std::shared_ptr<const Dataset> dataset,
                       SamplerFactory sampler_factory,
                       SampleCatalog::Options catalog_options);

  /// Registers `table` serving an already-built ladder (no build).
  Status AddTable(const std::string& table,
                  std::shared_ptr<const Dataset> dataset,
                  SampleCatalog catalog);

  /// Registers `table` from a catalog file written by WriteCatalogPaged
  /// / vas_tool save-catalog — cold start at disk-load cost.
  Status LoadTable(const std::string& table,
                   std::shared_ptr<const Dataset> dataset,
                   const std::string& catalog_path);

  /// Unregisters `table` and drops its cached tiles. NotFound when
  /// absent; FailedPrecondition while its build is still running.
  Status DropTable(const std::string& table);

  /// Renders (or serves from cache) one tile in `style`. Blocks only
  /// while the table has no servable rung yet. NotFound for unknown
  /// tables, InvalidArgument for keys outside the tile grid.
  /// `if_none_match` is the raw If-None-Match header value (empty =
  /// unconditional): when it matches the tile's current ETag, the
  /// result comes back with not_modified set and no bytes — the render
  /// and cache lookup are both skipped.
  /// `trace` (optional) receives rung_choice / materialize / render /
  /// encode spans with touched-byte annotations.
  StatusOr<TileResult> RenderTile(const std::string& table,
                                  const TileKey& tile,
                                  const std::string& if_none_match = "",
                                  TileStyle style = TileStyle::kScatter,
                                  obs::RequestTrace* trace = nullptr);

  /// Viewport aggregates for /plot; an empty rect means the whole
  /// domain.
  StatusOr<ViewportInfo> QueryViewport(const std::string& table,
                                       const Rect& viewport,
                                       double time_budget_seconds);

  /// Registered tables with live build state, sorted by name.
  std::vector<TableInfo> Tables() const;
  StatusOr<TableInfo> GetTable(const std::string& table) const;

  /// The tile grid addressing `table`'s plane (for clients decomposing
  /// viewports, and for byte-identity checks in tests/benches).
  StatusOr<TileGrid> GridFor(const std::string& table) const;

  /// The exact renderer configuration tiles are drawn with — rendering
  /// the same rung through ScatterRenderer with these options yields
  /// byte-identical PNGs to the served tiles.
  ScatterRenderer::Options TileRenderOptions() const;

  CatalogManager& manager() { return *manager_; }
  /// The encoded-tile cache, for its entry and byte counts; hits,
  /// misses, evictions and invalidations are vas_tile_cache_* counters
  /// in metrics_registry().
  const TileCache& cache() const { return cache_; }
  const Options& options() const { return options_; }

  /// The registry the render metrics live in (Options.registry, or the
  /// service's private one).
  obs::MetricsRegistry* metrics_registry() const { return registry_; }

 private:
  struct Table {
    std::shared_ptr<const Dataset> dataset;
    TileGrid grid;
    std::shared_ptr<InteractiveSession> session;
    CatalogKey key;
    /// Monotonic per-registration id baked into cache keys: a render
    /// in flight across a DropTable + re-registration of the same name
    /// lands its Put under the dead generation, so the new table can
    /// never serve tiles of the old dataset.
    uint64_t generation = 0;
  };

  /// Cache key namespace: "table\n" prefixes every tile of the table,
  /// which is what DropTable erases.
  static std::string TablePrefix(const std::string& table) {
    return table + "\n";
  }
  static std::string CacheKeyFor(const std::string& table,
                                 uint64_t generation, const TileKey& tile,
                                 size_t rung, TileStyle style) {
    return TablePrefix(table) + std::to_string(generation) + "\n" +
           tile.ToString() + "\n" + std::to_string(rung) + "\n" +
           TileStyleName(style);
  }

  /// Strong ETag from the same material as the cache key (the table
  /// itself is named by the URL, so the tag distinguishes registration
  /// generations, tiles, rungs, and styles). Quoted per RFC 9110.
  static std::string EtagFor(uint64_t generation, const TileKey& tile,
                             size_t rung, TileStyle style) {
    return "\"g" + std::to_string(generation) + "-" + tile.ToString() +
           "-k" + std::to_string(rung) + "-" + TileStyleName(style) + "\"";
  }

  StatusOr<Table> FindTable(const std::string& table) const;
  Status InsertTable(const std::string& table,
                     std::shared_ptr<const Dataset> dataset);

  const Options options_;
  /// Backs registry_ when Options.registry is null.
  std::unique_ptr<obs::MetricsRegistry> owned_registry_;
  obs::MetricsRegistry* registry_ = nullptr;
  /// Render-path metrics, owned by registry_. These are the *only*
  /// storage — /stats reads them back by name, so it and /metrics can
  /// never disagree. Touched only on the cold render path.
  struct RenderMetrics {
    obs::Counter* scatter_tiles = nullptr;
    obs::Counter* heatmap_tiles = nullptr;
    obs::Counter* scatter_entries = nullptr;
    obs::Counter* heatmap_entries = nullptr;
    obs::Counter* partial_loads = nullptr;
    obs::Counter* partial_load_bytes = nullptr;
    obs::Counter* encode_bytes_in = nullptr;
    obs::Counter* encode_bytes_out = nullptr;
    obs::Counter* cache_hits = nullptr;
    obs::Counter* cache_misses = nullptr;
    obs::Counter* cache_evictions = nullptr;
    obs::Counter* cache_invalidations = nullptr;
    obs::Histogram* scatter_render_ns = nullptr;
    obs::Histogram* heatmap_render_ns = nullptr;
    obs::Histogram* scatter_encode_ns = nullptr;
    obs::Histogram* heatmap_encode_ns = nullptr;
  };
  RenderMetrics metrics_;
  TileCache cache_;
  std::unique_ptr<CatalogManager> manager_;
  mutable std::mutex mu_;
  std::map<std::string, Table> tables_;
  std::atomic<uint64_t> next_generation_{1};
  using RenderedPng = StatusOr<std::shared_ptr<const std::string>>;
  /// Single-flight window: one render per cache key at a time; callers
  /// that miss behind an in-flight render wait for its bytes, or its
  /// error, instead of redundantly rendering the same tile.
  std::mutex inflight_mu_;
  std::map<std::string, std::shared_future<RenderedPng>> inflight_;
};

}  // namespace vas

#endif  // VAS_SERVICE_PLOT_SERVICE_H_
