#include "service/plot_service.h"

#include <utility>

#include "core/density.h"
#include "obs/trace.h"
#include "service/http_server.h"  // EtagMatches
#include "util/logging.h"

namespace vas {

const char* TileStyleName(TileStyle style) {
  switch (style) {
    case TileStyle::kScatter:
      return "scatter";
    case TileStyle::kHeatmap:
      return "heatmap";
  }
  return "scatter";
}

StatusOr<TileStyle> ParseTileStyle(const std::string& name) {
  if (name.empty() || name == "scatter") return TileStyle::kScatter;
  if (name == "heatmap") return TileStyle::kHeatmap;
  return Status::InvalidArgument("unknown tile style: " + name);
}

PlotService::PlotService(const Options& options)
    : options_(options),
      cache_(TileCache::Options{options.tile_cache_budget_bytes}) {
  if (options_.registry != nullptr) {
    registry_ = options_.registry;
  } else {
    owned_registry_ = std::make_unique<obs::MetricsRegistry>();
    registry_ = owned_registry_.get();
  }
  metrics_.scatter_tiles = registry_->GetCounter(
      "vas_tiles_rendered_total", "Cold tile renders (cache hits excluded).",
      {{"style", "scatter"}});
  metrics_.heatmap_tiles = registry_->GetCounter(
      "vas_tiles_rendered_total", "Cold tile renders (cache hits excluded).",
      {{"style", "heatmap"}});
  metrics_.partial_loads = registry_->GetCounter(
      "vas_tile_partial_loads_total",
      "Cold renders drawn from a cell-range load of a spilled table's "
      "mmap'd paged catalog (mapped loads only; resident cell ranges are "
      "not counted).");
  metrics_.partial_load_bytes = registry_->GetCounter(
      "vas_tile_partial_load_bytes_total",
      "Page bytes newly faulted in by partial tile materializations.");
  metrics_.encode_bytes_in = registry_->GetCounter(
      "vas_tile_encode_bytes_in_total",
      "Scanline bytes the PNG encoder handed to DEFLATE, filter bytes "
      "included: height x (width + 1) for an indexed tile, height x "
      "(3 x width + 1) for a truecolor one.");
  metrics_.encode_bytes_out = registry_->GetCounter(
      "vas_tile_encode_bytes_out_total", "Encoded PNG bytes produced.");
  metrics_.cache_hits = registry_->GetCounter(
      "vas_tile_cache_hits_total",
      "Tile requests answered from the encoded-tile cache (including "
      "single-flight followers).");
  metrics_.cache_misses = registry_->GetCounter(
      "vas_tile_cache_misses_total",
      "Tile requests that had to render (elected single-flight leaders).");
  metrics_.cache_evictions = registry_->GetCounter(
      "vas_tile_cache_evictions_total",
      "Encoded tiles evicted to keep the tile cache under its budget.");
  metrics_.cache_invalidations = registry_->GetCounter(
      "vas_tile_cache_invalidations_total",
      "Encoded tiles dropped from the tile cache with their table.");
  for (const char* style : {"scatter", "heatmap"}) {
    obs::LabelSet labels{{"style", style}};
    obs::Histogram* render = registry_->GetHistogram(
        "vas_tile_render_ns", "Tile rasterization wall time.", labels);
    obs::Histogram* encode = registry_->GetHistogram(
        "vas_tile_encode_ns", "Tile PNG encode wall time.", labels);
    obs::Counter* entries = registry_->GetCounter(
        "vas_tile_materialized_entries_total",
        "Rung entries cold renders drew from: the cells a tile's viewport "
        "touches, or the whole rung.",
        labels);
    if (std::string(style) == "heatmap") {
      metrics_.heatmap_render_ns = render;
      metrics_.heatmap_encode_ns = encode;
      metrics_.heatmap_entries = entries;
    } else {
      metrics_.scatter_render_ns = render;
      metrics_.scatter_encode_ns = encode;
      metrics_.scatter_entries = entries;
    }
  }
  CatalogManager::Options manager_options = options_.catalog;
  // One registry for the whole serving stack unless the caller split
  // them deliberately.
  if (manager_options.registry == nullptr) {
    manager_options.registry = registry_;
  }
  manager_ = std::make_unique<CatalogManager>(manager_options);
}

Status PlotService::InsertTable(const std::string& table,
                                std::shared_ptr<const Dataset> dataset) {
  CatalogKey key{table, "x", "y"};
  Table state{dataset, TileGrid(dataset->Bounds()),
              std::make_shared<InteractiveSession>(dataset, manager_.get(),
                                                   key, options_.viz_model),
              key, next_generation_.fetch_add(1)};
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = tables_.try_emplace(table, std::move(state));
  (void)it;
  if (!inserted) {
    // The manager accepted the key, so this only happens when a racing
    // registration of the same name won; surface the same error the
    // manager would have raised.
    return Status::InvalidArgument("table already registered: " + table);
  }
  return Status::OK();
}

Status PlotService::RegisterTable(const std::string& table,
                                  std::shared_ptr<const Dataset> dataset,
                                  SamplerFactory sampler_factory,
                                  SampleCatalog::Options catalog_options) {
  if (dataset == nullptr) {
    return Status::InvalidArgument("null dataset for table " + table);
  }
  VAS_RETURN_IF_ERROR(manager_->StartBuild(CatalogKey{table, "x", "y"},
                                           dataset,
                                           std::move(sampler_factory),
                                           std::move(catalog_options)));
  return InsertTable(table, std::move(dataset));
}

Status PlotService::AddTable(const std::string& table,
                             std::shared_ptr<const Dataset> dataset,
                             SampleCatalog catalog) {
  if (dataset == nullptr) {
    return Status::InvalidArgument("null dataset for table " + table);
  }
  VAS_RETURN_IF_ERROR(manager_->AddCatalog(CatalogKey{table, "x", "y"},
                                           dataset, std::move(catalog)));
  return InsertTable(table, std::move(dataset));
}

Status PlotService::LoadTable(const std::string& table,
                              std::shared_ptr<const Dataset> dataset,
                              const std::string& catalog_path) {
  if (dataset == nullptr) {
    return Status::InvalidArgument("null dataset for table " + table);
  }
  VAS_RETURN_IF_ERROR(manager_->LoadCatalog(CatalogKey{table, "x", "y"},
                                            dataset, catalog_path));
  return InsertTable(table, std::move(dataset));
}

Status PlotService::DropTable(const std::string& table) {
  StatusOr<Table> state = FindTable(table);
  if (!state.ok()) return state.status();
  VAS_RETURN_IF_ERROR(manager_->Drop(state->key));
  {
    std::lock_guard<std::mutex> lock(mu_);
    tables_.erase(table);
  }
  metrics_.cache_invalidations->Increment(
      cache_.InvalidatePrefix(TablePrefix(table)));
  return Status::OK();
}

StatusOr<PlotService::Table> PlotService::FindTable(
    const std::string& table) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tables_.find(table);
  if (it == tables_.end()) {
    return Status::NotFound("no table registered: " + table);
  }
  return it->second;
}

ScatterRenderer::Options PlotService::TileRenderOptions() const {
  ScatterRenderer::Options render_options = options_.renderer;
  render_options.width_px = options_.tile_px;
  render_options.height_px = options_.tile_px;
  return render_options;
}

StatusOr<PlotService::TileResult> PlotService::RenderTile(
    const std::string& table, const TileKey& tile,
    const std::string& if_none_match, TileStyle style,
    obs::RequestTrace* trace) {
  if (!TileGrid::IsValid(tile)) {
    return Status::InvalidArgument("tile out of range: " + tile.ToString());
  }
  VAS_ASSIGN_OR_RETURN(Table state, FindTable(table));
  // Best ladder available right now; blocks only before the first rung.
  // A spilled table with a paged backing file comes back as a mapped
  // view — choosing the rung and keying the cache need only the rung
  // *sizes*, so no sample data is faulted in unless we actually render.
  const size_t rung_choice_span =
      trace != nullptr ? trace->BeginSpan("rung_choice") : 0;
  VAS_ASSIGN_OR_RETURN(CatalogView view, manager_->ViewFor(state.key));
  const size_t rung_index = view.ChooseForTimeBudget(
      options_.tile_time_budget_seconds, options_.viz_model);
  const size_t rung_points = view.rung_size(rung_index);
  if (trace != nullptr) {
    trace->EndSpan(rung_choice_span);
    trace->Annotate(rung_choice_span, "rung_points",
                    static_cast<int64_t>(rung_points));
  }

  TileResult result;
  result.sample_size = rung_points;
  result.rungs_ready = view.rung_count();
  auto build = manager_->GetStatus(state.key);
  result.rungs_total = build.ok() ? build->rungs_total : view.rung_count();
  result.build_done = build.ok() && build->done;
  result.etag = EtagFor(state.generation, tile, rung_points, style);

  // Conditional request: when the client already holds these exact
  // bytes (same generation + tile + rung), answer without touching the
  // cache or the renderer at all.
  if (EtagMatches(if_none_match, result.etag)) {
    result.not_modified = true;
    return result;
  }

  // The rung size and table generation are part of the key, so a tile
  // rendered from an older rung (or a dropped registration) is never
  // served for a newer one; the LRU reclaims it.
  std::string cache_key =
      CacheKeyFor(table, state.generation, tile, rung_points, style);
  auto serve_cached = [&](std::shared_ptr<const std::string> png) {
    metrics_.cache_hits->Increment();
    result.png = std::move(png);
    result.cache_hit = true;
    return result;
  };
  if (auto cached = cache_.Get(cache_key)) {
    return serve_cached(std::move(cached));
  }

  // Single-flight: concurrent misses on the same key (typical right
  // after a rung upgrade moves a hot table to new keys) elect one
  // renderer; the rest wait for its bytes instead of burning a
  // redundant render each. A failed render hands its waiters its own
  // error (e.g. the IoError of a corrupt page). The leader publishes to
  // the cache before it leaves the window, so a miss that arrives after
  // it left finds the tile on the second lookup, under the lock.
  std::promise<RenderedPng> render_promise;
  {
    std::unique_lock<std::mutex> lock(inflight_mu_);
    if (auto cached = cache_.Get(cache_key)) {
      lock.unlock();
      return serve_cached(std::move(cached));
    }
    auto it = inflight_.find(cache_key);
    if (it != inflight_.end()) {
      auto pending = it->second;
      lock.unlock();
      metrics_.cache_hits->Increment();
      const RenderedPng& rendered = pending.get();
      if (!rendered.ok()) return rendered.status();
      result.png = *rendered;
      result.cache_hit = true;
      return result;
    }
    inflight_.emplace(cache_key, render_promise.get_future().share());
  }
  metrics_.cache_misses->Increment();

  const Rect bounds = state.grid.TileBounds(tile);
  Viewport viewport(bounds, options_.tile_px, options_.tile_px);
  // Resolve the sample to draw from the grid cells this tile's viewport
  // intersects: a resident rung selects them from its layout, a mapped
  // (spilled) one loads them from the paged store. That draws the same
  // pixels as the whole rung: both cull every point outside the tile,
  // and the cells come back in rung order, so the in-tile dots overlap
  // in the same order with the same densities. Heatmap bins need
  // nothing more. Value-colored scatter also needs the color range of
  // the whole rung, recorded with its layout; only a rung without one
  // (a file written before the range existed, or non-finite values) is
  // drawn whole. A resident rung whose cells all intersect the tile is
  // drawn in place, uncopied.
  const bool heatmap = style == TileStyle::kHeatmap;
  const auto value_range = view.RungValueRange(rung_index);
  const bool cells_suffice =
      heatmap || !state.dataset->has_values() || value_range.has_value();
  ScatterRenderer::Options render_options = TileRenderOptions();
  const size_t materialize_span =
      trace != nullptr ? trace->BeginSpan("materialize") : 0;
  const SampleSet* sample = cells_suffice
                                ? view.WholeRung(rung_index, bounds)
                                : view.ResidentRung(rung_index);
  SampleSet materialized_storage;
  // Page bytes this render faulted in itself; concurrent renders of the
  // same store each count only the pages they verified first.
  size_t touched_bytes = 0;
  if (sample == nullptr) {
    auto materialized =
        cells_suffice
            ? view.MaterializeForRect(rung_index, bounds, &touched_bytes)
            : view.MaterializeRung(rung_index, &touched_bytes);
    if (!materialized.ok()) {
      {
        std::lock_guard<std::mutex> lock(inflight_mu_);
        inflight_.erase(cache_key);
      }
      render_promise.set_value(materialized.status());
      return materialized.status();
    }
    materialized_storage = std::move(*materialized);
    sample = &materialized_storage;
  }
  // An operator-fixed range (value_hi > value_lo) wins on every path.
  if (value_range.has_value() &&
      !(render_options.value_hi > render_options.value_lo)) {
    render_options.value_lo = value_range->first;
    render_options.value_hi = value_range->second;
  }
  if (trace != nullptr) {
    trace->EndSpan(materialize_span);
    trace->Annotate(materialize_span, "points",
                    static_cast<int64_t>(sample->size()));
    trace->Annotate(materialize_span, "touched_bytes",
                    static_cast<int64_t>(touched_bytes));
  }
  ScatterRenderer renderer(render_options);
  const uint64_t render_start = obs::MonotonicNowNs();
  Image image = [&] {
    if (heatmap) {
      // Density tile: the binning pass alone (no dot rasterization),
      // weighted by embedded density when the rung carries it so counts
      // approximate the full dataset, colormapped on a per-tile log
      // scale.
      std::vector<uint32_t> counts =
          renderer.RenderCounts(sample->MaterializePoints(*state.dataset),
                                DensityWeights(*sample), viewport);
      return RenderDensityImage(counts, options_.tile_px, options_.tile_px,
                                options_.heatmap_colormap,
                                options_.renderer.background);
    }
    return renderer.RenderSample(*state.dataset, *sample, viewport);
  }();
  const uint64_t encode_start = obs::MonotonicNowNs();
  auto png = std::make_shared<const std::string>(image.EncodePng(options_.png));
  const uint64_t encode_end = obs::MonotonicNowNs();
  (heatmap ? metrics_.heatmap_tiles : metrics_.scatter_tiles)->Increment();
  (heatmap ? metrics_.heatmap_entries : metrics_.scatter_entries)
      ->Increment(sample->size());
  if (cells_suffice && view.partial()) {
    metrics_.partial_loads->Increment();
    metrics_.partial_load_bytes->Increment(touched_bytes);
  }
  (heatmap ? metrics_.heatmap_render_ns : metrics_.scatter_render_ns)
      ->Observe(encode_start - render_start);
  (heatmap ? metrics_.heatmap_encode_ns : metrics_.scatter_encode_ns)
      ->Observe(encode_end - encode_start);
  // IHDR's color type (byte 25) gives the scanline layout: 3 is one
  // index byte per pixel, 2 is three.
  const uint64_t bytes_per_pixel = (*png)[25] == 3 ? 1 : 3;
  metrics_.encode_bytes_in->Increment(
      image.height() * (1 + bytes_per_pixel * image.width()));
  metrics_.encode_bytes_out->Increment(png->size());
  if (trace != nullptr) {
    trace->AddCompleteSpan("render", render_start, encode_start);
    trace->AddCompleteSpan("encode", encode_start, encode_end);
  }
  // Publish to the cache before leaving the single-flight window, so a
  // new request always finds the bytes in one place or the other.
  metrics_.cache_evictions->Increment(cache_.Put(cache_key, png));
  {
    std::lock_guard<std::mutex> lock(inflight_mu_);
    inflight_.erase(cache_key);
  }
  render_promise.set_value(png);
  result.png = std::move(png);
  result.cache_hit = false;
  return result;
}

StatusOr<PlotService::ViewportInfo> PlotService::QueryViewport(
    const std::string& table, const Rect& viewport,
    double time_budget_seconds) {
  VAS_ASSIGN_OR_RETURN(Table state, FindTable(table));
  InteractiveSession::PlotRequest request;
  request.viewport = viewport;
  request.time_budget_seconds = time_budget_seconds;
  VAS_ASSIGN_OR_RETURN(InteractiveSession::PlotResult plot,
                       state.session->Plot(request));
  ViewportInfo info;
  info.sample_size = plot.catalog_sample_size;
  info.sample_points_in_viewport = plot.sample_points_in_viewport;
  info.points_in_viewport = plot.points_in_viewport;
  info.estimated_viz_seconds = plot.estimated_viz_seconds;
  info.estimated_full_viz_seconds = plot.estimated_full_viz_seconds;
  info.rungs_ready = plot.catalog_rungs_ready;
  info.rungs_total = plot.catalog_rungs_total;
  return info;
}

std::vector<PlotService::TableInfo> PlotService::Tables() const {
  std::vector<std::string> names;
  {
    std::lock_guard<std::mutex> lock(mu_);
    names.reserve(tables_.size());
    for (const auto& [name, state] : tables_) names.push_back(name);
  }
  std::vector<TableInfo> out;
  out.reserve(names.size());
  for (const std::string& name : names) {
    auto info = GetTable(name);
    // A table dropped between the two locks simply vanishes from the
    // listing.
    if (info.ok()) out.push_back(std::move(*info));
  }
  return out;
}

StatusOr<PlotService::TableInfo> PlotService::GetTable(
    const std::string& table) const {
  VAS_ASSIGN_OR_RETURN(Table state, FindTable(table));
  TableInfo info;
  info.key = state.key;
  info.world = state.grid.world();
  info.rows = state.dataset->size();
  auto build = manager_->GetStatus(state.key);
  if (build.ok()) info.build = *build;
  return info;
}

StatusOr<TileGrid> PlotService::GridFor(const std::string& table) const {
  VAS_ASSIGN_OR_RETURN(Table state, FindTable(table));
  return state.grid;
}

}  // namespace vas
