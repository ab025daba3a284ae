// vas_serve — the multi-user plot/tile server over the sample-catalog
// engine. Point it at one or more datasets; each becomes a table whose
// ladder builds in the background while tiles are already being served
// from the smallest finished rung:
//
//   vas_serve --data=taxi.bin,checkins.csv --port=8080
//   curl http://localhost:8080/healthz
//   curl http://localhost:8080/catalogs
//   curl http://localhost:8080/status/taxi
//   curl -o tile.png http://localhost:8080/tiles/taxi/2/1/1.png
//   curl 'http://localhost:8080/plot?table=taxi&xmin=0&ymin=0&xmax=5&ymax=5'
//
// Tiles are cached under a byte budget, keyed by the rung they were
// drawn from, so clients see progressively sharper plots simply by
// refetching as larger rungs land.
#include "serve_main.h"

#include <atomic>
#include <chrono>
#include <cinttypes>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/vas.h"
#include "data/dataset_io.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "service/http_routes.h"
#include "service/http_server.h"
#include "service/plot_service.h"
#include "util/flags.h"
#include "util/strings.h"

namespace vas::tool {

namespace {

std::atomic<bool> g_stop_requested{false};

void HandleStopSignal(int) { g_stop_requested.store(true); }

}  // namespace

int Fail(const Status& status) {
  obs::Log(obs::LogLevel::kError, status.ToString());
  return 1;
}

StatusOr<Dataset> LoadInput(const std::string& path) {
  if (path.size() > 4 && path.substr(path.size() - 4) == ".bin") {
    return ReadBinary(path);
  }
  return ReadCsv(path);
}

StatusOr<SamplerFactory> MakeSamplerFactory(
    const std::string& method, const InterchangeSampler::Options& vopt) {
  if (method == "vas") {
    return SamplerFactory(
        [vopt]() { return std::make_unique<InterchangeSampler>(vopt); });
  }
  if (method == "vas-parallel") {
    ParallelInterchangeSampler::Options popt;
    popt.base = vopt;
    return SamplerFactory([popt]() {
      return std::make_unique<ParallelInterchangeSampler>(popt);
    });
  }
  if (method == "vas-outlier") {
    OutlierAugmentedSampler::Options oopt;
    oopt.base = vopt;
    return SamplerFactory([oopt]() {
      return std::make_unique<OutlierAugmentedSampler>(oopt);
    });
  }
  if (method == "uniform") {
    return SamplerFactory(
        []() { return std::make_unique<UniformReservoirSampler>(1); });
  }
  if (method == "stratified") {
    return SamplerFactory(
        []() { return std::make_unique<StratifiedSampler>(); });
  }
  return Status::InvalidArgument("unknown --method=" + method);
}

StatusOr<std::vector<size_t>> ParseLadder(const std::string& flag) {
  std::vector<size_t> ladder;
  for (const std::string& field : Split(flag, ',')) {
    VAS_ASSIGN_OR_RETURN(int64_t k, ParseInt64(StripWhitespace(field)));
    if (k <= 0) {
      return Status::InvalidArgument("ladder rungs must be positive");
    }
    ladder.push_back(static_cast<size_t>(k));
  }
  return ladder;
}

int ServeMain(int argc, char** argv) {
  FlagSet flags;
  flags.Define("data", "",
               "comma-separated dataset paths (.csv or .bin); each serves "
               "as a table named by its file stem");
  flags.Define("catalogs", "",
               "comma-separated catalog files parallel to --data (empty "
               "entry = build that table's ladder instead of loading)");
  flags.Define("ladder", "1000,10000,100000",
               "rung sizes for tables built at startup");
  flags.Define("method", "stratified",
               "build sampler: vas | vas-parallel | vas-outlier | uniform | "
               "stratified");
  flags.Define("density", "true", "run the density-embedding pass");
  flags.Define("threads", "0", "build workers (0 = hardware concurrency)");
  flags.Define("memory-budget", "0",
               "catalog memory budget in bytes (0 = unlimited)");
  flags.Define("port", "8080", "listen port (0 = ephemeral)");
  flags.Define("address", "0.0.0.0", "bind address");
  flags.Define("http-threads", "8",
               "request-handler (render) workers; sockets live on the "
               "event thread, so idle connections don't consume these");
  flags.Define("tile-px", "256", "tile edge in pixels");
  flags.Define("tile-cache-budget", "67108864",
               "tile cache byte budget (64 MiB default)");
  flags.Define("tile-budget", "2.0",
               "per-tile interactivity budget in seconds (picks the rung)");
  flags.Define("idle-timeout-ms", "5000",
               "close keep-alive sockets idle for this long");
  flags.Define("max-requests-per-conn", "1000",
               "requests served per connection before closing (0 = "
               "unlimited, 1 = no keep-alive)");
  flags.Define("max-connections", "0",
               "concurrent connections; beyond this new sockets get a "
               "best-effort 503 (0 = derive from the fd rlimit, enough "
               "for 10k+ mostly-idle keep-alive sockets)");
  flags.Define("max-output-buffer", "8388608",
               "unsent response bytes buffered per connection before a "
               "slow reader is disconnected (8 MiB default; must exceed "
               "the largest single response)");
  flags.Define("tile-max-age", "3600",
               "Cache-Control max-age for tiles of finished builds");
  flags.Define("tile-building-max-age", "2",
               "Cache-Control max-age while a ladder is still building");
  flags.Define("heatmap-colormap", "viridis",
               "colormap for ?style=heatmap tiles: viridis | grayscale");
  flags.Define("slow-request-ms", "1000",
               "requests slower than this (parse to last byte drained) "
               "emit one structured warn log line (0 = disabled)");
  flags.Define("log-format", "text",
               "structured log sink format: text | json");
  flags.Define("trace-ring-size", "256",
               "finished request traces kept for GET /debug/requests");
  Status parsed = flags.Parse(argc, argv);
  if (!parsed.ok()) {
    obs::Log(obs::LogLevel::kError, parsed.ToString());
    std::fprintf(stderr, "%s", flags.Usage(argv[0]).c_str());
    return 1;
  }
  if (flags.help_requested()) {
    std::printf("serve plots and tiles over HTTP\n%s",
                flags.Usage(argv[0]).c_str());
    return 0;
  }
  if (flags.GetString("data").empty()) {
    return Fail(Status::InvalidArgument(
        "--data is required (comma-separated dataset paths)"));
  }
  const std::string log_format = flags.GetString("log-format");
  if (log_format == "json") {
    obs::SetLogFormat(obs::LogFormat::kJson);
  } else if (log_format != "text") {
    return Fail(
        Status::InvalidArgument("unknown --log-format=" + log_format));
  }

  // One registry for the whole stack (transport, pools, render,
  // catalog residency), so GET /metrics is the single pane of glass.
  // Declared before the service/server so the components' metric
  // pointers never outlive it.
  obs::MetricsRegistry registry;
  const int64_t ring_size = flags.GetInt("trace-ring-size");
  if (ring_size <= 0) {
    return Fail(
        Status::InvalidArgument("--trace-ring-size must be positive"));
  }
  obs::TraceRing trace_ring(static_cast<size_t>(ring_size));

  PlotService::Options options;
  options.registry = &registry;
  options.catalog.num_threads = static_cast<size_t>(flags.GetInt("threads"));
  options.catalog.memory_budget_bytes =
      static_cast<size_t>(flags.GetInt("memory-budget"));
  options.tile_px = static_cast<size_t>(flags.GetInt("tile-px"));
  options.tile_cache_budget_bytes =
      static_cast<size_t>(flags.GetInt("tile-cache-budget"));
  options.tile_time_budget_seconds = flags.GetDouble("tile-budget");
  options.tile_final_max_age_seconds =
      static_cast<int>(flags.GetInt("tile-max-age"));
  options.tile_building_max_age_seconds =
      static_cast<int>(flags.GetInt("tile-building-max-age"));
  const std::string heatmap_colormap = flags.GetString("heatmap-colormap");
  if (heatmap_colormap == "grayscale") {
    options.heatmap_colormap = ColormapKind::kGrayscale;
  } else if (heatmap_colormap != "viridis") {
    return Fail(Status::InvalidArgument(
        "unknown --heatmap-colormap=" + heatmap_colormap));
  }
  PlotService service(options);

  SampleCatalog::Options catalog_options;
  auto ladder = ParseLadder(flags.GetString("ladder"));
  if (!ladder.ok()) return Fail(ladder.status());
  catalog_options.ladder = std::move(*ladder);
  catalog_options.embed_density = flags.GetBool("density");

  std::vector<std::string> data_paths =
      Split(flags.GetString("data"), ',');
  std::vector<std::string> catalog_paths =
      flags.GetString("catalogs").empty()
          ? std::vector<std::string>(data_paths.size())
          : Split(flags.GetString("catalogs"), ',');
  if (catalog_paths.size() != data_paths.size()) {
    return Fail(Status::InvalidArgument(
        "--catalogs must list one entry per --data path"));
  }

  for (size_t i = 0; i < data_paths.size(); ++i) {
    const std::string& path = data_paths[i];
    auto loaded = LoadInput(path);
    if (!loaded.ok()) return Fail(loaded.status());
    auto dataset = std::make_shared<Dataset>(std::move(*loaded));
    dataset->CacheBounds();  // shared read-only across render workers
    std::string table = std::filesystem::path(path).stem().string();
    if (table.empty()) table = path;
    Status registered;
    if (!catalog_paths[i].empty()) {
      registered = service.LoadTable(table, dataset, catalog_paths[i]);
      if (registered.ok()) {
        std::printf("table %-16s %zu rows, catalog loaded from %s\n",
                    table.c_str(), dataset->size(),
                    catalog_paths[i].c_str());
      }
    } else {
      auto factory = MakeSamplerFactory(flags.GetString("method"));
      if (!factory.ok()) return Fail(factory.status());
      registered = service.RegisterTable(table, dataset, std::move(*factory),
                                         catalog_options);
      if (registered.ok()) {
        std::printf("table %-16s %zu rows, building %zu-rung ladder "
                    "in the background\n",
                    table.c_str(), dataset->size(),
                    catalog_options.ladder.size());
      }
    }
    if (!registered.ok()) return Fail(registered);
  }

  HttpServer::Options server_options;
  server_options.port = static_cast<uint16_t>(flags.GetInt("port"));
  server_options.bind_address = flags.GetString("address");
  server_options.num_threads =
      static_cast<size_t>(flags.GetInt("http-threads"));
  server_options.idle_timeout_ms =
      static_cast<int>(flags.GetInt("idle-timeout-ms"));
  server_options.max_requests_per_connection =
      static_cast<size_t>(flags.GetInt("max-requests-per-conn"));
  server_options.max_connections =
      static_cast<size_t>(flags.GetInt("max-connections"));
  server_options.max_output_buffer_bytes =
      static_cast<size_t>(flags.GetInt("max-output-buffer"));
  server_options.registry = &registry;
  server_options.trace_ring = &trace_ring;
  server_options.slow_request_ms = flags.GetInt("slow-request-ms");
  ServiceHandlerOptions handler_options;
  handler_options.registry = &registry;
  handler_options.trace_ring = &trace_ring;
  HttpServer server(server_options,
                    MakeServiceHandler(&service, handler_options));
  Status started = server.Start();
  if (!started.ok()) return Fail(started);
  std::printf("vas_serve listening on %s:%u\n",
              server_options.bind_address.c_str(), server.port());
  std::printf("  GET /healthz | /catalogs | /stats | /metrics | "
              "/debug/requests | /status/{table} | "
              "/tiles/{table}/{z}/{x}/{y}.png[?style=heatmap] | "
              "/plot?table=...\n");
  std::fflush(stdout);

  std::signal(SIGINT, HandleStopSignal);
  std::signal(SIGTERM, HandleStopSignal);
  while (!g_stop_requested.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
  }
  server.Stop();
  std::printf("shutting down: %zu requests over %zu connections (%zu "
              "refused), tile cache %" PRId64 " hits / %" PRId64
              " misses / %" PRId64 " evictions\n",
              server.requests_served(), server.connections_accepted(),
              server.connections_refused(),
              registry.Total("vas_tile_cache_hits_total"),
              registry.Total("vas_tile_cache_misses_total"),
              registry.Total("vas_tile_cache_evictions_total"));
  return 0;
}

}  // namespace vas::tool
