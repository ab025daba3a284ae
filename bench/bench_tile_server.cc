// Tile server under load. Quantifies the serving claims over a
// >=1M-point catalog behind a real HTTP server on an ephemeral port:
// (1) byte-identity — a tile fetched over HTTP equals the same rung
// rendered directly through ScatterRenderer; (2) cold vs cached —
// p50 fetch latency of cache misses (full render + PNG encode) vs
// hits (cache lookup + socket), asserting what the cache promises: a
// hit renders nothing (vas_tiles_rendered_total grows by the cold
// fetches alone) and is faster than a cold render at p50; (3)
// concurrency — 32+ clients hammer mixed tiles/status/plot requests
// and every response must be well-formed.
#include "bench_common.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "render/scatter_renderer.h"
#include "service/http_routes.h"
#include "service/http_server.h"
#include "service/plot_service.h"
#include "util/stopwatch.h"

namespace vas::bench {
namespace {

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t at = static_cast<size_t>(p * static_cast<double>(values.size() - 1));
  return values[at];
}

int Fail(const std::string& message) {
  std::fprintf(stderr, "error: %s\n", message.c_str());
  return 1;
}

int Run(int argc, char** argv) {
  FlagSet flags;
  flags.Define("n", "1000000", "generated dataset size");
  flags.Define("clients", "32", "concurrent load-generator threads");
  flags.Define("requests", "16", "requests per client in the load phase");
  flags.Define("zoom", "3", "zoom level the latency phase sweeps");
  flags.Define("tile-px", "256", "tile edge in pixels");
  flags.Define("http-threads", "16", "server request-handler workers");
  if (!ParseBenchFlags(flags, argc, argv,
                       "Tile server: cold vs cached tile latency, "
                       "concurrent-client soak, and HTTP-vs-direct "
                       "byte identity over a 1M-point catalog.")) {
    return 0;
  }
  size_t n = static_cast<size_t>(flags.GetInt("n"));
  size_t clients = static_cast<size_t>(flags.GetInt("clients"));
  size_t requests = static_cast<size_t>(flags.GetInt("requests"));
  uint32_t zoom = static_cast<uint32_t>(flags.GetInt("zoom"));
  if (flags.GetBool("quick")) {
    n = 100000;
    clients = std::min<size_t>(clients, 8);
    requests = std::min<size_t>(requests, 4);
  }

  PrintHeader(StrFormat(
      "Tile server over %s points (%zu clients x %zu requests, zoom %u)",
      FormatWithCommas(static_cast<int64_t>(n)).c_str(), clients, requests,
      zoom));

  Stopwatch watch;
  auto dataset = std::make_shared<Dataset>(MakeGeolifeLike(n));
  dataset->CacheBounds();
  std::printf("generated %s tuples in %.2fs\n",
              FormatWithCommas(static_cast<int64_t>(n)).c_str(),
              watch.ElapsedSeconds());

  PlotService::Options options;
  options.tile_px = static_cast<size_t>(flags.GetInt("tile-px"));
  PlotService service(options);
  SampleCatalog::Options copt;
  copt.ladder = {1000, 10000, n / 10, n / 2};
  copt.embed_density = false;
  watch.Restart();
  Status registered = service.RegisterTable(
      "bench", dataset,
      []() { return std::make_unique<UniformReservoirSampler>(1); }, copt);
  if (!registered.ok()) return Fail(registered.ToString());
  auto built = service.manager().WaitUntilDone(CatalogKey{"bench"});
  if (!built.ok()) return Fail(built.status().ToString());
  std::printf("built %zu-rung ladder in %.2fs\n",
              (*built)->samples().size(), watch.ElapsedSeconds());

  HttpServer::Options server_options;
  server_options.port = 0;  // ephemeral
  server_options.bind_address = "127.0.0.1";
  server_options.num_threads =
      static_cast<size_t>(flags.GetInt("http-threads"));
  HttpServer server(server_options, MakeServiceHandler(&service));
  Status started = server.Start();
  if (!started.ok()) return Fail(started.ToString());
  std::printf("serving on 127.0.0.1:%u\n", server.port());

  // --- Byte identity: HTTP tile == direct ScatterRenderer render ----
  TileKey probe{zoom, TileGrid::TilesPerAxis(zoom) / 2,
                TileGrid::TilesPerAxis(zoom) / 2};
  auto fetched = HttpGet(server.port(), "/tiles/bench/" + probe.ToString() +
                                            ".png");
  if (!fetched.ok()) return Fail(fetched.status().ToString());
  if (fetched->status != 200) {
    return Fail("tile fetch returned HTTP " +
                std::to_string(fetched->status));
  }
  auto snapshot = service.manager().Snapshot(CatalogKey{"bench"});
  if (!snapshot.ok()) return Fail(snapshot.status().ToString());
  const SampleSet& rung = (*snapshot)->ChooseForTimeBudget(
      service.options().tile_time_budget_seconds, service.options().viz_model);
  auto grid = service.GridFor("bench");
  if (!grid.ok()) return Fail(grid.status().ToString());
  Viewport viewport(grid->TileBounds(probe), options.tile_px,
                    options.tile_px);
  ScatterRenderer renderer(service.TileRenderOptions());
  std::string direct =
      renderer.RenderSample(*dataset, rung, viewport).EncodePng();
  bool identical = fetched->body == direct;
  std::printf(
      "\nserved rung: %s points; HTTP tile %zu bytes, direct render %zu "
      "bytes, byte-identical: %s\n",
      FormatWithCommas(static_cast<int64_t>(rung.size())).c_str(),
      fetched->body.size(), direct.size(),
      identical ? "yes" : "NO — SERVING BUG");
  if (!identical) return 1;

  // --- Cold vs cached latency over one zoom level -------------------
  uint32_t per_axis = TileGrid::TilesPerAxis(zoom);
  std::vector<std::string> targets;
  for (uint32_t y = 0; y < per_axis; ++y) {
    for (uint32_t x = 0; x < per_axis; ++x) {
      targets.push_back("/tiles/bench/" + TileKey{zoom, x, y}.ToString() +
                        ".png");
    }
  }
  const obs::MetricsRegistry& registry = *service.metrics_registry();
  const int64_t rendered_before = registry.Total("vas_tiles_rendered_total");
  std::vector<double> cold_ms;
  std::vector<double> warm_ms;
  size_t tile_bytes_on_wire = 0;
  Stopwatch fetch_watch;
  for (int pass = 0; pass < 2; ++pass) {
    for (const std::string& target : targets) {
      fetch_watch.Restart();
      auto result = HttpGet(server.port(), target);
      double ms = fetch_watch.ElapsedSeconds() * 1000.0;
      if (!result.ok()) return Fail(result.status().ToString());
      if (result->status != 200 || result->body.empty()) {
        return Fail("bad tile response for " + target);
      }
      tile_bytes_on_wire += result->body.size();
      bool hit = result->headers["x-vas-cache"] == "hit";
      // The probe tile is already cached on pass 0; bucket by what the
      // server actually did, not by pass index.
      (hit ? warm_ms : cold_ms).push_back(ms);
    }
  }
  // Renders during the sweep, from the registry: only cold fetches
  // may have rendered.
  const int64_t rendered =
      registry.Total("vas_tiles_rendered_total") - rendered_before;
  double cold_p50 = Percentile(cold_ms, 0.5);
  double warm_p50 = Percentile(warm_ms, 0.5);
  double speedup = warm_p50 > 0 ? cold_p50 / warm_p50 : 0.0;
  std::printf(
      "\ncold (render+encode): %zu fetches, p50 %.2fms  p90 %.2fms\n",
      cold_ms.size(), cold_p50, Percentile(cold_ms, 0.9));
  std::printf("cached:               %zu fetches, p50 %.2fms  p90 %.2fms\n",
              warm_ms.size(), warm_p50, Percentile(warm_ms, 0.9));
  std::printf("cached p50 speedup over cold: %.1fx; tiles rendered: %lld "
              "for %zu cold fetches\n",
              speedup, static_cast<long long>(rendered), cold_ms.size());
  std::printf("tile bytes on wire: %zu over %zu fetches (%zu B/tile)\n",
              tile_bytes_on_wire, cold_ms.size() + warm_ms.size(),
              tile_bytes_on_wire / (cold_ms.size() + warm_ms.size()));

  // --- Metrics overhead on the cached fast path ---------------------
  // Every tile of the zoom level is cached now, so a sweep touches
  // only the hot path: cache lookup + socket. Alternating sweeps with
  // the process-wide kill switch off and on isolates what the
  // registry's sharded counters cost per request; the passes
  // interleave so clock drift and scheduler noise land on both sides.
  std::vector<double> metrics_off_ms;
  std::vector<double> metrics_on_ms;
  const int overhead_passes = flags.GetBool("quick") ? 2 : 4;
  for (int pass = 0; pass < 2 * overhead_passes; ++pass) {
    const bool enabled = pass % 2 == 1;
    obs::SetMetricsEnabled(enabled);
    for (const std::string& target : targets) {
      fetch_watch.Restart();
      auto result = HttpGet(server.port(), target);
      double ms = fetch_watch.ElapsedSeconds() * 1000.0;
      if (!result.ok() || result->status != 200 || result->body.empty()) {
        obs::SetMetricsEnabled(true);
        return Fail("bad tile response in the overhead sweep for " + target);
      }
      (enabled ? metrics_on_ms : metrics_off_ms).push_back(ms);
    }
  }
  obs::SetMetricsEnabled(true);
  double metrics_off_p50 = Percentile(metrics_off_ms, 0.5);
  double metrics_on_p50 = Percentile(metrics_on_ms, 0.5);
  double overhead_ratio =
      metrics_off_p50 > 0 ? metrics_on_p50 / metrics_off_p50 : 0.0;
  std::printf(
      "\nmetrics overhead (cached p50 over %zu fetches/side): off %.3fms, "
      "on %.3fms (%.3fx)\n",
      metrics_off_ms.size(), metrics_off_p50, metrics_on_p50,
      overhead_ratio);

  // --- Concurrent-client soak ---------------------------------------
  std::atomic<size_t> errors{0};
  std::atomic<size_t> completed{0};
  std::atomic<size_t> soak_bytes{0};
  watch.Restart();
  std::vector<std::thread> load;
  for (size_t c = 0; c < clients; ++c) {
    load.emplace_back([&, c]() {
      for (size_t i = 0; i < requests; ++i) {
        // Mostly tiles (mixed hit/miss), plus status and plot queries —
        // the real mixed read traffic a dashboard generates.
        std::string target;
        switch (i % 8) {
          case 6:
            target = "/status/bench";
            break;
          case 7:
            target = "/plot?table=bench";
            break;
          default:
            target = targets[(c * 31 + i * 7) % targets.size()];
        }
        auto result = HttpGet(server.port(), target);
        if (!result.ok() || result->status != 200 || result->body.empty()) {
          errors.fetch_add(1);
        } else {
          completed.fetch_add(1);
          soak_bytes.fetch_add(result->body.size());
        }
      }
    });
  }
  for (std::thread& t : load) t.join();
  double soak_secs = watch.ElapsedSeconds();
  // Read from the registry: followers of a single-flight render count
  // as hits.
  const auto cache_hits =
      static_cast<size_t>(registry.Total("vas_tile_cache_hits_total"));
  const auto cache_misses =
      static_cast<size_t>(registry.Total("vas_tile_cache_misses_total"));
  const auto cache_evictions =
      static_cast<size_t>(registry.Total("vas_tile_cache_evictions_total"));
  std::printf(
      "\n%zu clients x %zu requests: %zu ok, %zu errors in %.2fs "
      "(%.0f req/s)\n",
      clients, requests, completed.load(), errors.load(), soak_secs,
      soak_secs > 0 ? static_cast<double>(completed.load()) / soak_secs : 0.0);
  std::printf("soak bytes on wire: %zu\n", soak_bytes.load());
  std::printf("tile cache: %zu hits, %zu misses, %zu evictions, %zu bytes\n",
              cache_hits, cache_misses, cache_evictions,
              service.cache().bytes());
  server.Stop();

  // Written before the pass/fail gates so the perf trajectory records
  // failing runs too.
  JsonMetrics metrics;
  metrics.Set("n", n);
  metrics.Set("clients", clients);
  metrics.Set("requests_per_client", requests);
  metrics.Set("served_rung", rung.size());
  metrics.Set("byte_identical", identical);
  // Tail latencies come from the same obs::Histogram buckets /metrics
  // exports; the server-side render quantiles read the very histogram
  // the service observed into while serving this bench.
  LatencyDigest cold_digest;
  cold_digest.ObserveAllMs(cold_ms);
  LatencyDigest warm_digest;
  warm_digest.ObserveAllMs(warm_ms);
  obs::Histogram* render_ns = service.metrics_registry()->GetHistogram(
      "vas_tile_render_ns", "Tile rasterization wall time.",
      {{"style", "scatter"}});
  metrics.Set("cold_p50_ms", cold_p50);
  metrics.Set("cold_p90_ms", Percentile(cold_ms, 0.9));
  metrics.Set("cold_p95_ms", cold_digest.QuantileMs(0.95));
  metrics.Set("cold_p99_ms", cold_digest.QuantileMs(0.99));
  metrics.Set("cached_p50_ms", warm_p50);
  metrics.Set("cached_p90_ms", Percentile(warm_ms, 0.9));
  metrics.Set("cached_p95_ms", warm_digest.QuantileMs(0.95));
  metrics.Set("cached_p99_ms", warm_digest.QuantileMs(0.99));
  metrics.Set("cached_speedup_p50", speedup);
  metrics.Set("sweep_tiles_rendered", static_cast<size_t>(rendered));
  metrics.Set("sweep_cold_fetches", cold_ms.size());
  metrics.Set("render_p95_ms", render_ns->Quantile(0.95) / 1e6);
  metrics.Set("render_p99_ms", render_ns->Quantile(0.99) / 1e6);
  metrics.Set("metrics_off_cached_p50_ms", metrics_off_p50);
  metrics.Set("metrics_on_cached_p50_ms", metrics_on_p50);
  metrics.Set("metrics_overhead_p50_ratio", overhead_ratio);
  metrics.Set("soak_rps",
              soak_secs > 0
                  ? static_cast<double>(completed.load()) / soak_secs
                  : 0.0);
  metrics.Set("soak_errors", errors.load());
  metrics.Set("cache_hits", cache_hits);
  metrics.Set("cache_misses", cache_misses);
  metrics.Set("tile_bytes_on_wire", tile_bytes_on_wire);
  metrics.Set("tile_bytes_per_fetch",
              tile_bytes_on_wire / (cold_ms.size() + warm_ms.size()));
  metrics.Set("soak_bytes_on_wire", soak_bytes.load());
  Status wrote = metrics.WriteIfRequested(flags.GetString("json"));
  if (!wrote.ok()) return Fail(wrote.ToString());

  if (errors.load() != 0) {
    return Fail(std::to_string(errors.load()) + " request(s) failed");
  }
  // What the cache promises, independent of how cheap a cold render
  // is: a hit renders nothing, and answers faster than a render.
  if (rendered != static_cast<int64_t>(cold_ms.size())) {
    return Fail(StrFormat("%lld tiles rendered for %zu cold fetches — a "
                          "cache hit rendered",
                          static_cast<long long>(rendered), cold_ms.size()));
  }
  if (!(warm_p50 < cold_p50)) {
    return Fail(StrFormat("cached p50 %.3fms is not below the cold p50 "
                          "%.3fms",
                          warm_p50, cold_p50));
  }
  // Instrumentation must ride the hot path for free: cached p50 with
  // metrics on within 5% of the same-run metrics-off baseline, plus a
  // small absolute slack so sub-millisecond loopback p50s don't flake
  // the ratio.
  if (metrics_on_p50 > 1.05 * metrics_off_p50 + 0.05) {
    return Fail(StrFormat(
        "metrics-on cached p50 %.3fms exceeds 5%% over the metrics-off "
        "baseline %.3fms — instrumentation is on the hot path",
        metrics_on_p50, metrics_off_p50));
  }
  std::printf(
      "\nserved %zu requests without error; cached tiles are %.1fx "
      "faster than cold renders at p50\n",
      server.requests_served(), speedup);
  return 0;
}

}  // namespace
}  // namespace vas::bench

int main(int argc, char** argv) { return vas::bench::Run(argc, argv); }
