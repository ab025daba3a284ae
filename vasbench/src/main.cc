// Tile-server benchmark. One process drives the real serving stack over
// loopback: HttpServer -> MakeServiceHandler -> PlotService ->
// CatalogManager / CAT2 store -> ScatterRenderer -> Image::EncodePng.
//
//   vasbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Every request sequence derives from --seed; datasets are fixed per
// workload. --seconds sizes the measured phase: each workload sends a
// fixed number of requests per nominal second in a closed loop, so
// request counts repeat exactly for a given seed. The last stdout line
// is the result object; with --trace 1 the run repeats the same sequence
// with half of its requests traced, then replays held-out requests layer
// by layer on one thread.
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "client.h"
#include "core/density.h"
#include "core/loss.h"
#include "data/generators.h"
#include "engine/catalog_manager.h"
#include "engine/session.h"
#include "obs/metrics.h"
#include "render/colormap.h"
#include "render/image.h"
#include "render/scatter_renderer.h"
#include "report.h"
#include "sampling/stratified_sampler.h"
#include "service/http_routes.h"
#include "service/http_server.h"
#include "service/plot_service.h"
#include "service/tile_cache.h"
#include "service/tile_math.h"

namespace vasbench {
namespace {

using vas::CatalogKey;
using vas::Dataset;
using vas::Rect;
using vas::TileKey;
using vas::TileStyle;

// Thread budget, fixed rather than read from the hardware: on a 4-vCPU
// host more client or worker threads only add scheduler noise.
constexpr size_t kClients = 2;
constexpr size_t kHttpWorkers = 2;
constexpr size_t kBuildThreads = 2;
constexpr size_t kSetupReps = 3;
constexpr uint32_t kTilePx = 256;
constexpr double kBudgetSeconds = 2.0;
// Keeps the load generator from becoming the measurement.
constexpr double kMaxLoadgenCpuShare = 0.75;  // of server CPU per request
constexpr size_t kIdentityChecks = 24;
constexpr size_t kPlotChecks = 16;
constexpr size_t kHeldOut = 64;
constexpr uint64_t kPopularitySeed = 11;
constexpr double kInf = std::numeric_limits<double>::infinity();

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

// ---------------------------------------------------------------------------
// Workload definitions.

struct TableSpec {
  std::string name;
  size_t points = 0;
  uint64_t data_seed = 0;
  std::vector<size_t> ladder;
};

struct WorkloadSpec {
  std::string name;
  std::vector<TableSpec> tables;
  size_t memory_budget_bytes = 0;  // 0 = everything resident
  // Measured requests per nominal second, and warm-up requests.
  size_t requests_per_second = 0;
  size_t warmup_requests = 0;
  // Set-up fetches every tile of zooms 0..warm_zoom once (-1: none).
  int warm_zoom = -1;
};

WorkloadSpec MakeSpec(const std::string& name) {
  WorkloadSpec spec;
  spec.name = name;
  if (name == "pan-warm") {
    spec.tables = {{"geo", 1000000, 7, {1000, 10000, 100000, 500000}}};
    spec.requests_per_second = 15000;
    spec.warmup_requests = 15000;
    spec.warm_zoom = 4;
  } else if (name == "spill-mixed") {
    for (int i = 0; i < 8; ++i) {
      spec.tables.push_back({"t" + std::to_string(i), 250000,
                             static_cast<uint64_t>(101 + i),
                             {1000, 10000, 25000, 125000}});
    }
    spec.memory_budget_bytes = 1 << 20;  // below one ladder
    spec.requests_per_second = 160;
    spec.warmup_requests = 64;
  } else {
    spec.name.clear();
  }
  return spec;
}

// ---------------------------------------------------------------------------
// Requests.

enum class Kind { kTile, kPlot };

struct Request {
  Kind kind = Kind::kTile;
  size_t table = 0;
  TileKey tile;
  TileStyle style = TileStyle::kScatter;
  Rect viewport;
  std::string target;
};

std::string TileTarget(const std::string& table, const TileKey& tile,
                       TileStyle style) {
  std::string target = "/tiles/" + table + "/" + std::to_string(tile.z) + "/" +
                       std::to_string(tile.x) + "/" + std::to_string(tile.y) +
                       ".png";
  if (style == TileStyle::kHeatmap) target += "?style=heatmap";
  return target;
}

std::string PlotTarget(const std::string& table, const Rect& r) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "/plot?table=%s&xmin=%.17g&ymin=%.17g&xmax=%.17g&ymax=%.17g&"
                "budget=%g",
                table.c_str(), r.min_x, r.min_y, r.max_x, r.max_y,
                kBudgetSeconds);
  return buf;
}

struct Outcome {
  uint64_t send_ns = 0;
  uint64_t end_ns = 0;
  double latency_ms = kInf;
  int status = 0;
  size_t body_bytes = 0;
  long rung = -1;
  bool ok = false;
  bool traced = false;
  long long points_in_viewport = -1;
};

struct Phase {
  std::vector<Outcome> outcomes;
  std::map<size_t, std::string> kept;  // request index -> body
  double process_cpu_s = 0;
  double loadgen_cpu_s = 0;
  size_t reconnects = 0;
};

// ---------------------------------------------------------------------------
// The serving stack under test.

struct Table {
  TableSpec spec;
  std::shared_ptr<const Dataset> data;
  CatalogKey key;
};

struct Env {
  std::unique_ptr<vas::obs::MetricsRegistry> registry;
  std::unique_ptr<vas::PlotService> service;
  std::unique_ptr<vas::HttpServer> server;
  std::vector<Table> tables;
  // Seconds from registration until table 0's rung i was servable.
  std::vector<double> rung_ready_s;
  // Seconds from registration until table 0's whole ladder was servable.
  double ladder_ready_s = 0;
  uint64_t setup_spill_writes = 0;

  ~Env() {
    server.reset();
    service.reset();
    registry.reset();
  }
};

std::shared_ptr<const Dataset> Generate(const TableSpec& spec) {
  vas::GeolifeLikeGenerator::Options options;
  options.num_points = spec.points;
  options.seed = spec.data_seed;
  auto data = std::make_shared<Dataset>(
      vas::GeolifeLikeGenerator(options).Generate());
  data->CacheBounds();
  return data;
}

// Wraps the service handler: requests carrying X-Bench-Request get a
// `handler` span keyed by that id, so the traced run can split client
// latency into handler time and transport.
vas::HttpServer::Handler WrapHandler(vas::HttpServer::Handler inner,
                                     SpanRecorder* spans) {
  return [inner = std::move(inner), spans](const vas::HttpRequest& request) {
    auto it = request.headers.find("x-bench-request");
    if (it == request.headers.end()) return inner(request);
    const uint64_t start = NowNs();
    vas::HttpResponse response = inner(request);
    spans->Add(Span{"handler", start, NowNs(), -1,
                    std::strtol(it->second.c_str(), nullptr, 10)});
    return response;
  };
}

// Polls table 0's build status every millisecond and records when each
// rung became servable, until the ladder is done (or set-up gives up).
class RungPoller {
 public:
  RungPoller(vas::PlotService* service, CatalogKey key, uint64_t start_ns)
      : service_(service), key_(std::move(key)), start_ns_(start_ns),
        thread_([this] { Loop(); }) {}
  ~RungPoller() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }
  RungPoller(const RungPoller&) = delete;
  RungPoller& operator=(const RungPoller&) = delete;

  // Call once the build has finished: joins the poll, which ends when it
  // sees the ladder done, and returns the seconds since start at that poll.
  double WaitDone() {
    thread_.join();
    return done_s_;
  }
  // Seconds since start at which each rung was first seen servable.
  std::vector<double> ready_s() const { return ready_s_; }

 private:
  void Loop() {
    while (!stop_.load()) {
      auto status = service_->manager().GetStatus(key_);
      const double now_s = static_cast<double>(NowNs() - start_ns_) / 1e9;
      if (status.ok()) {
        while (ready_s_.size() < status->rungs_ready) ready_s_.push_back(now_s);
        if (status->done) {
          done_s_ = now_s;
          return;
        }
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  vas::PlotService* service_;
  CatalogKey key_;
  uint64_t start_ns_;
  std::vector<double> ready_s_;
  double done_s_ = 0;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

// ---------------------------------------------------------------------------
// Load generation.

struct PhaseOptions {
  bool trace = false;
  std::set<size_t> keep;     // request indices whose bodies are kept
  SpanRecorder* spans = nullptr;
};

bool CheckResponse(const Request& request, const Response& response,
                   Outcome* out) {
  out->status = response.status;
  out->body_bytes = response.body.size();
  if (request.kind == Kind::kPlot) {
    if (response.status != 200) return false;
    out->rung = JsonField(response.body, "sample_size");
    out->points_in_viewport = JsonField(response.body, "points_in_viewport");
    return out->rung > 0 && out->points_in_viewport >= 0;
  }
  out->rung = response.rung;
  if (response.status != 200 || response.rung <= 0 || response.etag.empty()) return false;
  return IsPngOfSize(response.body, kTilePx, kTilePx);
}

// Picks the traced half of a run's requests by a hash of the request
// index. Both connections carry traced and untraced requests, and the
// choice cannot line up with a workload's repeating pattern: every other
// request of a connection would trace only spill-mixed's heatmap tiles.
bool TracedIndex(size_t i) {
  uint64_t z = static_cast<uint64_t>(i) + 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return ((z ^ (z >> 31)) & 1) != 0;
}

Phase RunPhase(uint16_t port, const std::vector<Request>& requests,
               const PhaseOptions& options) {
  Phase phase;
  phase.outcomes.resize(requests.size());
  std::vector<double> loadgen_cpu(kClients, 0.0);
  std::vector<size_t> reconnects(kClients, 0);
  std::vector<std::map<size_t, std::string>> kept(kClients);
  std::atomic<size_t> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      Connection conn;
      bool opened = conn.Open(port);
      ready.fetch_add(1);
      while (!go.load()) std::this_thread::yield();
      const double cpu0 = ThreadCpuSeconds();
      for (size_t i = c; i < requests.size(); i += kClients) {
        const Request& request = requests[i];
        Outcome& out = phase.outcomes[i];
        std::string headers;
        out.traced = options.trace && TracedIndex(i);
        const long span_id = static_cast<long>(i);
        if (out.traced) headers += "X-Bench-Request: " + std::to_string(span_id) + "\r\n";
        if (!conn.open()) {
          opened = conn.Open(port);
          ++reconnects[c];
        }
        const uint64_t send_ns = NowNs();
        Response response;
        const bool transported = opened && conn.Get(request.target, headers, &response);
        const uint64_t end_ns = NowNs();
        out.send_ns = send_ns;
        out.end_ns = end_ns;
        out.ok = transported && CheckResponse(request, response, &out);
        if (out.ok) out.latency_ms = static_cast<double>(end_ns - send_ns) / 1e6;
        if (out.traced && options.spans != nullptr) {
          options.spans->Add(Span{"loadgen.request", send_ns, end_ns, -1, span_id});
        }
        if (transported && options.keep.count(i) != 0) {
          kept[c][i] = std::move(response.body);
        }
      }
      loadgen_cpu[c] = ThreadCpuSeconds() - cpu0;
    });
  }
  while (ready.load() < kClients) std::this_thread::yield();
  const double cpu0 = ProcessCpuSeconds();
  go.store(true);
  for (auto& t : threads) t.join();
  phase.process_cpu_s = ProcessCpuSeconds() - cpu0;
  for (size_t c = 0; c < kClients; ++c) {
    phase.loadgen_cpu_s += loadgen_cpu[c];
    phase.reconnects += reconnects[c];
    phase.kept.insert(kept[c].begin(), kept[c].end());
  }
  return phase;
}

// ---------------------------------------------------------------------------
// Request sequences.

std::vector<TileKey> TilesUpToZoom(uint32_t max_zoom) {
  std::vector<TileKey> tiles;
  for (uint32_t z = 0; z <= max_zoom; ++z) {
    for (uint32_t x = 0; x < (1u << z); ++x) {
      for (uint32_t y = 0; y < (1u << z); ++y) tiles.push_back({z, x, y});
    }
  }
  return tiles;
}

// Zipf(1) draws over `tiles`. The popularity order is a fixed shuffle,
// part of the workload like its dataset; only the draws follow the
// seed, so per-tile means such as bytes on the wire stay comparable
// across seeds.
std::vector<Request> ZipfRequests(const std::string& table,
                                  const std::vector<TileKey>& tiles,
                                  size_t count, std::mt19937_64* rng) {
  std::vector<TileKey> order = tiles;
  std::mt19937_64 popularity(kPopularitySeed);
  std::shuffle(order.begin(), order.end(), popularity);
  std::vector<double> cdf(order.size());
  double total = 0;
  for (size_t r = 0; r < order.size(); ++r) {
    total += 1.0 / static_cast<double>(r + 1);
    cdf[r] = total;
  }
  std::uniform_real_distribution<double> uniform(0.0, total);
  std::vector<Request> out(count);
  for (Request& request : out) {
    const double u = uniform(*rng);
    size_t r = static_cast<size_t>(std::lower_bound(cdf.begin(), cdf.end(), u) -
                                   cdf.begin());
    r = std::min(r, order.size() - 1);
    request.tile = order[r];
    request.target = TileTarget(table, request.tile, request.style);
  }
  return out;
}

// The dashboard mix over spilled tables. Per connection, a repeating
// pattern of 4 heatmap tiles, 3 value-coloured scatter tiles and one
// /plot. No request log backs these shares; they are an assumption,
// chosen for where they put the quantiles (see metrics.md): heatmap
// tiles, half the requests, and scatter tiles share the median; scatter
// tiles, the slowest, make up the 1% tail; /plot reloads each table
// often without dominating the run. Tiles rotate over all tables and are
// deduplicated (cold); /plot rotates over a disjoint half of the tables
// per connection, so every /plot finds its table evicted and reloads it.
class SpillSequence {
 public:
  SpillSequence(const std::vector<Table>* tables, uint64_t seed)
      : tables_(tables), rng_(seed) {}

  // The next `count` requests, continuing the rotation.
  std::vector<Request> Next(size_t count) {
    std::vector<Request> out;
    while (out.size() < count) {
      const size_t c = out.size() % kClients;
      const size_t step = step_[c]++;
      const size_t slot = step % 8;
      Request request;
      if (slot == 7) {
        const size_t half = tables_->size() / kClients;
        request.kind = Kind::kPlot;
        request.table = c * half + (plots_[c]++ % half);
        const Table& table = (*tables_)[request.table];
        const Rect world = table.data->Bounds();
        std::uniform_int_distribution<size_t> pick(0, table.data->size() - 1);
        // Assumed, like the shares: viewports 1/2 to 1/8 of the world's
        // width, centred on a data point.
        std::uniform_int_distribution<int> depth(1, 3);
        const vas::Point p = table.data->points[pick(rng_)];
        const double scale = std::ldexp(1.0, -depth(rng_));
        const double w = world.width() * scale;
        const double h = world.height() * scale;
        request.viewport = Rect::Of(p.x - w / 2, p.y - h / 2, p.x + w / 2, p.y + h / 2);
        request.target = PlotTarget(table.spec.name, request.viewport);
      } else {
        request.style = slot % 2 == 0 ? TileStyle::kHeatmap : TileStyle::kScatter;
        request.table = (tiles_[c]++ + 4 * c) % tables_->size();
        const Table& table = (*tables_)[request.table];
        vas::TileGrid grid(table.data->Bounds());
        std::uniform_int_distribution<size_t> pick(0, table.data->size() - 1);
        // Assumed: zooms 3..7, the tile holding a data point, so a tile
        // covers a part of the table and is never empty.
        std::uniform_int_distribution<uint32_t> zoom(3, 7);
        do {
          request.tile = grid.TileAt(zoom(rng_), table.data->points[pick(rng_)]);
          request.target = TileTarget(table.spec.name, request.tile, request.style);
        } while (!seen_.insert(request.target).second);
      }
      out.push_back(std::move(request));
    }
    return out;
  }

 private:
  const std::vector<Table>* tables_;
  std::mt19937_64 rng_;
  size_t step_[kClients] = {};
  size_t plots_[kClients] = {};
  size_t tiles_[kClients] = {};
  std::set<std::string> seen_;
};

// ---------------------------------------------------------------------------
// Set-up.

std::string g_spill_dir;

std::unique_ptr<Env> Setup(const WorkloadSpec& spec, SpanRecorder* spans,
                           SpanRecorder* setup_spans) {
  auto env = std::make_unique<Env>();
  auto span = [&](const char* name, uint64_t start) {
    if (setup_spans != nullptr) setup_spans->Add(Span{name, start, NowNs(), -1, -1});
  };
  uint64_t t = NowNs();
  for (const TableSpec& table_spec : spec.tables) {
    env->tables.push_back(
        {table_spec, Generate(table_spec), CatalogKey{table_spec.name, "x", "y"}});
  }
  span("setup.generate", t);

  env->registry = std::make_unique<vas::obs::MetricsRegistry>();
  vas::PlotService::Options options;
  options.catalog.num_threads = kBuildThreads;
  options.catalog.memory_budget_bytes = spec.memory_budget_bytes;
  options.catalog.spill_dir = g_spill_dir;
  options.tile_px = kTilePx;
  options.tile_time_budget_seconds = kBudgetSeconds;
  options.registry = env->registry.get();
  env->service = std::make_unique<vas::PlotService>(options);

  const uint64_t registered_ns = NowNs();
  for (const Table& table : env->tables) {
    vas::SampleCatalog::Options catalog;
    catalog.ladder = table.spec.ladder;
    catalog.embed_density = true;
    vas::Status status = env->service->RegisterTable(
        table.spec.name, table.data,
        [] { return std::make_unique<vas::StratifiedSampler>(); }, catalog);
    if (!status.ok()) {
      std::fprintf(stderr, "register %s: %s\n", table.spec.name.c_str(),
                   status.ToString().c_str());
      return nullptr;
    }
  }
  RungPoller poller(env->service.get(), env->tables[0].key, registered_ns);

  vas::ServiceHandlerOptions handler_options;
  handler_options.registry = env->registry.get();
  vas::HttpServer::Options server_options;
  server_options.port = 0;
  server_options.bind_address = "127.0.0.1";
  server_options.num_threads = kHttpWorkers;
  server_options.registry = env->registry.get();
  server_options.trace_ring = nullptr;
  env->server = std::make_unique<vas::HttpServer>(
      server_options,
      WrapHandler(vas::MakeServiceHandler(env->service.get(), handler_options),
                  spans));
  if (!env->server->Start().ok()) return nullptr;

  t = NowNs();
  for (const Table& table : env->tables) {
    if (!env->service->manager().WaitUntilDone(table.key).ok()) return nullptr;
  }
  span("setup.wait_until_done", t);
  env->ladder_ready_s = poller.WaitDone();
  env->rung_ready_s = poller.ready_s();

  if (spec.memory_budget_bytes != 0) {
    // Settle residency deterministically: after /plot on t0 then t1,
    // every ladder has been written once and only t1 is resident.
    for (size_t i = 0; i < 2; ++i) {
      auto info = env->service->QueryViewport(env->tables[i].spec.name, Rect(),
                                              kBudgetSeconds);
      if (!info.ok()) return nullptr;
    }
    env->setup_spill_writes =
        env->registry
            ->GetCounter("vas_catalog_spill_writes_total", "Spill files written to disk.")
            ->Value();
  }

  if (spec.warm_zoom >= 0) {
    // Every tile of zooms 0..warm_zoom, once, as a first view would.
    t = NowNs();
    std::vector<Request> fetch;
    for (const TileKey& tile : TilesUpToZoom(static_cast<uint32_t>(spec.warm_zoom))) {
      Request request;
      request.tile = tile;
      request.target = TileTarget(env->tables[0].spec.name, tile, request.style);
      fetch.push_back(request);
    }
    Phase phase = RunPhase(env->server->port(), fetch, PhaseOptions{});
    for (const Outcome& out : phase.outcomes) {
      if (!out.ok) return nullptr;
    }
    span("setup.fetch_working_set", t);
  }
  return env;
}

// ---------------------------------------------------------------------------
// Output checks after the measured phase.

const vas::SampleSet* RungOfSize(const vas::SampleCatalog& catalog, size_t size) {
  for (const vas::SampleSet& sample : catalog.samples()) {
    if (sample.size() == size) return &sample;
  }
  return nullptr;
}

// Renders `request`'s tile directly from a resident copy of the rung it
// was served from, the way PlotService draws it.
std::string DirectRender(Env* env, const Request& request, size_t rung) {
  const Table& table = env->tables[request.table];
  auto catalog = env->service->manager().WaitUntilDone(table.key);
  if (!catalog.ok()) return "";
  const vas::SampleSet* sample = RungOfSize(**catalog, rung);
  if (sample == nullptr) return "";
  vas::TileGrid grid(table.data->Bounds());
  vas::Viewport viewport(grid.TileBounds(request.tile), kTilePx, kTilePx);
  vas::ScatterRenderer renderer(env->service->TileRenderOptions());
  const vas::PlotService::Options& options = env->service->options();
  if (request.style == TileStyle::kHeatmap) {
    std::vector<uint32_t> counts = renderer.RenderCounts(
        sample->MaterializePoints(*table.data), vas::DensityWeights(*sample),
        viewport);
    return vas::RenderDensityImage(counts, kTilePx, kTilePx,
                                   options.heatmap_colormap,
                                   options.renderer.background)
        .EncodePng(options.png);
  }
  return renderer.RenderSample(*table.data, *sample, viewport).EncodePng(options.png);
}

size_t BruteForceCount(const Dataset& data, const Rect& viewport) {
  size_t n = 0;
  for (const vas::Point& p : data.points) n += viewport.Contains(p) ? 1 : 0;
  return n;
}

// ---------------------------------------------------------------------------
// Layer replay of held-out requests on one thread (traced run only).

struct Replay {
  SpanRecorder spans;
  std::vector<double> self_us;
  std::vector<double> touched_bytes;
  double materialized_points = 0;
  double useful_points = 0;
  std::vector<double> points_per_tile;
  std::vector<double> in_view_share;
  double png_bytes = 0;
  double raw_bytes = 0;
};

template <typename F>
auto Timed(SpanRecorder* spans, const char* name, long parent, long request,
           F&& f) {
  const uint64_t start = NowNs();
  auto result = f();
  spans->Add(Span{name, start, NowNs(), parent, request});
  return result;
}

std::string BenchCacheKey(const Request& request, const std::string& table,
                          size_t rung) {
  return table + "\n" + request.tile.ToString() + "\n" + std::to_string(rung) +
         "\n" + vas::TileStyleName(request.style);
}

void ReplayTile(Env* env, const Request& request, long id, vas::TileCache* cache,
                Replay* replay) {
  const Table& table = env->tables[request.table];
  vas::CatalogManager& manager = env->service->manager();
  SpanRecorder& spans = replay->spans;
  // The parent first: the request through the service, as it was served.
  // Its children then replay the same calls one by one; they run with
  // the parent's data already in cache, so the self time they leave is,
  // if anything, too large.
  const uint64_t start = NowNs();
  auto result = env->service->RenderTile(table.spec.name, request.tile, "", request.style);
  const uint64_t end = NowNs();
  if (!result.ok()) return;
  const long parent = spans.Add(Span{"plot_service.render_tile", start, end, -1, id});
  auto view = Timed(&spans, "catalog_manager.view_for", -1, id,
                    [&] { return manager.ViewFor(table.key); });
  if (!view.ok()) return;
  const vas::VizTimeModel model = env->service->options().viz_model;
  const size_t rung = Timed(&spans, "catalog_view.choose", -1, id, [&] {
    return view->ChooseForTimeBudget(kBudgetSeconds, model);
  });
  const std::string key = BenchCacheKey(request, table.spec.name, view->rung_size(rung));
  auto cached = Timed(&spans, "tile_cache.get", -1, id, [&] { return cache->Get(key); });
  if (cached == nullptr) {
    vas::TileGrid grid(table.data->Bounds());
    const Rect bounds = grid.TileBounds(request.tile);
    vas::Viewport viewport(bounds, kTilePx, kTilePx);
    const vas::SampleSet* sample = view->ResidentRung(rung);
    vas::SampleSet materialized;
    if (sample == nullptr) {
      const bool rect = request.style == TileStyle::kHeatmap || !table.data->has_values();
      auto materialize = [&](const vas::CatalogView& from) {
        return rect ? from.MaterializeForRect(rung, bounds) : from.MaterializeRung(rung);
      };
      auto loaded = Timed(&spans, rect ? "catalog_store.rect" : "catalog_store.rung", -1,
                          id, [&] { return materialize(*view); });
      if (!loaded.ok()) return;
      // The served store has long since touched most pages; a fresh map
      // of the same file counts the pages this request alone needs.
      auto fresh = vas::CatalogStore::Open(view->store()->path());
      if (fresh.ok()) {
        vas::CatalogView fresh_view(*fresh, table.data->size());
        if (materialize(fresh_view).ok()) {
          replay->touched_bytes.push_back(static_cast<double>((*fresh)->touched_bytes()));
        }
      }
      materialized = std::move(*loaded);
      sample = &materialized;
      if (rect) {
        replay->materialized_points += static_cast<double>(sample->size());
        for (size_t sample_id : sample->ids) {
          replay->useful_points += bounds.Contains(table.data->points[sample_id]) ? 1 : 0;
        }
      }
    }
    vas::ScatterRenderer renderer(env->service->TileRenderOptions());
    const vas::PlotService::Options& options = env->service->options();
    vas::Image image = [&] {
      if (request.style == TileStyle::kHeatmap) {
        auto counts = Timed(&spans, "scatter_renderer.bin", -1, id, [&] {
          return renderer.RenderCounts(sample->MaterializePoints(*table.data),
                                       vas::DensityWeights(*sample), viewport);
        });
        return Timed(&spans, "colormap.image", -1, id, [&] {
          return vas::RenderDensityImage(counts, kTilePx, kTilePx,
                                         options.heatmap_colormap,
                                         options.renderer.background);
        });
      }
      return Timed(&spans, "scatter_renderer.raster", -1, id, [&] {
        return renderer.RenderSample(*table.data, *sample, viewport);
      });
    }();
    size_t in_view = 0;
    for (size_t sample_id : sample->ids) {
      in_view += bounds.Contains(table.data->points[sample_id]) ? 1 : 0;
    }
    replay->points_per_tile.push_back(static_cast<double>(in_view));
    replay->in_view_share.push_back(sample->size() == 0
                                        ? 0.0
                                        : static_cast<double>(in_view) /
                                              static_cast<double>(sample->size()));
    auto png = Timed(&spans, "image.encode", -1, id, [&] {
      return std::make_shared<const std::string>(image.EncodePng(options.png));
    });
    replay->png_bytes += static_cast<double>(png->size());
    replay->raw_bytes += static_cast<double>(kTilePx) * kTilePx * 3;
    Timed(&spans, "tile_cache.put", -1, id, [&] {
      cache->Put(key, png);
      return 0;
    });
  }
  std::vector<Span> all = spans.spans();
  double children_us = 0;
  for (size_t i = static_cast<size_t>(parent) + 1; i < all.size(); ++i) children_us += all[i].us();
  replay->self_us.push_back(static_cast<double>(end - start) / 1e3 - children_us);
}

void ReplayPlot(Env* env, const Request& request, long id,
                std::vector<std::unique_ptr<vas::InteractiveSession>>* sessions,
                Replay* replay) {
  const Table& table = env->tables[request.table];
  vas::CatalogManager& manager = env->service->manager();
  const CatalogKey& other = env->tables[(request.table + 1) % env->tables.size()].key;
  auto evict = [&] {
    auto status = manager.GetStatus(table.key);
    if (status.ok() && status->resident) (void)manager.WaitForFirstRung(other);
  };
  evict();
  auto reloaded = Timed(&replay->spans, "catalog_manager.reload", -1, id,
                        [&] { return manager.WaitForFirstRung(table.key); });
  if (!reloaded.ok()) return;
  vas::InteractiveSession::PlotRequest plot;
  plot.viewport = request.viewport;
  plot.time_budget_seconds = kBudgetSeconds;
  vas::InteractiveSession& session = *(*sessions)[request.table];
  Timed(&replay->spans, "session.query", -1, id, [&] {
    return session.RequestPlot(plot).points_in_viewport;
  });
  evict();
  Timed(&replay->spans, "plot_service.query_viewport", -1, id, [&] {
    return env->service->QueryViewport(table.spec.name, request.viewport, kBudgetSeconds)
        .ok();
  });
}

// ---------------------------------------------------------------------------
// The run.

vas::obs::Counter* CounterOf(Env* env, const std::string& name,
                             const vas::obs::LabelSet& labels = {}) {
  return env->registry->GetCounter(name, "", labels);
}

struct Counters {
  uint64_t hits = 0, misses = 0, reloads = 0, evictions = 0, partial_loads = 0;
  std::vector<uint64_t> http_wait;
};

Counters ReadCounters(Env* env) {
  Counters c;
  c.hits = CounterOf(env, "vas_tile_cache_hits_total")->Value();
  c.misses = CounterOf(env, "vas_tile_cache_misses_total")->Value();
  c.reloads = CounterOf(env, "vas_catalog_reloads_total")->Value();
  c.evictions = CounterOf(env, "vas_catalog_evictions_total", {{"kind", "free"}})->Value() +
                CounterOf(env, "vas_catalog_evictions_total", {{"kind", "spill"}})->Value();
  c.partial_loads = CounterOf(env, "vas_tile_partial_loads_total")->Value();
  c.http_wait = env->registry->GetHistogram("vas_pool_queue_wait_ns", "", {{"pool", "http"}})
                    ->BucketCounts();
  return c;
}

double LossRatio(const Table& table, const vas::SampleSet& sample) {
  vas::MonteCarloLossEstimator::Options options;
  options.num_probes = 1000;
  options.seed = 17;
  vas::MonteCarloLossEstimator estimator(*table.data, options);
  return estimator.LogLossRatioOf(sample.MaterializePoints(*table.data));
}

// Latency quantiles and throughput are reported as medians over up to
// five blocks of consecutive measured requests, each of at least 1000
// requests so that its p99 rests on ten samples or more: a host
// disturbance confined to one or two blocks then leaves the figures alone.
size_t BlockCount(size_t requests) { return std::clamp<size_t>(requests / 1000, 1, 5); }

double BlockQuantile(const std::vector<double>& latency, double q) {
  const size_t blocks = BlockCount(latency.size());
  std::vector<double> per_block;
  for (size_t b = 0; b < blocks; ++b) {
    std::vector<double> part(latency.begin() + b * latency.size() / blocks,
                             latency.begin() + (b + 1) * latency.size() / blocks);
    per_block.push_back(Quantile(&part, q));
  }
  return Median(per_block);
}

// What the measured phase leaves behind.
struct Measured {
  std::vector<double> latency, latency_traced, latency_untraced;
  double tile_bytes = 0, tiles = 0, rung_sum = 0;
  size_t attempted = 0, completed = 0, failed = 0, reconnects = 0;
  double process_cpu_s = 0, loadgen_cpu_s = 0;
  uint64_t hits = 0, misses = 0, reloads = 0, evictions = 0;
  std::vector<uint64_t> http_wait;  // queue-wait bucket counts gained
  std::vector<double> block_req_per_s;
  double rss_peak_mb = 0;
};

// A 304 only when If-None-Match is the current ETag: a fresh connection
// fetches `target`, revalidates it with that tag, then with a stale one.
bool ConditionalRequestsHold(uint16_t port, const std::string& target) {
  Connection conn;
  Response first, same, stale;
  return conn.Open(port) && conn.Get(target, "", &first) && first.status == 200 &&
         conn.Get(target, "If-None-Match: " + first.etag + "\r\n", &same) &&
         same.status == 304 && same.etag == first.etag && same.body.empty() &&
         conn.Get(target, "If-None-Match: \"stale\"\r\n", &stale) &&
         stale.status == 200 && stale.etag == first.etag && stale.body == first.body;
}

// Runs the measured phase on `env`, checks its outputs and the
// workload's validity.
Measured MeasurePhase(const WorkloadSpec& spec, Env* env, const std::vector<Request>& measured,
                      const PhaseOptions& options, std::vector<std::string>* problems) {
  Measured m;
  const Counters before = ReadCounters(env);
  Phase phase = RunPhase(env->server->port(), measured, options);
  const Counters after = ReadCounters(env);
  // Read before the checks allocate their own.
  m.rss_peak_mb = PeakRssMiB();

  for (size_t i = 0; i < measured.size(); ++i) {
    const Outcome& out = phase.outcomes[i];
    ++m.attempted;
    m.latency.push_back(out.latency_ms);
    (out.traced ? m.latency_traced : m.latency_untraced).push_back(out.latency_ms);
    if (!out.ok) {
      ++m.failed;
      continue;
    }
    ++m.completed;
    m.rung_sum += static_cast<double>(out.rung);
    if (measured[i].kind == Kind::kTile) {
      m.tile_bytes += static_cast<double>(out.body_bytes);
      m.tiles += 1;
    }
  }
  const size_t blocks = BlockCount(measured.size());
  for (size_t b = 0; b < blocks; ++b) {
    uint64_t first = std::numeric_limits<uint64_t>::max(), last = 0;
    size_t done = 0;
    for (size_t i = b * measured.size() / blocks; i < (b + 1) * measured.size() / blocks; ++i) {
      first = std::min(first, phase.outcomes[i].send_ns);
      last = std::max(last, phase.outcomes[i].end_ns);
      done += phase.outcomes[i].ok ? 1 : 0;
    }
    if (last > first) {
      m.block_req_per_s.push_back(static_cast<double>(done) * 1e9 /
                                  static_cast<double>(last - first));
    }
  }
  m.reconnects = phase.reconnects;
  m.process_cpu_s = phase.process_cpu_s;
  m.loadgen_cpu_s = phase.loadgen_cpu_s;
  m.hits = after.hits - before.hits;
  m.misses = after.misses - before.misses;
  m.reloads = after.reloads - before.reloads;
  m.evictions = after.evictions - before.evictions;
  m.http_wait.resize(after.http_wait.size(), 0);
  for (size_t b = 0; b < after.http_wait.size(); ++b) {
    m.http_wait[b] = after.http_wait[b] - (b < before.http_wait.size() ? before.http_wait[b] : 0);
  }

  // Output checks: byte identity, brute-force /plot counts, and
  // conditional requests on the same tiles.
  for (const auto& [index, body] : phase.kept) {
    const Request& request = measured[index];
    const Outcome& out = phase.outcomes[index];
    if (!out.ok) continue;
    bool same = true;
    if (request.kind == Kind::kPlot) {
      same = static_cast<long long>(BruteForceCount(*env->tables[request.table].data,
                                                    request.viewport)) == out.points_in_viewport;
    } else {
      same = DirectRender(env, request, static_cast<size_t>(out.rung)) == body;
      if (!ConditionalRequestsHold(env->server->port(), request.target)) {
        ++m.failed;
        problems->push_back("conditional request mishandled: " + request.target);
      }
    }
    if (!same) {
      ++m.failed;
      problems->push_back("response differs from its reference: " + request.target);
    }
  }

  // Validity: the workload still exercises the layer it exists for.
  if (spec.name == "pan-warm" && (m.misses != 0 || m.hits != measured.size())) {
    problems->push_back("pan-warm: hit ratio is not 1");
  }
  if (spec.name == "spill-mixed") {
    size_t resident = 0;
    for (const Table& table : env->tables) {
      auto status = env->service->manager().GetStatus(table.key);
      if (status.ok() && status->resident) ++resident;
    }
    if (m.reloads == 0) problems->push_back("spill-mixed: no reloads");
    if (after.partial_loads == before.partial_loads) {
      problems->push_back("spill-mixed: no partial loads");
    }
    if (resident > 1) problems->push_back("spill-mixed: more than one resident ladder");
  }
  if (m.completed > 0 &&
      phase.loadgen_cpu_s > kMaxLoadgenCpuShare * (phase.process_cpu_s - phase.loadgen_cpu_s)) {
    problems->push_back("load generator CPU above limit");
  }
  return m;
}

// The warm-up, measured and held-out request sequences of a workload.
void MakeSequences(const WorkloadSpec& spec, const Args& args, const Env& env,
                   std::mt19937_64* rng, std::vector<Request>* warmup,
                   std::vector<Request>* measured, std::vector<Request>* held_out) {
  const size_t count =
      static_cast<size_t>(std::llround(spec.requests_per_second * args.seconds));
  const std::string& table0 = env.tables[0].spec.name;
  if (spec.name == "pan-warm") {
    *warmup = ZipfRequests(table0, TilesUpToZoom(4), spec.warmup_requests, rng);
    *measured = ZipfRequests(table0, TilesUpToZoom(4), count, rng);
    *held_out = ZipfRequests(table0, TilesUpToZoom(4), kHeldOut, rng);
  } else {
    SpillSequence sequence(&env.tables, (*rng)());
    *warmup = sequence.Next(spec.warmup_requests);
    *measured = sequence.Next(count);
    *held_out = sequence.Next(kHeldOut);
  }
}

int Run(const Args& args) {
  const WorkloadSpec spec = MakeSpec(args.workload);
  if (spec.name.empty()) {
    std::fprintf(stderr, "unknown workload: %s\n", args.workload.c_str());
    return 2;
  }
  std::mt19937_64 rng(args.seed * 0x9E3779B97F4A7C15ull + 1);
  SpanRecorder http_spans;
  SpanRecorder setup_spans;
  std::vector<Request> warmup, measured, held_out;
  PhaseOptions phase_options;
  phase_options.trace = args.trace;
  phase_options.spans = &http_spans;
  std::vector<std::string> problems;

  // Set up several times and report the median; measure on the last.
  std::vector<double> setup_s, ladder_s;
  std::unique_ptr<Env> env;
  for (size_t rep = 0; rep < kSetupReps; ++rep) {
    env.reset();
    const bool last = rep + 1 == kSetupReps;
    const uint64_t start = NowNs();
    env = Setup(spec, &http_spans, last ? &setup_spans : nullptr);
    if (env == nullptr) {
      std::fprintf(stderr, "set-up failed\n");
      return 1;
    }
    setup_s.push_back(static_cast<double>(NowNs() - start) / 1e9);
    ladder_s.push_back(env->ladder_ready_s);
    if (rep == 0) {
      MakeSequences(spec, args, *env, &rng, &warmup, &measured, &held_out);
      // Seeded subsets for the output checks.
      std::vector<size_t> tiles, plots;
      for (size_t i = 0; i < measured.size(); ++i) {
        (measured[i].kind == Kind::kPlot ? plots : tiles).push_back(i);
      }
      std::shuffle(tiles.begin(), tiles.end(), rng);
      std::shuffle(plots.begin(), plots.end(), rng);
      tiles.resize(std::min(tiles.size(), kIdentityChecks));
      plots.resize(std::min(plots.size(), kPlotChecks));
      phase_options.keep.insert(tiles.begin(), tiles.end());
      phase_options.keep.insert(plots.begin(), plots.end());
    }
  }
  Phase warm = RunPhase(env->server->port(), warmup, PhaseOptions{});
  if (std::any_of(warm.outcomes.begin(), warm.outcomes.end(),
                  [](const Outcome& out) { return !out.ok; })) {
    problems.push_back("warm-up request failed");
  }
  Measured stats = MeasurePhase(spec, env.get(), measured, phase_options, &problems);
  if (stats.completed == 0) {
    std::fprintf(stderr, "no request completed\n");
    return 1;
  }
  const double completed = static_cast<double>(stats.completed);
  const double server_cpu_ms = (stats.process_cpu_s - stats.loadgen_cpu_s) * 1e3 / completed;

  Metrics metrics;
  if (!args.trace) {
    // Sample quality of table 0's top rung, after the clock stops.
    double loss_ratio = 0;
    auto catalog = env->service->manager().WaitUntilDone(env->tables[0].key);
    if (catalog.ok()) loss_ratio = LossRatio(env->tables[0], (*catalog)->samples().back());
    metrics.Set("setup_s", Median(setup_s), "s");
    metrics.Set("p50_ms", BlockQuantile(stats.latency, 0.50), "ms");
    metrics.Set("p99_ms", BlockQuantile(stats.latency, 0.99), "ms");
    metrics.Set("req_per_s", Median(stats.block_req_per_s), "req/s");
    metrics.Set("cpu_ms_per_req", server_cpu_ms, "ms");
    metrics.Set("wire_bytes_per_tile",
                stats.tiles > 0 ? stats.tile_bytes / stats.tiles : 0, "bytes");
    metrics.Set("rung_points", stats.rung_sum / completed, "points");
    metrics.Set("ladder_ready_s", Median(ladder_s), "s");
    metrics.Set("loss_ratio", loss_ratio, "log10");
    metrics.Set("rss_peak_mb", stats.rss_peak_mb, "MiB");
    metrics.Set("ok_share",
                static_cast<double>(stats.attempted - stats.failed) /
                    static_cast<double>(stats.attempted),
                "ratio");
  } else {
    // HTTP path: transport = client span - handler span, per request.
    std::map<long, double> handler_us;
    for (const Span& span : http_spans.spans()) {
      if (span.name == "handler") handler_us[span.request] = span.us();
    }
    std::vector<double> transport, handler;
    for (const Span& span : http_spans.spans()) {
      if (span.name != "loadgen.request") continue;
      auto it = handler_us.find(span.request);
      if (it == handler_us.end()) continue;
      transport.push_back(span.us() - it->second);
      handler.push_back(it->second);
    }
    const vas::obs::Histogram* http_wait = env->registry->GetHistogram(
        "vas_pool_queue_wait_ns", "", {{"pool", "http"}});
    const vas::obs::Histogram* build_wait = env->registry->GetHistogram(
        "vas_pool_queue_wait_ns", "", {{"pool", "catalog_build"}});
    metrics.Set("loadgen.cpu_ms_per_req", stats.loadgen_cpu_s * 1e3 / completed, "ms");
    metrics.Set("http_server.transport_us_p50", Quantile(&transport, 0.50), "us");
    metrics.Set("http_server.transport_us_p99", Quantile(&transport, 0.99), "us");
    metrics.Set("http_server.queue_wait_us_p50",
                HistogramDeltaQuantile(*http_wait, {}, stats.http_wait, 0.5) / 1e3, "us");
    metrics.Set("http_server.reconnects", static_cast<double>(stats.reconnects), "count");
    metrics.Set("plot_service.handler_us_p50", Quantile(&handler, 0.50), "us");
    metrics.Set("tile_cache.hit_ratio",
                stats.hits + stats.misses > 0
                    ? static_cast<double>(stats.hits) / static_cast<double>(stats.hits + stats.misses)
                    : 0.0,
                "ratio");
    metrics.Set("catalog_manager.reloads", static_cast<double>(stats.reloads), "count");
    metrics.Set("catalog_manager.evictions", static_cast<double>(stats.evictions), "count");
    metrics.Set("catalog_manager.spill_writes", static_cast<double>(env->setup_spill_writes),
                "count");
    metrics.Set("sample_catalog.build_wait_ms_p50",
                HistogramDeltaQuantile(*build_wait, {}, build_wait->BucketCounts(), 0.5) / 1e6,
                "ms");
    for (size_t i = 0; i < 4; ++i) {
      metrics.Set("sample_catalog.rung_ready_s." + std::to_string(i),
                  i < env->rung_ready_s.size() ? env->rung_ready_s[i] : 0.0, "s");
    }
    const double untraced_p50 = Quantile(&stats.latency_untraced, 0.5);
    metrics.Set("trace.overhead_p50",
                untraced_p50 > 0 ? Quantile(&stats.latency_traced, 0.5) / untraced_p50 - 1.0
                                 : 0.0,
                "ratio");

    // Layer replay of held-out requests, one thread.
    Replay replay;
    vas::TileCache cache(vas::TileCache::Options{});
    // The /plot replay queries sessions of the benchmark's own; a first,
    // untimed plot builds each one's count grid.
    std::vector<std::unique_ptr<vas::InteractiveSession>> sessions;
    const bool plots = std::any_of(held_out.begin(), held_out.end(),
                                   [](const Request& r) { return r.kind == Kind::kPlot; });
    for (const Table& table : env->tables) {
      if (!plots) break;
      sessions.push_back(std::make_unique<vas::InteractiveSession>(
          table.data, &env->service->manager(), table.key,
          env->service->options().viz_model));
      vas::InteractiveSession::PlotRequest warm_plot;
      warm_plot.viewport = Rect::Of(0, 0, 1, 1);
      (void)sessions.back()->RequestPlot(warm_plot);
    }
    if (spec.name == "pan-warm") {
      // Hit path: the benchmark's cache holds what the server's holds.
      for (const Request& request : held_out) {
        auto tile = env->service->RenderTile(env->tables[request.table].spec.name,
                                             request.tile, "", request.style);
        if (!tile.ok()) continue;
        cache.Put(BenchCacheKey(request, env->tables[request.table].spec.name,
                                tile->sample_size),
                  tile->png);
      }
    }
    for (size_t i = 0; i < held_out.size(); ++i) {
      const long id = static_cast<long>(i);
      if (held_out[i].kind == Kind::kPlot) {
        ReplayPlot(env.get(), held_out[i], id, &sessions, &replay);
      } else {
        ReplayTile(env.get(), held_out[i], id, &cache, &replay);
      }
    }
    auto p50 = [&](const char* name, double scale) {
      std::vector<double> d = replay.spans.DurationsUs(name);
      return Quantile(&d, 0.5) * scale;
    };
    metrics.Set("plot_service.self_us_p50", Median(replay.self_us), "us");
    metrics.Set("tile_cache.get_us_p50", p50("tile_cache.get", 1), "us");
    metrics.Set("tile_cache.put_us_p50", p50("tile_cache.put", 1), "us");
    metrics.Set("catalog_manager.view_us_p50", p50("catalog_manager.view_for", 1), "us");
    metrics.Set("catalog_manager.reload_ms_p50", p50("catalog_manager.reload", 1e-3), "ms");
    metrics.Set("catalog_store.rect_ms_p50", p50("catalog_store.rect", 1e-3), "ms");
    metrics.Set("catalog_store.rung_ms_p50", p50("catalog_store.rung", 1e-3), "ms");
    metrics.Set("catalog_store.touched_bytes_per_req", Mean(replay.touched_bytes), "bytes");
    metrics.Set("catalog_store.useful_share",
                replay.materialized_points > 0
                    ? replay.useful_points / replay.materialized_points
                    : 0.0,
                "ratio");
    metrics.Set("session.query_ms_p50", p50("session.query", 1e-3), "ms");
    metrics.Set("scatter_renderer.raster_ms_p50", p50("scatter_renderer.raster", 1e-3), "ms");
    metrics.Set("scatter_renderer.points_per_tile", Mean(replay.points_per_tile), "points");
    metrics.Set("scatter_renderer.in_view_share", Mean(replay.in_view_share), "ratio");
    metrics.Set("scatter_renderer.bin_ms_p50", p50("scatter_renderer.bin", 1e-3), "ms");
    metrics.Set("colormap.image_ms_p50", p50("colormap.image", 1e-3), "ms");
    metrics.Set("image.encode_ms_p50", p50("image.encode", 1e-3), "ms");
    metrics.Set("image.png_ratio",
                replay.raw_bytes > 0 ? replay.png_bytes / replay.raw_bytes : 0.0, "ratio");

    // Sampler replay of table 0's top rung, single-threaded.
    const Table& table = env->tables[0];
    vas::StratifiedSampler sampler;
    uint64_t t = NowNs();
    vas::SampleSet sample = sampler.Sample(*table.data, table.spec.ladder.back());
    setup_spans.Add(Span{"sampler.sample", t, NowNs(), -1, -1});
    metrics.Set("sampler.sample_s", static_cast<double>(NowNs() - t) / 1e9, "s");
    t = NowNs();
    vas::EmbedDensity(*table.data, &sample);
    setup_spans.Add(Span{"sampler.density", t, NowNs(), -1, -1});
    metrics.Set("sampler.density_s", static_cast<double>(NowNs() - t) / 1e9, "s");

    // Spans of the three parts, written out at the end of the run.
    std::vector<Span> all = http_spans.spans();
    std::map<long, long> request_span;
    for (size_t i = 0; i < all.size(); ++i) {
      if (all[i].name == "loadgen.request") request_span[all[i].request] = static_cast<long>(i);
    }
    for (Span& span : all) {
      if (span.name == "handler" && request_span.count(span.request) != 0) {
        span.parent = request_span[span.request];
      }
    }
    SpanRecorder out;
    for (const Span& span : all) out.Add(span);
    const long base = static_cast<long>(all.size());
    std::vector<Span> replayed = replay.spans.spans();
    std::map<long, long> parent_of;
    for (size_t i = 0; i < replayed.size(); ++i) {
      const std::string& n = replayed[i].name;
      if (n == "plot_service.render_tile" || n == "plot_service.query_viewport") {
        parent_of[replayed[i].request] = base + static_cast<long>(i);
      }
    }
    for (size_t i = 0; i < replayed.size(); ++i) {
      Span span = replayed[i];
      auto parent = parent_of.find(span.request);
      if (parent != parent_of.end() && parent->second != base + static_cast<long>(i)) {
        span.parent = parent->second;
      }
      span.request += 1000000000L;  // replay ids apart from HTTP ids
      out.Add(span);
    }
    for (const Span& span : setup_spans.spans()) out.Add(span);
    ::mkdir(".bench_out", 0755);
    const std::string path = ".bench_out/spans-" + spec.name + "-" +
                             std::to_string(args.seed) + ".json";
    if (!out.WriteJson(path)) problems.push_back("could not write " + path);
  }

  env.reset();
  for (const std::string& problem : problems) std::fprintf(stderr, "check: %s\n", problem.c_str());
  uint64_t failed = stats.failed;
  const bool correct = problems.empty() && failed == 0;
  if (!problems.empty() && failed == 0) failed = 1;
  std::printf("%s\n", metrics.ResultLine(correct, stats.attempted, failed).c_str());
  std::fflush(stdout);
  return correct ? 0 : 3;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else {
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0 && argc % 2 == 1;
}

}  // namespace
}  // namespace vasbench

int main(int argc, char** argv) {
  vasbench::Args args;
  if (!vasbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: vasbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1>\n");
    return 2;
  }
  ::mkdir(".bench_out", 0755);
  vasbench::g_spill_dir = ".bench_out/spill-" + std::to_string(::getpid());
  ::mkdir(vasbench::g_spill_dir.c_str(), 0755);
  const int code = vasbench::Run(args);
  ::rmdir(vasbench::g_spill_dir.c_str());
  return code;
}
