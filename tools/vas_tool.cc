// vas_tool — command-line front end for the library. Lets a user drive
// the whole pipeline on CSV files without writing C++:
//
//   vas_tool generate      --kind=geolife --n=1000000 --out=data.csv
//   vas_tool ingest        --in=data.csv --out=data.bin
//   vas_tool build-catalog --in=data.bin --ladder=1000,10000,100000
//                          --out=catalog --catalog-out=catalog.vascat
//                          --memory-budget=268435456
//   vas_tool save-catalog  --in=data.bin --ladder=1000,10000,100000
//                          --out=catalog.vascat
//   vas_tool load-catalog  --in=data.bin --catalog=catalog.vascat
//   vas_tool catalog-info  --in=catalog.vascat
//   vas_tool sample        --in=data.csv --k=10000 --method=vas
//                          --density=true --out=sample.bin
//   vas_tool render        --in=data.csv --sample=sample.bin --out=plot.ppm
//   vas_tool loss          --in=data.csv --sample=sample.bin
//   vas_tool info          --in=data.csv
//   vas_tool serve         --data=data.bin --port=8080
//
// `ingest` streams arbitrarily large CSVs into the binary format with
// bounded memory; `build-catalog` runs the offline sample-ladder build
// asynchronously, polling status so each rung is reported (and
// servable) the moment it lands, optionally under a serving memory
// budget that spills cold catalogs to disk. `save-catalog` persists the
// whole ladder into one catalog file (see engine/catalog_io.h) and
// `load-catalog` serves from such a file at disk-load cost instead of
// rebuild cost — the full persist → evict → serve lifecycle without
// writing C++. Individual samples persist in the library's binary
// format (see sampling/sample_io.h), exactly like an index.
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/vas.h"
#include "data/dataset_io.h"
#include "data/dataset_stream.h"
#include "engine/catalog_manager.h"
#include "engine/catalog_store.h"
#include "engine/session.h"
#include "obs/log.h"
#include "render/scatter_renderer.h"
#include "serve_main.h"
#include "util/flags.h"
#include "util/stopwatch.h"
#include "util/strings.h"

// Subcommand-local: flag-parsing failures print and exit the command.
#define VAS_RETURN_IF_ERROR_INT(expr)                 \
  do {                                                \
    ::vas::Status _vas_tool_status = (expr);          \
    if (!_vas_tool_status.ok()) {                     \
      return ::vas::tool::Fail(_vas_tool_status);     \
    }                                                 \
  } while (false)

namespace vas::tool {
namespace {

int CmdGenerate(FlagSet& flags, int argc, char** argv) {
  flags.Define("kind", "geolife", "geolife | splom | uniform | mixture");
  flags.Define("n", "100000", "number of tuples");
  flags.Define("seed", "7", "generator seed");
  flags.Define("clusters", "2", "mixture only: 1 or 2 clusters");
  flags.Define("out", "data.csv", "output path (.csv or .bin)");
  VAS_RETURN_IF_ERROR_INT(flags.Parse(argc, argv));
  size_t n = static_cast<size_t>(flags.GetInt("n"));
  uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed"));
  std::string kind = flags.GetString("kind");

  Dataset d;
  if (kind == "geolife") {
    GeolifeLikeGenerator::Options opt;
    opt.num_points = n;
    opt.seed = seed;
    d = GeolifeLikeGenerator(opt).Generate();
  } else if (kind == "splom") {
    SplomGenerator::Options opt;
    opt.num_rows = n;
    opt.seed = seed;
    d = SplomGenerator(opt).Generate();
  } else if (kind == "uniform") {
    d = GenerateUniform(Rect::Of(0, 0, 10, 10), n, seed);
  } else if (kind == "mixture") {
    auto opt = GaussianMixtureGenerator::ClusterStudyOptions(
        static_cast<int>(flags.GetInt("clusters")), 0, n, seed);
    d = GaussianMixtureGenerator(opt).Generate();
  } else {
    obs::Log(obs::LogLevel::kError, "unknown --kind",
             obs::LogFields().Add("kind", kind));
    return 1;
  }
  std::string out = flags.GetString("out");
  Status s = out.size() > 4 && out.substr(out.size() - 4) == ".bin"
                 ? WriteBinary(d, out)
                 : WriteCsv(d, out);
  if (!s.ok()) return Fail(s);
  std::printf("wrote %s tuples to %s\n",
              FormatWithCommas(static_cast<int64_t>(d.size())).c_str(),
              out.c_str());
  return 0;
}

int CmdSample(FlagSet& flags, int argc, char** argv) {
  flags.Define("in", "data.csv", "input dataset (.csv or .bin)");
  flags.Define("k", "10000", "sample size");
  flags.Define("method", "vas",
               "vas | vas-parallel | vas-outlier | uniform | stratified");
  flags.Define("density", "true", "run the density-embedding pass");
  flags.Define("passes", "4", "vas: max streaming passes");
  flags.Define("budget", "0", "vas: time budget in seconds (0 = none)");
  flags.Define("out", "sample.bin", "output sample path");
  VAS_RETURN_IF_ERROR_INT(flags.Parse(argc, argv));

  auto data = LoadInput(flags.GetString("in"));
  if (!data.ok()) return Fail(data.status());
  size_t k = static_cast<size_t>(flags.GetInt("k"));
  std::string method = flags.GetString("method");

  InterchangeSampler::Options vopt;
  vopt.max_passes = static_cast<size_t>(flags.GetInt("passes"));
  vopt.time_budget_seconds = flags.GetDouble("budget");
  auto factory = MakeSamplerFactory(method, vopt);
  if (!factory.ok()) return Fail(factory.status());
  std::unique_ptr<Sampler> sampler = (*factory)();

  Stopwatch watch;
  SampleSet sample = sampler->Sample(*data, k);
  double sample_secs = watch.ElapsedSeconds();
  if (flags.GetBool("density")) EmbedDensity(*data, &sample);
  Status s = WriteSampleSet(sample, flags.GetString("out"));
  if (!s.ok()) return Fail(s);
  std::printf("%s: sampled %zu of %s tuples in %.2fs -> %s\n",
              sample.method.c_str(), sample.size(),
              FormatWithCommas(static_cast<int64_t>(data->size())).c_str(),
              sample_secs, flags.GetString("out").c_str());
  return 0;
}

int CmdIngest(FlagSet& flags, int argc, char** argv) {
  flags.Define("in", "data.csv", "input dataset (.csv or .bin)");
  flags.Define("out", "data.bin", "output binary dataset path");
  flags.Define("chunk", "65536", "rows per streamed chunk");
  flags.Define("progress-every", "1000000",
               "print progress every N rows (0 = quiet)");
  VAS_RETURN_IF_ERROR_INT(flags.Parse(argc, argv));
  if (flags.GetInt("chunk") <= 0) {
    return Fail(Status::InvalidArgument("--chunk must be positive"));
  }
  if (flags.GetInt("progress-every") < 0) {
    return Fail(
        Status::InvalidArgument("--progress-every must be non-negative"));
  }

  auto reader = OpenDatasetReader(flags.GetString("in"),
                                  static_cast<size_t>(flags.GetInt("chunk")));
  if (!reader.ok()) return Fail(reader.status());

  size_t progress_every =
      static_cast<size_t>(flags.GetInt("progress-every"));
  size_t next_report = progress_every;
  Stopwatch watch;
  auto stats = IngestToBinary(
      **reader, flags.GetString("out"), [&](const IngestStats& s) {
        if (progress_every == 0 || s.rows < next_report) return;
        next_report = s.rows + progress_every;
        std::printf("  ingested %s rows (%.1fs)\n",
                    FormatWithCommas(static_cast<int64_t>(s.rows)).c_str(),
                    watch.ElapsedSeconds());
      });
  if (!stats.ok()) return Fail(stats.status());
  double secs = watch.ElapsedSeconds();
  std::printf("ingested %s rows in %.2fs (%.0f rows/s) -> %s\n",
              FormatWithCommas(static_cast<int64_t>(stats->rows)).c_str(),
              secs, secs > 0 ? static_cast<double>(stats->rows) / secs : 0.0,
              flags.GetString("out").c_str());
  std::printf("bounds:  [%g, %g] x [%g, %g]   values: %s\n",
              stats->bounds.min_x, stats->bounds.max_x, stats->bounds.min_y,
              stats->bounds.max_y, stats->has_values ? "yes" : "no");
  return 0;
}

/// Parses the shared --ladder/--method/--density/--passes/--budget
/// build flags into catalog options and a sampler factory.
Status ParseBuildFlags(const FlagSet& flags, SampleCatalog::Options* copt,
                       SamplerFactory* factory) {
  VAS_ASSIGN_OR_RETURN(copt->ladder, ParseLadder(flags.GetString("ladder")));
  copt->embed_density = flags.GetBool("density");
  InterchangeSampler::Options vopt;
  vopt.max_passes = static_cast<size_t>(flags.GetInt("passes"));
  vopt.time_budget_seconds = flags.GetDouble("budget");
  VAS_ASSIGN_OR_RETURN(*factory,
                       MakeSamplerFactory(flags.GetString("method"), vopt));
  return Status::OK();
}

void DefineBuildFlags(FlagSet& flags) {
  flags.Define("ladder", "1000,10000,100000",
               "comma-separated rung sizes, ascending");
  flags.Define("method", "vas",
               "vas | vas-parallel | vas-outlier | uniform | stratified");
  flags.Define("density", "true", "run the density-embedding pass");
  flags.Define("passes", "4", "vas: max streaming passes");
  flags.Define("budget", "0", "vas: per-rung time budget in seconds");
  flags.Define("threads", "0", "build workers (0 = hardware concurrency)");
}

int CmdBuildCatalog(FlagSet& flags, int argc, char** argv) {
  flags.Define("in", "data.bin", "input dataset (.csv or .bin)");
  DefineBuildFlags(flags);
  flags.Define("poll-ms", "200", "status poll interval while building");
  flags.Define("memory-budget", "0",
               "serving memory budget in bytes (0 = unlimited; cold "
               "catalogs spill to disk)");
  flags.Define("out", "catalog",
               "rung file prefix (writes <out>_k<size>.bin; empty = skip)");
  flags.Define("catalog-out", "",
               "also write the whole ladder to one catalog file");
  VAS_RETURN_IF_ERROR_INT(flags.Parse(argc, argv));

  SampleCatalog::Options copt;
  SamplerFactory factory;
  Status parsed = ParseBuildFlags(flags, &copt, &factory);
  if (!parsed.ok()) return Fail(parsed);

  auto loaded = LoadInput(flags.GetString("in"));
  if (!loaded.ok()) return Fail(loaded.status());
  auto dataset = std::make_shared<Dataset>(std::move(*loaded));
  dataset->CacheBounds();  // the build shares one dataset across workers

  CatalogManager::Options mopt;
  mopt.num_threads = static_cast<size_t>(flags.GetInt("threads"));
  mopt.memory_budget_bytes =
      static_cast<size_t>(flags.GetInt("memory-budget"));
  CatalogManager manager(mopt);
  CatalogKey key{flags.GetString("in"), "x", "y"};
  Stopwatch watch;
  Status started =
      manager.StartBuild(key, dataset, std::move(factory), copt);
  if (!started.ok()) return Fail(started);

  auto first = manager.WaitForFirstRung(key);
  if (!first.ok()) return Fail(first.status());
  std::printf("first rung servable after %.2fs (%zu points)\n",
              watch.ElapsedSeconds(), (*first)->samples().front().size());

  // Poll build status, reporting each rung as it lands.
  auto poll = std::chrono::milliseconds(flags.GetInt("poll-ms"));
  size_t reported = 0;
  for (;;) {
    auto status = manager.GetStatus(key);
    if (!status.ok()) return Fail(status.status());
    if (status->rungs_ready != reported) {
      reported = status->rungs_ready;
      std::printf("  %zu/%zu rungs ready (%.2fs)\n", reported,
                  status->rungs_total, watch.ElapsedSeconds());
    }
    if (status->done) break;
    std::this_thread::sleep_for(poll);
  }
  auto catalog = manager.WaitUntilDone(key);
  if (!catalog.ok()) return Fail(catalog.status());
  std::printf("catalog for %s built in %.2fs\n", key.ToString().c_str(),
              watch.ElapsedSeconds());

  std::string prefix = flags.GetString("out");
  if (!prefix.empty()) {
    for (const SampleSet& rung : (*catalog)->samples()) {
      std::string path =
          StrFormat("%s_k%zu.bin", prefix.c_str(), rung.size());
      Status s = WriteSampleSet(rung, path);
      if (!s.ok()) return Fail(s);
      std::printf("  wrote %zu-point rung -> %s\n", rung.size(),
                  path.c_str());
    }
  }
  std::string catalog_out = flags.GetString("catalog-out");
  if (!catalog_out.empty()) {
    Status s = manager.SaveCatalog(key, catalog_out);
    if (!s.ok()) return Fail(s);
    std::printf("wrote %zu-rung catalog -> %s\n",
                (*catalog)->samples().size(), catalog_out.c_str());
  }
  auto stats = manager.memory_stats();
  if (stats.budget_bytes > 0) {
    std::printf(
        "memory: %zu bytes resident of %zu budget (%" PRId64
        " evictions)\n",
        stats.resident_bytes, stats.budget_bytes,
        manager.metrics_registry()->Total("vas_catalog_evictions_total"));
  }
  return 0;
}

int CmdSaveCatalog(FlagSet& flags, int argc, char** argv) {
  flags.Define("in", "data.bin", "input dataset (.csv or .bin)");
  DefineBuildFlags(flags);
  flags.Define("out", "catalog.vascat", "output catalog file");
  VAS_RETURN_IF_ERROR_INT(flags.Parse(argc, argv));

  SampleCatalog::Options copt;
  SamplerFactory factory;
  Status parsed = ParseBuildFlags(flags, &copt, &factory);
  if (!parsed.ok()) return Fail(parsed);

  auto loaded = LoadInput(flags.GetString("in"));
  if (!loaded.ok()) return Fail(loaded.status());
  auto dataset = std::make_shared<Dataset>(std::move(*loaded));
  dataset->CacheBounds();

  CatalogManager manager(static_cast<size_t>(flags.GetInt("threads")));
  CatalogKey key{flags.GetString("in"), "x", "y"};
  Stopwatch watch;
  Status started = manager.StartBuild(key, dataset, std::move(factory), copt);
  if (!started.ok()) return Fail(started);
  Status saved = manager.SaveCatalog(key, flags.GetString("out"));
  if (!saved.ok()) return Fail(saved);
  auto status = manager.GetStatus(key);
  if (!status.ok()) return Fail(status.status());
  std::printf(
      "built and saved %zu-rung catalog for %s in %.2fs -> %s (%zu bytes "
      "resident)\n",
      status->rungs_total, key.ToString().c_str(), watch.ElapsedSeconds(),
      flags.GetString("out").c_str(), status->memory_bytes);
  return 0;
}

int CmdLoadCatalog(FlagSet& flags, int argc, char** argv) {
  flags.Define("in", "data.bin", "dataset the catalog was built from");
  flags.Define("catalog", "catalog.vascat", "catalog file to load");
  flags.Define("time-budget", "2.0",
               "interactivity budget for the demo plot (seconds)");
  VAS_RETURN_IF_ERROR_INT(flags.Parse(argc, argv));

  auto loaded = LoadInput(flags.GetString("in"));
  if (!loaded.ok()) return Fail(loaded.status());
  auto dataset = std::make_shared<Dataset>(std::move(*loaded));
  dataset->CacheBounds();

  CatalogManager manager(1);
  CatalogKey key{flags.GetString("in"), "x", "y"};
  Stopwatch watch;
  Status added =
      manager.LoadCatalog(key, dataset, flags.GetString("catalog"));
  if (!added.ok()) return Fail(added);
  double load_secs = watch.ElapsedSeconds();

  auto snapshot = manager.Snapshot(key);
  if (!snapshot.ok()) return Fail(snapshot.status());
  std::printf("loaded %zu-rung catalog for %s in %.3fs:\n",
              (*snapshot)->samples().size(), key.ToString().c_str(),
              load_secs);
  for (const SampleSet& rung : (*snapshot)->samples()) {
    std::printf("  %s rung: %zu points, density %s\n", rung.method.c_str(),
                rung.size(), rung.has_density() ? "yes" : "no");
  }

  // Serve one whole-domain plot to prove the loaded ladder answers
  // requests — no rebuild happened anywhere on this path.
  InteractiveSession session(dataset, &manager, key,
                             VizTimeModel::Tableau());
  InteractiveSession::PlotRequest request;
  request.time_budget_seconds = flags.GetDouble("time-budget");
  watch.Restart();
  auto plot = session.RequestPlot(request);
  std::printf(
      "served %zu of %s tuples in %.3fs (est. viz %.2fs vs %.2fs "
      "unsampled)\n",
      plot.sample_points_in_viewport,
      FormatWithCommas(static_cast<int64_t>(dataset->size())).c_str(),
      watch.ElapsedSeconds(), plot.estimated_viz_seconds,
      plot.estimated_full_viz_seconds);
  return 0;
}

int CmdCatalogInfo(FlagSet& flags, int argc, char** argv) {
  flags.Define("in", "catalog.vascat", "catalog file to inspect");
  VAS_RETURN_IF_ERROR_INT(flags.Parse(argc, argv));
  const std::string path = flags.GetString("in");

  auto store = CatalogStore::Open(path);
  if (!store.ok()) return Fail(store.status());
  const CatalogStore& s = **store;
  const size_t meta_pages = s.page_count() - 1 - s.data_page_count();
  std::printf("format:  CAT2 (paged)\n");
  std::printf("file:    %s bytes\n",
              FormatWithCommas(static_cast<int64_t>(s.file_bytes())).c_str());
  std::printf(
      "pages:   %zu x %zu bytes (1 superblock, %zu data, %zu meta)\n",
      s.page_count(), s.page_size(), s.data_page_count(), meta_pages);
  std::printf("rungs:   %zu\n", s.rung_count());
  for (size_t k = 0; k < s.rung_count(); ++k) {
    const CatalogStore::Rung& rung = s.rung(k);
    std::printf(
        "  %s rung: %s points, density %s, max id %s\n", rung.method.c_str(),
        FormatWithCommas(static_cast<int64_t>(rung.count)).c_str(),
        rung.has_density ? "yes" : "no",
        FormatWithCommas(static_cast<int64_t>(rung.max_id)).c_str());
    if (rung.has_value_range) {
      std::printf("    value range: [%g, %g]\n", rung.value_lo, rung.value_hi);
    } else {
      std::printf("    value range: none\n");
    }
    std::printf(
        "    cell index: %" PRIu64 "x%" PRIu64 " grid, %" PRIu64
        "/%" PRIu64 " cells occupied, max %" PRIu64 " entries/cell\n",
        rung.grid_x, rung.grid_y, rung.occupied_cells,
        rung.grid_x * rung.grid_y, rung.max_cell_entries);
  }
  return 0;
}

int CmdRender(FlagSet& flags, int argc, char** argv) {
  flags.Define("in", "data.csv", "input dataset");
  flags.Define("sample", "", "optional sample file; empty renders all");
  flags.Define("out", "plot.ppm", "output image");
  flags.Define("px", "512", "image size in pixels");
  flags.Define("zoom", "1", "zoom factor around --cx/--cy");
  flags.Define("cx", "nan", "zoom center x (default: domain center)");
  flags.Define("cy", "nan", "zoom center y");
  VAS_RETURN_IF_ERROR_INT(flags.Parse(argc, argv));

  auto data = LoadInput(flags.GetString("in"));
  if (!data.ok()) return Fail(data.status());
  SampleSet sample;
  if (!flags.GetString("sample").empty()) {
    auto loaded = ReadSampleSet(flags.GetString("sample"));
    if (!loaded.ok()) return Fail(loaded.status());
    Status valid = ValidateSampleAgainst(*loaded, data->size());
    if (!valid.ok()) return Fail(valid);
    sample = std::move(*loaded);
  } else {
    sample.ids.resize(data->size());
    for (size_t i = 0; i < sample.ids.size(); ++i) sample.ids[i] = i;
  }

  size_t px = static_cast<size_t>(flags.GetInt("px"));
  Viewport viewport(data->Bounds(), px, px);
  double zoom = flags.GetDouble("zoom");
  if (zoom > 1.0) {
    Point center = data->Bounds().Center();
    std::string cx = flags.GetString("cx");
    if (cx != "nan") center = {flags.GetDouble("cx"), flags.GetDouble("cy")};
    viewport = viewport.ZoomedIn(center, zoom);
  }
  ScatterRenderer::Options ropt;
  ropt.width_px = px;
  ropt.height_px = px;
  ScatterRenderer renderer(ropt);
  Stopwatch watch;
  Image img = renderer.RenderSample(*data, sample, viewport);
  Status s = img.WritePpm(flags.GetString("out"));
  if (!s.ok()) return Fail(s);
  std::printf("rendered %zu points in %.3fs -> %s\n", sample.size(),
              watch.ElapsedSeconds(), flags.GetString("out").c_str());
  return 0;
}

int CmdLoss(FlagSet& flags, int argc, char** argv) {
  flags.Define("in", "data.csv", "input dataset");
  flags.Define("sample", "sample.bin", "sample file to score");
  flags.Define("probes", "1000", "Monte-Carlo probes");
  VAS_RETURN_IF_ERROR_INT(flags.Parse(argc, argv));
  auto data = LoadInput(flags.GetString("in"));
  if (!data.ok()) return Fail(data.status());
  auto sample = ReadSampleSet(flags.GetString("sample"));
  if (!sample.ok()) return Fail(sample.status());
  Status valid = ValidateSampleAgainst(*sample, data->size());
  if (!valid.ok()) return Fail(valid);

  MonteCarloLossEstimator::Options lopt;
  lopt.num_probes = static_cast<size_t>(flags.GetInt("probes"));
  MonteCarloLossEstimator est(*data, lopt);
  auto estimate = est.Estimate(sample->MaterializePoints(*data));
  std::printf("sample: %s, %zu points\n", sample->method.c_str(),
              sample->size());
  std::printf("median point-loss: 10^%.2f   mean: 10^%.2f\n",
              estimate.median_log10, estimate.mean_log10);
  std::printf("log-loss-ratio vs full data: %.3f (0 = perfect)\n",
              est.LogLossRatio(estimate));
  return 0;
}

int CmdInfo(FlagSet& flags, int argc, char** argv) {
  flags.Define("in", "data.csv", "input dataset");
  VAS_RETURN_IF_ERROR_INT(flags.Parse(argc, argv));
  auto data = LoadInput(flags.GetString("in"));
  if (!data.ok()) return Fail(data.status());
  Status valid = data->Validate();
  Rect b = data->Bounds();
  std::printf("tuples:  %s\n",
              FormatWithCommas(static_cast<int64_t>(data->size())).c_str());
  std::printf("bounds:  [%g, %g] x [%g, %g]\n", b.min_x, b.max_x, b.min_y,
              b.max_y);
  std::printf("values:  %s\n", data->has_values() ? "yes" : "no");
  std::printf("valid:   %s\n", valid.ok() ? "yes" : valid.ToString().c_str());
  std::printf("default kernel epsilon: %g\n",
              GaussianKernel::DefaultEpsilon(b));
  VizTimeModel tableau = VizTimeModel::Tableau();
  std::printf("est. full Tableau render: %.1f s\n",
              tableau.SecondsFor(data->size()));
  return 0;
}

int Main(int argc, char** argv) {
  if (argc < 2) {
    obs::Log(obs::LogLevel::kError, "missing command",
             obs::LogFields().Add(
                 "usage", std::string(argv[0]) +
                              " <generate|ingest|build-catalog|save-catalog|"
                              "load-catalog|catalog-info|"
                              "sample|render|loss|info|serve> [flags]"));
    return 1;
  }
  std::string cmd = argv[1];
  FlagSet flags;
  // Shift argv so subcommand flags parse from position 2.
  int sub_argc = argc - 1;
  char** sub_argv = argv + 1;
  if (cmd == "generate") return CmdGenerate(flags, sub_argc, sub_argv);
  if (cmd == "ingest") return CmdIngest(flags, sub_argc, sub_argv);
  if (cmd == "build-catalog") {
    return CmdBuildCatalog(flags, sub_argc, sub_argv);
  }
  if (cmd == "save-catalog") {
    return CmdSaveCatalog(flags, sub_argc, sub_argv);
  }
  if (cmd == "load-catalog") {
    return CmdLoadCatalog(flags, sub_argc, sub_argv);
  }
  if (cmd == "catalog-info") {
    return CmdCatalogInfo(flags, sub_argc, sub_argv);
  }
  if (cmd == "sample") return CmdSample(flags, sub_argc, sub_argv);
  if (cmd == "render") return CmdRender(flags, sub_argc, sub_argv);
  if (cmd == "loss") return CmdLoss(flags, sub_argc, sub_argv);
  if (cmd == "info") return CmdInfo(flags, sub_argc, sub_argv);
  if (cmd == "serve") return ServeMain(sub_argc, sub_argv);
  obs::Log(obs::LogLevel::kError, "unknown command",
           obs::LogFields().Add("command", cmd));
  return 1;
}

}  // namespace
}  // namespace vas::tool

int main(int argc, char** argv) { return vas::tool::Main(argc, argv); }
