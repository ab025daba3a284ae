// Interactive-dashboard scenario (paper §II architecture, Figure 3):
// a BI tool explores a big table through the sample catalog. The session
// converts each latency budget into a sample size, counts the sampled
// tuples inside the viewport, and reports what rendering the full
// result would have cost instead.
//
// Simulates an analyst's zooming session: overview -> zoom -> deeper
// zoom, under interactive (0.5 s), relaxed (2 s), and batch (120 s)
// budgets.
#include <cstdio>
#include <memory>

#include "core/vas.h"
#include "engine/sample_catalog.h"
#include "engine/session.h"
#include "engine/table.h"
#include "render/scatter_renderer.h"
#include "util/flags.h"

int main(int argc, char** argv) {
  vas::FlagSet flags;
  flags.Define("n", "500000", "table rows");
  if (!flags.Parse(argc, argv).ok() || flags.help_requested()) {
    std::printf("%s", flags.Usage(argv[0]).c_str());
    return 1;
  }
  size_t n = static_cast<size_t>(flags.GetInt("n"));

  // The "RDBMS": a three-column table the visualization tool targets.
  vas::GeolifeLikeGenerator::Options gen;
  gen.num_points = n;
  vas::Dataset data = vas::GeolifeLikeGenerator(gen).Generate();
  vas::Table table = vas::Table::FromDataset(data, "gps_log");
  std::printf("table '%s': %zu rows, columns:", table.name().c_str(),
              table.num_rows());
  for (const auto& c : table.ColumnNames()) std::printf(" %s", c.c_str());
  std::printf("\n\n");

  // Offline step: build the VAS sample catalog on the (x, y) pair.
  auto plotted = table.Project("x", "y", "value");
  if (!plotted.ok()) {
    std::fprintf(stderr, "%s\n", plotted.status().ToString().c_str());
    return 1;
  }
  vas::InterchangeSampler::Options vopt;
  vopt.max_passes = 1;  // offline build kept quick for the demo
  vas::InterchangeSampler sampler(vopt);
  vas::SampleCatalog::Options copt;
  copt.ladder = {500, 5000, 50000};
  auto catalog = std::make_unique<vas::SampleCatalog>(*plotted, sampler,
                                                      copt);
  std::printf("catalog rungs:");
  for (const auto& s : catalog->samples()) std::printf(" %zu", s.size());
  std::printf("  (built offline, like any index)\n\n");

  vas::InteractiveSession session(std::move(*plotted), std::move(catalog),
                                  vas::VizTimeModel::Tableau());

  // The analyst's exploration: three viewports x three budgets.
  vas::Rect full;  // empty = whole domain
  vas::Rect bounds = session.dataset().Bounds();
  vas::Rect city = vas::Rect::Of(
      bounds.min_x + bounds.width() * 0.35,
      bounds.min_y + bounds.height() * 0.35,
      bounds.min_x + bounds.width() * 0.65,
      bounds.min_y + bounds.height() * 0.65);
  vas::Rect block = vas::Rect::Of(
      bounds.min_x + bounds.width() * 0.45,
      bounds.min_y + bounds.height() * 0.45,
      bounds.min_x + bounds.width() * 0.55,
      bounds.min_y + bounds.height() * 0.55);
  struct View {
    const char* name;
    vas::Rect rect;
  } views[] = {{"overview", full}, {"city zoom", city}, {"block zoom",
                                                         block}};

  std::printf("%-12s %8s %12s %12s %14s %14s\n", "view", "budget",
              "sample k", "tuples", "est viz (s)", "full viz (s)");
  for (const View& view : views) {
    for (double budget : {0.5, 2.0, 120.0}) {
      vas::InteractiveSession::PlotRequest req;
      req.viewport = view.rect;
      req.time_budget_seconds = budget;
      auto plot = session.RequestPlot(req);
      std::printf("%-12s %7.1fs %12zu %12zu %14.2f %14.1f\n", view.name,
                  budget, plot.catalog_sample_size,
                  plot.sample_points_in_viewport,
                  plot.estimated_viz_seconds,
                  plot.estimated_full_viz_seconds);
    }
  }
  std::printf(
      "\nEvery request stayed within its latency budget; the unsampled\n"
      "plot would have cost the 'full viz' column every single time the\n"
      "analyst moved the viewport.\n");
  return 0;
}
