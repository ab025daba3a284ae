// Engine substrate: column-store semantics, sample catalog selection,
// and the interactive session's time-budget behavior.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/interchange.h"
#include "data/generators.h"
#include "engine/sample_catalog.h"
#include "engine/session.h"
#include "engine/table.h"
#include "sampling/uniform_sampler.h"
#include "test_util.h"

namespace vas {
namespace {

using test::Skewed;

TEST(TableTest, AddAndReadColumns) {
  Table t("logs");
  ASSERT_TRUE(t.AddColumn("latency", {1.0, 2.0, 3.0}).ok());
  ASSERT_TRUE(t.AddColumn("hour", {0.0, 12.0, 23.0}).ok());
  EXPECT_EQ(t.num_rows(), 3u);
  EXPECT_EQ(t.num_columns(), 2u);
  auto col = t.Column("latency");
  ASSERT_TRUE(col.ok());
  EXPECT_EQ((**col)[1], 2.0);
  EXPECT_FALSE(t.Column("nope").ok());
  EXPECT_TRUE(t.HasColumn("hour"));
  EXPECT_EQ(t.ColumnNames(), (std::vector<std::string>{"latency", "hour"}));
}

TEST(TableTest, RejectsBadColumns) {
  Table t;
  ASSERT_TRUE(t.AddColumn("a", {1.0, 2.0}).ok());
  EXPECT_FALSE(t.AddColumn("a", {3.0, 4.0}).ok());   // duplicate
  EXPECT_FALSE(t.AddColumn("b", {1.0}).ok());        // length mismatch
}

TEST(TableTest, ScanAppliesConjunctivePredicates) {
  Table t;
  ASSERT_TRUE(t.AddColumn("x", {1, 2, 3, 4, 5}).ok());
  ASSERT_TRUE(t.AddColumn("y", {10, 20, 30, 40, 50}).ok());
  auto rows = t.Scan({{"x", 2, 4}, {"y", 0, 35}});
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(*rows, (std::vector<size_t>{1, 2}));
  auto none = t.Scan({{"x", 100, 200}});
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none->empty());
  EXPECT_FALSE(t.Scan({{"zzz", 0, 1}}).ok());
}

TEST(TableTest, ScanEmptyPredicateListReturnsAllRows) {
  Table t;
  ASSERT_TRUE(t.AddColumn("x", {1, 2, 3}).ok());
  auto rows = t.Scan({});
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 3u);
}

TEST(TableTest, ProjectAndFromDatasetRoundTrip) {
  Dataset d = Skewed(500);
  Table t = Table::FromDataset(d, "geo");
  EXPECT_EQ(t.num_rows(), 500u);
  auto back = t.Project("x", "y", "value");
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back->size(), d.size());
  for (size_t i = 0; i < d.size(); i += 37) {
    EXPECT_EQ(back->points[i], d.points[i]);
    EXPECT_EQ(back->values[i], d.values[i]);
  }
  EXPECT_FALSE(t.Project("x", "missing").ok());
}

TEST(SampleCatalogTest, BuildsLadderAndChooses) {
  Dataset d = Skewed(20000);
  UniformReservoirSampler sampler(1);
  SampleCatalog::Options opt;
  opt.ladder = {100, 1000, 5000};
  opt.embed_density = true;
  SampleCatalog catalog(d, sampler, opt);
  ASSERT_EQ(catalog.samples().size(), 3u);
  EXPECT_EQ(catalog.samples()[0].size(), 100u);
  EXPECT_TRUE(catalog.samples()[0].has_density());
}

TEST(SampleCatalogTest, LadderClampsToDatasetSize) {
  Dataset d = Skewed(500);
  UniformReservoirSampler sampler(1);
  SampleCatalog::Options opt;
  opt.ladder = {100, 1000, 100000};  // both big rungs clamp to 500
  opt.embed_density = false;
  SampleCatalog catalog(d, sampler, opt);
  ASSERT_EQ(catalog.samples().size(), 2u);  // 100 and 500, deduplicated
  EXPECT_EQ(catalog.samples()[1].size(), 500u);
}

TEST(SampleCatalogTest, TimeBudgetSelection) {
  Dataset d = Skewed(20000);
  UniformReservoirSampler sampler(1);
  SampleCatalog::Options opt;
  opt.ladder = {100, 1000, 10000};
  opt.embed_density = false;
  SampleCatalog catalog(d, sampler, opt);
  VizTimeModel model{1e-3, 0.0};  // 1 ms per point, easy mental math
  EXPECT_EQ(catalog.ChooseForTimeBudget(2.0, model).size(), 1000u);
  EXPECT_EQ(catalog.ChooseForTimeBudget(15.0, model).size(), 10000u);
  EXPECT_EQ(catalog.ChooseForTimeBudget(0.01, model).size(), 100u);
}

TEST(InteractiveSessionTest, ServesViewportFilteredSample) {
  Dataset d = Skewed(30000);
  InterchangeSampler vas_sampler;
  SampleCatalog::Options copt;
  copt.ladder = {200, 2000};
  auto catalog = std::make_unique<SampleCatalog>(d, vas_sampler, copt);
  const SampleSet top = catalog->samples().back();
  VizTimeModel model = VizTimeModel::Tableau();
  InteractiveSession session(d, std::move(catalog), model);

  InteractiveSession::PlotRequest req;
  req.time_budget_seconds = 100.0;  // everything fits
  auto result = session.RequestPlot(req);
  EXPECT_EQ(result.catalog_sample_size, 2000u);
  EXPECT_EQ(result.sample_points_in_viewport, 2000u);
  EXPECT_GT(result.estimated_full_viz_seconds,
            result.estimated_viz_seconds);

  // Zoomed request: only the rung's tuples inside the viewport count.
  Rect bounds = session.dataset().Bounds();
  Rect zoom = Rect::Of(bounds.min_x, bounds.min_y,
                       bounds.Center().x, bounds.Center().y);
  req.viewport = zoom;
  auto zoomed = session.RequestPlot(req);
  EXPECT_LT(zoomed.sample_points_in_viewport,
            result.sample_points_in_viewport);
  size_t inside = 0;
  for (size_t id : top.ids) inside += zoom.Contains(d.points[id]) ? 1 : 0;
  EXPECT_EQ(zoomed.sample_points_in_viewport, inside);
  EXPECT_DOUBLE_EQ(zoomed.estimated_viz_seconds, model.SecondsFor(inside));
}

TEST(InteractiveSessionTest, ViewportCountMatchesBruteForceRescan) {
  // full_matches is now answered from the session's count grid instead
  // of an O(n) rescan per plot; the grid-backed count must stay exact.
  Dataset d = Skewed(8000);
  UniformReservoirSampler sampler(2);
  SampleCatalog::Options copt;
  copt.ladder = {200};
  copt.embed_density = false;
  auto catalog = std::make_unique<SampleCatalog>(d, sampler, copt);
  Dataset copy = d;  // session takes ownership; keep one for counting
  InteractiveSession session(std::move(copy), std::move(catalog),
                             VizTimeModel{1.0, 0.0});  // 1 s per point
  Rect b = d.Bounds();
  const Rect viewports[] = {
      Rect::Of(b.min_x, b.min_y, b.Center().x, b.Center().y),
      Rect::Of(b.Center().x, b.Center().y, b.max_x, b.max_y),
      Rect::Of(b.min_x - 100, b.min_y - 100, b.min_x - 1, b.min_y - 1),
      b.Inflated(10.0),
      // Far enough out that an integer cast of the scaled coordinate
      // would overflow; the grid must still clamp to its border cells.
      Rect::Of(b.Center().x, b.Center().y, 1e20, 1e20),
      Rect::Of(-1e300, -1e300, b.Center().x, b.Center().y),
  };
  for (const Rect& viewport : viewports) {
    InteractiveSession::PlotRequest req;
    req.viewport = viewport;
    size_t brute = 0;
    for (const Point& p : d.points) {
      if (viewport.Contains(p)) ++brute;
    }
    auto plot = session.RequestPlot(req);
    // per_point_seconds = 1, overhead = 0: the estimate IS the count.
    EXPECT_DOUBLE_EQ(plot.estimated_full_viz_seconds,
                     static_cast<double>(brute));
  }
}

TEST(InteractiveSessionTest, EmptyViewportIntersection) {
  Dataset d = Skewed(2000);
  UniformReservoirSampler sampler(1);
  SampleCatalog::Options copt;
  copt.ladder = {100};
  copt.embed_density = false;
  auto catalog = std::make_unique<SampleCatalog>(d, sampler, copt);
  InteractiveSession session(d, std::move(catalog), VizTimeModel::MathGL());
  InteractiveSession::PlotRequest req;
  // A viewport far outside the data: zero tuples, zero estimated time
  // above overhead, and no crash.
  req.viewport = Rect::Of(1e6, 1e6, 2e6, 2e6);
  auto plot = session.RequestPlot(req);
  EXPECT_EQ(plot.sample_points_in_viewport, 0u);
  EXPECT_DOUBLE_EQ(plot.estimated_full_viz_seconds,
                   VizTimeModel::MathGL().SecondsFor(0));
}

TEST(InteractiveSessionTest, RungsWithAndWithoutLayoutsCountAlike) {
  // A rung published with a cell layout is counted from its cells; one
  // wrapped without a layout is scanned. Both give the brute-force
  // count over the rung's ids.
  Dataset d = Skewed(5000);
  InterchangeSampler vas_sampler;
  SampleCatalog::Options copt;
  copt.ladder = {400};
  auto laid_out = std::make_unique<SampleCatalog>(d, vas_sampler, copt);
  ASSERT_NE(laid_out->layout(0), nullptr);
  const SampleSet rung = laid_out->samples()[0];
  auto bare = std::make_unique<SampleCatalog>(std::vector<SampleSet>{rung});
  ASSERT_EQ(bare->layout(0), nullptr);
  InteractiveSession cells(d, std::move(laid_out), VizTimeModel::Tableau());
  InteractiveSession scan(d, std::move(bare), VizTimeModel::Tableau());
  Rect b = cells.dataset().Bounds();
  InteractiveSession::PlotRequest req;
  req.time_budget_seconds = 1e9;
  for (const Rect& viewport :
       {Rect::Of(b.min_x, b.min_y, b.Center().x, b.Center().y),
        Rect::Of(b.Center().x, b.min_y, b.max_x, b.Center().y),
        Rect::Of(b.min_x, b.min_y, b.max_x, b.max_y)}) {
    req.viewport = viewport;
    size_t inside = 0;
    for (size_t id : rung.ids) inside += viewport.Contains(d.points[id]) ? 1 : 0;
    EXPECT_EQ(cells.RequestPlot(req).sample_points_in_viewport, inside);
    EXPECT_EQ(scan.RequestPlot(req).sample_points_in_viewport, inside);
  }
}

TEST(InteractiveSessionTest, TightBudgetPicksSmallSample) {
  Dataset d = Skewed(10000);
  UniformReservoirSampler sampler(1);
  SampleCatalog::Options copt;
  copt.ladder = {100, 5000};
  copt.embed_density = false;
  auto catalog = std::make_unique<SampleCatalog>(d, sampler, copt);
  // 1 ms/point: 5000 points = 5 s > 2 s budget; 100 points = 0.1 s.
  InteractiveSession session(d, std::move(catalog), VizTimeModel{1e-3, 0.0});
  InteractiveSession::PlotRequest req;
  req.time_budget_seconds = 2.0;
  auto result = session.RequestPlot(req);
  EXPECT_EQ(result.catalog_sample_size, 100u);
  EXPECT_LE(result.estimated_viz_seconds, 2.0);
}

}  // namespace
}  // namespace vas
