// Cross-module integration: the full paper pipeline — generate data,
// build samples with all methods, embed density, score loss, render,
// and check the paper's headline orderings end to end.
#include <gtest/gtest.h>

#include "core/vas.h"
#include "engine/sample_catalog.h"
#include "engine/session.h"
#include "eval/spearman.h"
#include "eval/tasks.h"
#include "render/scatter_renderer.h"
#include "test_util.h"

namespace vas {
namespace {

class PipelineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dataset_ = new Dataset(test::Skewed(40000));
  }
  static void TearDownTestSuite() {
    delete dataset_;
    dataset_ = nullptr;
  }
  static Dataset* dataset_;
};

Dataset* PipelineTest::dataset_ = nullptr;

TEST_F(PipelineTest, AllMethodsProduceLadderOfSamples) {
  const Dataset& d = *dataset_;
  UniformReservoirSampler uniform(1);
  StratifiedSampler stratified;
  InterchangeSampler vas_sampler;
  std::vector<Sampler*> samplers = {&uniform, &stratified, &vas_sampler};
  for (Sampler* s : samplers) {
    for (size_t k : {100u, 1000u}) {
      SampleSet sample = s->Sample(d, k);
      ASSERT_EQ(sample.size(), k) << s->name();
      SampleSet dense = WithDensity(d, sample);
      uint64_t total = 0;
      for (uint64_t c : dense.density) total += c;
      EXPECT_EQ(total, d.size()) << s->name();
    }
  }
}

TEST_F(PipelineTest, VasLossOrderingHoldsAcrossSizes) {
  // Figure 8's ordering at every rung of the ladder.
  const Dataset& d = *dataset_;
  MonteCarloLossEstimator::Options lopt;
  lopt.num_probes = 400;
  MonteCarloLossEstimator est(d, lopt);
  UniformReservoirSampler uniform(3);
  InterchangeSampler vas_sampler;
  for (size_t k : {200u, 1000u}) {
    double vas_ratio =
        est.LogLossRatioOf(vas_sampler.Sample(d, k).MaterializePoints(d));
    double uni_ratio =
        est.LogLossRatioOf(uniform.Sample(d, k).MaterializePoints(d));
    EXPECT_LT(vas_ratio, uni_ratio) << "k=" << k;
  }
}

TEST_F(PipelineTest, VasNeedsFewerPointsForEqualQuality) {
  // The "up to 400x fewer points" direction: VAS at k matches or beats
  // uniform at 10k.
  const Dataset& d = *dataset_;
  MonteCarloLossEstimator::Options lopt;
  lopt.num_probes = 400;
  MonteCarloLossEstimator est(d, lopt);
  UniformReservoirSampler uniform(3);
  InterchangeSampler vas_sampler;
  double vas_small =
      est.LogLossRatioOf(vas_sampler.Sample(d, 300).MaterializePoints(d));
  double uni_large =
      est.LogLossRatioOf(uniform.Sample(d, 3000).MaterializePoints(d));
  EXPECT_LT(vas_small, uni_large);
}

TEST_F(PipelineTest, ZoomRetention) {
  // Figure 1's qualitative claim, made quantitative: in a zoomed-in
  // sparse region, VAS retains more occupied pixels than uniform.
  const Dataset& d = *dataset_;
  const size_t k = 1000;
  UniformReservoirSampler uniform(3);
  InterchangeSampler vas_sampler;
  SampleSet u = uniform.Sample(d, k);
  SampleSet v = vas_sampler.Sample(d, k);

  ScatterRenderer renderer;
  Viewport overview(d.Bounds(), 256, 256);
  // Zoom into a low-density corner region (the paper zooms into
  // outskirts where uniform sampling starves).
  Rect b = d.Bounds();
  Rect corner = Rect::Of(b.min_x, b.min_y, b.min_x + b.width() / 4,
                         b.min_y + b.height() / 4);
  size_t vas_pts = 0, uni_pts = 0;
  for (size_t id : v.ids) {
    if (corner.Contains(d.points[id])) ++vas_pts;
  }
  for (size_t id : u.ids) {
    if (corner.Contains(d.points[id])) ++uni_pts;
  }
  EXPECT_GE(vas_pts, uni_pts);
  // Both must still draw a sane overview.
  Image ov = renderer.RenderSample(d, v, overview);
  EXPECT_GT(ov.InkFraction(renderer.options().background), 0.001);
}

TEST_F(PipelineTest, EndToEndSessionWithVasCatalog) {
  const Dataset& d = *dataset_;
  InterchangeSampler vas_sampler;
  SampleCatalog::Options copt;
  copt.ladder = {100, 1000, 10000};
  auto catalog = std::make_unique<SampleCatalog>(d, vas_sampler, copt);
  const VizTimeModel model = VizTimeModel::Tableau();
  const double budget = 0.5;  // strict interactivity
  const SampleSet chosen = catalog->ChooseForTimeBudget(budget, model);
  InteractiveSession session(d, std::move(catalog), model);
  InteractiveSession::PlotRequest req;
  req.time_budget_seconds = budget;
  auto plot = session.RequestPlot(req);
  EXPECT_LE(plot.estimated_viz_seconds, budget + 1e-9);
  EXPECT_EQ(plot.catalog_sample_size, chosen.size());
  EXPECT_EQ(plot.sample_points_in_viewport, chosen.size());
  EXPECT_GT(plot.sample_points_in_viewport, 0u);
  // Render the chosen rung with density-driven dot sizes.
  ASSERT_TRUE(chosen.has_density());
  ScatterRenderer renderer;
  Image img =
      renderer.RenderSample(d, chosen, Viewport(d.Bounds(), 128, 128));
  EXPECT_GT(img.InkFraction(renderer.options().background), 0.0);
}

TEST_F(PipelineTest, LossCorrelatesWithRegressionSuccess) {
  // Figure 7 in miniature: across methods and sizes, lower loss should
  // track higher simulated-user success (negative Spearman).
  const Dataset& d = *dataset_;
  MonteCarloLossEstimator::Options lopt;
  lopt.num_probes = 300;
  MonteCarloLossEstimator est(d, lopt);
  RegressionStudy::Options ropt;
  ropt.num_questions = 12;
  ropt.num_users = 10;
  RegressionStudy study(d, ropt);

  UniformReservoirSampler uniform(3);
  StratifiedSampler stratified;
  InterchangeSampler vas_sampler;
  std::vector<Sampler*> samplers = {&uniform, &stratified, &vas_sampler};

  std::vector<double> losses, successes;
  for (Sampler* s : samplers) {
    for (size_t k : {100u, 1000u, 5000u}) {
      SampleSet sample = s->Sample(d, k);
      losses.push_back(est.LogLossRatioOf(sample.MaterializePoints(d)));
      successes.push_back(study.Evaluate(d, sample));
    }
  }
  EXPECT_LT(SpearmanCorrelation(losses, successes), -0.4);
}

}  // namespace
}  // namespace vas
