// Density embedding (paper §V): counts are a partition of the dataset by
// nearest sample point.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <numeric>
#include <string>

#include "core/density.h"
#include "core/interchange.h"
#include "data/generators.h"
#include "kdtree_reference.h"
#include "sampling/stratified_sampler.h"
#include "sampling/uniform_sampler.h"
#include "test_util.h"

namespace vas {
namespace {

using test::Skewed;

TEST(DensityTest, CountsSumToDatasetSize) {
  Dataset d = Skewed(5000);
  UniformReservoirSampler sampler(1);
  SampleSet s = sampler.Sample(d, 100);
  EmbedDensity(d, &s);
  ASSERT_EQ(s.density.size(), s.ids.size());
  uint64_t total = std::accumulate(s.density.begin(), s.density.end(),
                                   uint64_t{0});
  EXPECT_EQ(total, d.size());
}

TEST(DensityTest, NearestAssignmentMatchesBruteForce) {
  Dataset d = GenerateUniform(Rect::Of(0, 0, 5, 5), 800, 3);
  UniformReservoirSampler sampler(2);
  SampleSet s = sampler.Sample(d, 25);
  EmbedDensity(d, &s);

  std::vector<Point> sample_pts = s.MaterializePoints(d);
  std::vector<uint64_t> brute(s.size(), 0);
  for (const Point& p : d.points) {
    size_t best = 0;
    for (size_t i = 1; i < sample_pts.size(); ++i) {
      if (SquaredDistance(sample_pts[i], p) <
          SquaredDistance(sample_pts[best], p)) {
        best = i;
      }
    }
    ++brute[best];
  }
  EXPECT_EQ(s.density, brute);
}

Dataset FromPoints(const std::vector<Point>& points) {
  Dataset d;
  for (Point p : points) d.Add(p, 0.0);
  return d;
}

TEST(DensityTest, MatchesReferenceOnTiesAndDuplicates) {
  // Each tuple must land on the sample point the reference search picks,
  // ties included, whatever order the tuples are visited in.
  std::vector<test::TieInput> inputs = test::TieInputs();
  inputs.push_back({"geolife", Skewed(50000).points});
  for (const test::TieInput& input : inputs) {
    Dataset d = FromPoints(input.points);
    StratifiedSampler stratified;
    UniformReservoirSampler uniform(5);
    for (Sampler* sampler : {static_cast<Sampler*>(&stratified),
                             static_cast<Sampler*>(&uniform)}) {
      for (size_t k : {size_t{10}, size_t{1000}, size_t{10000}}) {
        SCOPED_TRACE(input.name + " " + sampler->name() +
                     " k=" + std::to_string(k));
        SampleSet s = sampler->Sample(d, k);
        EmbedDensity(d, &s);
        EXPECT_EQ(s.density,
                  test::ReferenceDensity(d, s.MaterializePoints(d)));
      }
    }
  }
}

TEST(DensityTest, DegenerateBoundsMatchReference) {
  // Zero-width bounds (every tuple the same point) and bounds whose
  // width overflows to infinity still count every tuple once, at the
  // reference's point.
  Dataset same = FromPoints(std::vector<Point>(1000, Point{3.0, -2.0}));
  SampleSet s;
  s.ids = {3, 500, 999};
  EmbedDensity(same, &s);
  EXPECT_EQ(s.density,
            test::ReferenceDensity(same, s.MaterializePoints(same)));

  Dataset wide = FromPoints({{-1e308, 0.0},
                             {1e308, 0.0},
                             {0.0, 1e308},
                             {0.0, -1e308},
                             {0.0, 0.0},
                             {1e308, 0.0},
                             {0.0, 0.0},
                             {1.0, 1.0}});
  s.ids.resize(wide.size());
  std::iota(s.ids.begin(), s.ids.end(), size_t{0});
  EmbedDensity(wide, &s);
  EXPECT_EQ(s.density,
            test::ReferenceDensity(wide, s.MaterializePoints(wide)));
  EXPECT_EQ(std::accumulate(s.density.begin(), s.density.end(), uint64_t{0}),
            wide.size());
}

TEST(DensityTest, NonFiniteTupleFailsItsCheckNotACast) {
  // A NaN or infinite tuple has no nearest point, so the pass stops at
  // its check. Its grid cell must clamp on the way there: under UBSan an
  // unclamped cast of NaN would stop it with a different message.
  const double inf = std::numeric_limits<double>::infinity();
  for (Point bad : {Point{std::nan(""), 0.5}, Point{inf, 0.5},
                    Point{0.5, -inf}}) {
    Dataset d = FromPoints({{0.0, 0.0}, bad, {1.0, 1.0}});
    SampleSet s;
    s.ids = {0, 2};
    EXPECT_DEATH(EmbedDensity(d, &s), "check failed: nearest != ")
        << bad.x << ", " << bad.y;
    // Only bad tuples: for a NaN, the bounds are empty.
    Dataset only_bad = FromPoints({bad, bad});
    s.ids = {0};
    EXPECT_DEATH(EmbedDensity(only_bad, &s), "check failed: nearest != ")
        << bad.x << ", " << bad.y;
  }
}

TEST(DensityTest, DenseRegionsGetBigCounts) {
  // 90% of the mass in one tight clump: the sample point nearest the
  // clump must carry a dominant count.
  Dataset d;
  Rng rng(9);
  for (int i = 0; i < 9000; ++i) {
    d.Add({rng.Gaussian(1.0, 0.05), rng.Gaussian(1.0, 0.05)}, 0.0);
  }
  for (int i = 0; i < 1000; ++i) {
    d.Add({rng.Uniform(0, 10), rng.Uniform(0, 10)}, 0.0);
  }
  InterchangeSampler sampler;
  SampleSet s = sampler.Sample(d, 50);
  EmbedDensity(d, &s);
  uint64_t max_count = *std::max_element(s.density.begin(), s.density.end());
  EXPECT_GT(max_count, d.size() / 20);
}

TEST(DensityTest, SingleSamplePointTakesAll) {
  Dataset d = GenerateUniform(Rect::Of(0, 0, 1, 1), 100, 1);
  SampleSet s;
  s.ids = {42};
  EmbedDensity(d, &s);
  ASSERT_EQ(s.density.size(), 1u);
  EXPECT_EQ(s.density[0], 100u);
}

TEST(DensityTest, EmptySampleIsNoOp) {
  Dataset d = GenerateUniform(Rect::Of(0, 0, 1, 1), 10, 1);
  SampleSet s;
  EmbedDensity(d, &s);
  EXPECT_TRUE(s.density.empty());
}

TEST(DensityTest, WithDensityRenamesMethod) {
  Dataset d = GenerateUniform(Rect::Of(0, 0, 1, 1), 200, 1);
  UniformReservoirSampler sampler(1);
  SampleSet s = WithDensity(d, sampler.Sample(d, 10));
  EXPECT_EQ(s.method, "uniform+density");
  EXPECT_TRUE(s.has_density());
}

TEST(DensityTest, DensityWeightsMirrorEmbeddedCounts) {
  Dataset d = Skewed(1000);
  UniformReservoirSampler sampler(7);
  SampleSet plain = sampler.Sample(d, 40);
  EXPECT_TRUE(DensityWeights(plain).empty())
      << "no embedded density means weight 1 per point";
  SampleSet dense = WithDensity(d, plain);
  EXPECT_EQ(DensityWeights(dense), dense.density);
}

}  // namespace
}  // namespace vas
