// Renderer substrate: viewport math, rasterization, density-scaled dots,
// colormaps, and the calibrated external-system cost models.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <limits>

#include "data/generators.h"
#include "render/scatter_renderer.h"
#include "render_reference.h"
#include "sampling/uniform_sampler.h"
#include "test_util.h"

namespace vas {
namespace {

TEST(ViewportTest, CornersMapToCorners) {
  Viewport vp(Rect::Of(0, 0, 10, 10), 100, 100);
  auto [x0, y0] = vp.ToPixel({0, 0});
  EXPECT_EQ(x0, 0);
  EXPECT_EQ(y0, 100);  // min y plots at the bottom
  auto [x1, y1] = vp.ToPixel({10, 10});
  EXPECT_EQ(x1, 100);
  EXPECT_EQ(y1, 0);
  auto [xm, ym] = vp.ToPixel({5, 5});
  EXPECT_EQ(xm, 50);
  EXPECT_EQ(ym, 50);
}

TEST(ViewportTest, ZoomedInShrinksWorld) {
  Viewport vp(Rect::Of(0, 0, 10, 10), 100, 100);
  Viewport zoom = vp.ZoomedIn({5, 5}, 4.0);
  EXPECT_NEAR(zoom.world().width(), 2.5, 1e-12);
  EXPECT_NEAR(zoom.world().height(), 2.5, 1e-12);
  EXPECT_TRUE(zoom.world().Contains({5, 5}));
}

TEST(ViewportTest, ZoomNearEdgeSlidesInside) {
  Viewport vp(Rect::Of(0, 0, 10, 10), 100, 100);
  Viewport zoom = vp.ZoomedIn({0.1, 0.1}, 5.0);
  EXPECT_GE(zoom.world().min_x, 0.0);
  EXPECT_GE(zoom.world().min_y, 0.0);
  EXPECT_NEAR(zoom.world().width(), 2.0, 1e-12);
}

TEST(ImageTest, SetGetAndClipping) {
  Image img(10, 5, {0, 0, 0});
  img.Set(3, 2, {255, 0, 0});
  EXPECT_EQ(img.Get(3, 2), (Rgb{255, 0, 0}));
  img.SetClipped(-1, 0, {1, 1, 1});    // ignored
  img.SetClipped(10, 0, {1, 1, 1});    // ignored
  img.SetClipped(0, 5, {1, 1, 1});     // ignored
  EXPECT_EQ(img.Get(0, 0), (Rgb{0, 0, 0}));
  EXPECT_NEAR(img.InkFraction({0, 0, 0}), 1.0 / 50.0, 1e-12);
}

TEST(ImageTest, WritesValidPpm) {
  Image img(4, 3);
  img.Set(0, 0, {10, 20, 30});
  std::string path =
      std::filesystem::temp_directory_path() / "vas_render_test.ppm";
  ASSERT_TRUE(img.WritePpm(path).ok());
  std::ifstream in(path, std::ios::binary);
  std::string header;
  in >> header;
  EXPECT_EQ(header, "P6");
  size_t w, h, maxval;
  in >> w >> h >> maxval;
  EXPECT_EQ(w, 4u);
  EXPECT_EQ(h, 3u);
  EXPECT_EQ(maxval, 255u);
  std::filesystem::remove(path);
}

TEST(ColormapTest, EndpointsAndMonotonicity) {
  Rgb lo = MapColor(ColormapKind::kViridis, 0.0);
  Rgb hi = MapColor(ColormapKind::kViridis, 1.0);
  EXPECT_EQ(lo, (Rgb{68, 1, 84}));
  EXPECT_EQ(hi, (Rgb{253, 231, 37}));
  // Clamping.
  EXPECT_EQ(MapColor(ColormapKind::kViridis, -5.0), lo);
  EXPECT_EQ(MapColor(ColormapKind::kViridis, 5.0), hi);
  // Grayscale is monotone in every channel.
  for (double t = 0.1; t <= 1.0; t += 0.1) {
    EXPECT_GE(MapColor(ColormapKind::kGrayscale, t).r,
              MapColor(ColormapKind::kGrayscale, t - 0.1).r);
  }
}

TEST(ColormapTest, NormalizeValue) {
  EXPECT_DOUBLE_EQ(NormalizeValue(5.0, 0.0, 10.0), 0.5);
  EXPECT_DOUBLE_EQ(NormalizeValue(-1.0, 0.0, 10.0), 0.0);
  EXPECT_DOUBLE_EQ(NormalizeValue(11.0, 0.0, 10.0), 1.0);
  EXPECT_DOUBLE_EQ(NormalizeValue(3.0, 7.0, 7.0), 0.5);  // degenerate
}

TEST(RendererTest, PointsLandWherePredicted) {
  Dataset d;
  d.Add({2.5, 2.5}, 0.0);
  ScatterRenderer::Options opt;
  opt.width_px = 100;
  opt.height_px = 100;
  opt.dot_radius_px = 0.0;
  ScatterRenderer renderer(opt);
  Viewport vp(Rect::Of(0, 0, 10, 10), 100, 100);
  Image img = renderer.Render(d, vp);
  EXPECT_FALSE(img.Get(25, 75) == opt.background);
  EXPECT_GT(img.InkFraction(opt.background), 0.0);
}

TEST(RendererTest, OutOfViewportPointsAreSkipped) {
  Dataset d;
  d.Add({100.0, 100.0}, 0.0);
  ScatterRenderer renderer;
  Viewport vp(Rect::Of(0, 0, 10, 10), 64, 64);
  Image img = renderer.Render(d, vp);
  EXPECT_DOUBLE_EQ(img.InkFraction(renderer.options().background), 0.0);
}

TEST(RendererTest, DensityScalesDotSize) {
  Dataset d;
  d.Add({3.0, 5.0}, 0.0);
  d.Add({7.0, 5.0}, 0.0);
  SampleSet s;
  s.ids = {0, 1};
  s.density = {1, 10000};
  ScatterRenderer::Options opt;
  opt.width_px = 200;
  opt.height_px = 200;
  opt.dot_radius_px = 1.0;
  ScatterRenderer renderer(opt);
  Viewport vp(Rect::Of(0, 0, 10, 10), 200, 200);
  Image img = renderer.RenderSample(d, s, vp);
  // Count ink in each half: the heavy point must draw a larger dot.
  size_t left = 0, right = 0;
  for (size_t y = 0; y < 200; ++y) {
    for (size_t x = 0; x < 200; ++x) {
      if (!(img.Get(x, y) == opt.background)) {
        (x < 100 ? left : right) += 1;
      }
    }
  }
  EXPECT_GT(right, 3 * left);
  EXPECT_GT(left, 0u);
}

TEST(RendererTest, JitterAddsInkProportionalToDensity) {
  // §V jitter presentation: a heavy sample point must spawn more
  // companion dots than a light one.
  Dataset d;
  d.Add({3.0, 5.0}, 0.0);
  d.Add({7.0, 5.0}, 0.0);
  SampleSet s;
  s.ids = {0, 1};
  s.density = {1, 100000};
  ScatterRenderer::Options opt;
  opt.width_px = 200;
  opt.height_px = 200;
  opt.dot_radius_px = 0.0;
  ScatterRenderer renderer(opt);
  Viewport vp(Rect::Of(0, 0, 10, 10), 200, 200);
  Image img = renderer.RenderSampleJittered(d, s, vp);
  size_t left = 0, right = 0;
  for (size_t y = 0; y < 200; ++y) {
    for (size_t x = 0; x < 200; ++x) {
      if (!(img.Get(x, y) == opt.background)) {
        (x < 100 ? left : right) += 1;
      }
    }
  }
  EXPECT_GE(left, 1u);           // the light point still draws itself
  EXPECT_GT(right, left + 5);    // ~5 decades -> ~20 companions
}

TEST(RendererTest, JitterIsDeterministicInSeed) {
  Dataset d;
  d.Add({5.0, 5.0}, 0.0);
  SampleSet s;
  s.ids = {0};
  s.density = {5000};
  ScatterRenderer renderer;
  Viewport vp(Rect::Of(0, 0, 10, 10), 128, 128);
  Image a = renderer.RenderSampleJittered(d, s, vp, 7);
  Image b = renderer.RenderSampleJittered(d, s, vp, 7);
  Image c = renderer.RenderSampleJittered(d, s, vp, 8);
  size_t same_ab = 0, same_ac = 0, total = 128 * 128;
  for (size_t y = 0; y < 128; ++y) {
    for (size_t x = 0; x < 128; ++x) {
      if (a.Get(x, y) == b.Get(x, y)) ++same_ab;
      if (a.Get(x, y) == c.Get(x, y)) ++same_ac;
    }
  }
  EXPECT_EQ(same_ab, total);
  EXPECT_LT(same_ac, total);  // different seed, different jitter
}

TEST(RendererTest, JitterWithoutDensityEqualsPlainDots) {
  Dataset d;
  d.Add({5.0, 5.0}, 0.0);
  SampleSet s;
  s.ids = {0};  // no density column
  ScatterRenderer renderer;
  Viewport vp(Rect::Of(0, 0, 10, 10), 64, 64);
  Image img = renderer.RenderSampleJittered(d, s, vp);
  // Exactly one dot's worth of ink (radius 1 -> up to ~5 px).
  double ink = img.InkFraction(renderer.options().background);
  EXPECT_GT(ink, 0.0);
  EXPECT_LT(ink, 10.0 / (64.0 * 64.0));
}

TEST(RendererTest, RenderCountsAccumulates) {
  ScatterRenderer::Options opt;
  opt.width_px = 10;
  opt.height_px = 10;
  ScatterRenderer renderer(opt);
  Viewport vp(Rect::Of(0, 0, 10, 10), 10, 10);
  std::vector<Point> pts = {{0.5, 9.5}, {0.5, 9.5}, {5.5, 4.5}};
  auto counts = renderer.RenderCounts(pts, {}, vp);
  // (0.5, 9.5) -> pixel (0, 0); appears twice.
  EXPECT_EQ(counts[0], 2u);
  // Weighted variant.
  auto weighted = renderer.RenderCounts(pts, {7, 1, 2}, vp);
  EXPECT_EQ(weighted[0], 8u);
}

TEST(VizTimeModelTest, CalibratedAgainstPaperFigure2) {
  VizTimeModel tableau = VizTimeModel::Tableau();
  // ~4 minutes at 50M points.
  EXPECT_NEAR(tableau.SecondsFor(50'000'000), 240.0, 60.0);
  // Over the 2 s interactive limit at 1M points (paper: >2 s at 1M).
  EXPECT_GT(tableau.SecondsFor(1'000'000), 2.0);
  VizTimeModel mathgl = VizTimeModel::MathGL();
  EXPECT_GT(mathgl.SecondsFor(1'000'000), 2.0);
  EXPECT_LT(mathgl.SecondsFor(1'000'000), tableau.SecondsFor(1'000'000));
  // Linear: doubling points roughly doubles cost.
  EXPECT_NEAR(tableau.SecondsFor(20'000'000) / tableau.SecondsFor(10'000'000),
              2.0, 0.1);
}

// --- Identity with the per-point reference. RenderSample's two-phase
// (vectorized) pipeline must be pixel-identical to the scalar loop in
// render_reference.h on any input; the tile cache's byte-identity
// contract depends on it.

void ExpectPixelIdentical(const Image& a, const Image& b) {
  ASSERT_EQ(a.width(), b.width());
  ASSERT_EQ(a.height(), b.height());
  for (size_t y = 0; y < a.height(); ++y) {
    for (size_t x = 0; x < a.width(); ++x) {
      ASSERT_EQ(a.Get(x, y), b.Get(x, y)) << "(" << x << "," << y << ")";
    }
  }
}

void ExpectPipelinesAgree(ScatterRenderer::Options opt, const Dataset& d,
                          const SampleSet& s, const Viewport& vp) {
  ExpectPixelIdentical(test::RenderSampleScalar(opt, d, s, vp),
                       ScatterRenderer(opt).RenderSample(d, s, vp));
}

SampleSet EveryNth(const Dataset& d, size_t n, bool with_density) {
  SampleSet s;
  for (size_t i = 0; i < d.size(); i += n) {
    s.ids.push_back(i);
    if (with_density) s.density.push_back(i * 7 % 997 + 1);
  }
  return s;
}

TEST(PipelineIdentityTest, PlainDotsOnSkewedData) {
  Dataset d = test::Skewed(20000);
  SampleSet s = EveryNth(d, 3, /*with_density=*/false);
  ScatterRenderer::Options opt;
  opt.width_px = 256;
  opt.height_px = 256;
  ExpectPipelinesAgree(opt, d, s, Viewport(d.Bounds(), 256, 256));
}

TEST(PipelineIdentityTest, DensityAndValuesWithOverlaps) {
  // Values drive per-dot colors (overlap order matters) and density
  // drives per-dot radii (stencil cache) at once.
  Dataset d;
  std::mt19937 rng(42);
  std::uniform_real_distribution<double> coord(0.0, 10.0);
  std::uniform_real_distribution<double> value(-3.0, 3.0);
  for (size_t i = 0; i < 8000; ++i) {
    d.Add({coord(rng), coord(rng)}, value(rng));
  }
  SampleSet s = EveryNth(d, 2, /*with_density=*/true);
  ScatterRenderer::Options opt;
  opt.width_px = 200;
  opt.height_px = 160;
  opt.density_radius_scale = 0.8;
  ExpectPipelinesAgree(opt, d, s, Viewport(d.Bounds(), 200, 160));
}

TEST(PipelineIdentityTest, ZoomedViewportCullsTheSamePoints) {
  Dataset d = test::Skewed(15000);
  SampleSet s = EveryNth(d, 1, /*with_density=*/true);
  ScatterRenderer::Options opt;
  opt.width_px = 128;
  opt.height_px = 128;
  Viewport full(d.Bounds(), 128, 128);
  ExpectPipelinesAgree(opt, d, s, full.ZoomedIn(d.Bounds().Center(), 8.0));
}

TEST(PipelineIdentityTest, EdgePointsAndLargeDots) {
  // Points exactly on every viewport edge and corner, with radii big
  // enough that stamps clip against all four image borders. Max-edge
  // points transform to pixel column/row width_px/height_px — outside
  // the raster — yet their dots still paint clipped coverage.
  Dataset d;
  for (double t : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    d.Add({10.0 * t, 0.0}, 0.0);
    d.Add({10.0 * t, 10.0}, 0.0);
    d.Add({0.0, 10.0 * t}, 0.0);
    d.Add({10.0, 10.0 * t}, 0.0);
  }
  d.Add({10.1, 5.0}, 0.0);  // just outside: culled by both renderers
  SampleSet s = EveryNth(d, 1, /*with_density=*/true);
  for (auto& dens : s.density) dens = 100000;  // forces max_dot_radius_px
  ScatterRenderer::Options opt;
  opt.width_px = 64;
  opt.height_px = 64;
  opt.density_radius_scale = 2.0;
  Viewport vp(Rect::Of(0, 0, 10, 10), 64, 64);
  ExpectPipelinesAgree(opt, d, s, vp);
  Image img = ScatterRenderer(opt).RenderSample(d, s, vp);
  // The corner dot is clipped, not dropped: its quarter-disc shows up.
  EXPECT_FALSE(img.Get(0, 63) == opt.background);
  EXPECT_GT(img.InkFraction(opt.background), 0.0);
}

TEST(PipelineIdentityTest, SubPixelAndZeroRadiusDots) {
  Dataset d = test::Skewed(5000);
  SampleSet s = EveryNth(d, 1, /*with_density=*/false);
  for (double radius : {0.0, 0.5, 1.5}) {
    ScatterRenderer::Options opt;
    opt.width_px = 100;
    opt.height_px = 100;
    opt.dot_radius_px = radius;
    ExpectPipelinesAgree(opt, d, s, Viewport(d.Bounds(), 100, 100));
  }
}

TEST(PipelineIdentityTest, NonFiniteValuesColorDotsWithDefinedColors) {
  // A CSV value column accepts "nan" and "inf". Both renderers must
  // color such dots alike and with a defined color: NaN values take the
  // low end of the map, and with -inf and +inf both in the sample the
  // range is infinite, so every value normalizes to NaN.
  const double inf = std::numeric_limits<double>::infinity();
  Dataset d;
  d.Add({1.0, 1.0}, std::numeric_limits<double>::quiet_NaN());
  d.Add({3.0, 3.0}, inf);
  d.Add({5.0, 5.0}, -inf);
  d.Add({7.0, 7.0}, 0.5);
  const SampleSet s = EveryNth(d, 1, /*with_density=*/false);
  ScatterRenderer::Options opt;
  opt.width_px = 64;
  opt.height_px = 64;
  const Viewport vp(Rect::Of(0, 0, 8, 8), 64, 64);
  auto color_at = [&](const Image& img, Point p) {
    auto [px, py] = vp.ToPixel(p);
    return img.Get(static_cast<size_t>(px), static_cast<size_t>(py));
  };
  const Rgb low = MapColor(opt.colormap, 0.0);
  const Rgb high = MapColor(opt.colormap, 1.0);

  ExpectPipelinesAgree(opt, d, s, vp);
  Image img = ScatterRenderer(opt).RenderSample(d, s, vp);
  for (const Point& p : d.points) EXPECT_EQ(color_at(img, p), low);

  // Over a fixed finite range, NaN takes the low end and the
  // infinities clamp to the ends.
  opt.value_lo = 0.0;
  opt.value_hi = 1.0;
  ExpectPipelinesAgree(opt, d, s, vp);
  img = ScatterRenderer(opt).RenderSample(d, s, vp);
  EXPECT_EQ(color_at(img, d.points[0]), low);
  EXPECT_EQ(color_at(img, d.points[1]), high);
  EXPECT_EQ(color_at(img, d.points[2]), low);
}

TEST(RendererTest, JitteredDotsNearEdgesStayClipped) {
  // Jitter can push companion dot centers outside the raster; their
  // stamps must clamp coverage instead of writing out of bounds.
  Dataset d;
  d.Add({0.05, 0.05}, 0.0);
  d.Add({9.95, 9.95}, 0.0);
  SampleSet s;
  s.ids = {0, 1};
  s.density = {100000, 100000};
  ScatterRenderer::Options opt;
  opt.width_px = 32;
  opt.height_px = 32;
  opt.jitter_radius_px = 20.0;
  ScatterRenderer renderer(opt);
  Viewport vp(Rect::Of(0, 0, 10, 10), 32, 32);
  Image img = renderer.RenderSampleJittered(d, s, vp);
  EXPECT_GT(img.InkFraction(opt.background), 0.0);
}

TEST(RendererIntegrationTest, SampledRenderIsCheaperSameCoverage) {
  Dataset d = test::Skewed(20000);
  UniformReservoirSampler sampler(3);
  SampleSet s = sampler.Sample(d, 2000);
  ScatterRenderer renderer;
  Viewport vp(d.Bounds(), 512, 512);
  Image full = renderer.Render(d, vp);
  Image sampled = renderer.RenderSample(d, s, vp);
  double full_ink = full.InkFraction(renderer.options().background);
  double sample_ink = sampled.InkFraction(renderer.options().background);
  EXPECT_GT(sample_ink, 0.0);
  EXPECT_LE(sample_ink, full_ink + 1e-12);
}

}  // namespace
}  // namespace vas
