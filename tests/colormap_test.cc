// Colormaps: control-point endpoints, interpolation continuity,
// clamping, and value normalization (the paper's Figure 1 encodes
// altitude as color, so a broken map silently corrupts every plot).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <limits>

#include "render/colormap.h"

namespace vas {
namespace {

TEST(ColormapTest, ViridisEndpointsMatchControlTable) {
  // First and last control points of matplotlib's viridis.
  EXPECT_EQ(MapColor(ColormapKind::kViridis, 0.0), (Rgb{68, 1, 84}));
  EXPECT_EQ(MapColor(ColormapKind::kViridis, 1.0), (Rgb{253, 231, 37}));
}

TEST(ColormapTest, OutOfRangeInputsClampToEndpoints) {
  for (ColormapKind kind : {ColormapKind::kViridis, ColormapKind::kGrayscale}) {
    EXPECT_EQ(MapColor(kind, -100.0), MapColor(kind, 0.0));
    EXPECT_EQ(MapColor(kind, 100.0), MapColor(kind, 1.0));
    EXPECT_EQ(MapColor(kind, -0.0), MapColor(kind, 0.0));
  }
}

TEST(ColormapTest, NonFiniteInputsMapToDefinedColors) {
  // NaN reaches MapColor from a NaN value or from any value normalized
  // over an infinite range; it takes the low end. Infinities clamp like
  // any other out-of-range input.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (ColormapKind kind : {ColormapKind::kViridis, ColormapKind::kGrayscale}) {
    const Rgb low = MapColor(kind, 0.0);
    const Rgb high = MapColor(kind, 1.0);
    EXPECT_EQ(MapColor(kind, nan), low);
    EXPECT_EQ(MapColor(kind, -nan), low);
    EXPECT_EQ(MapColor(kind, -inf), low);
    EXPECT_EQ(MapColor(kind, inf), high);
    EXPECT_EQ(MapColor(kind, NormalizeValue(nan, 0.0, 1.0)), low);
    EXPECT_EQ(MapColor(kind, NormalizeValue(-inf, 0.0, 1.0)), low);
    EXPECT_EQ(MapColor(kind, NormalizeValue(inf, 0.0, 1.0)), high);
    for (double v : {-inf, -1.0, 0.0, 2.5, inf, nan}) {
      EXPECT_EQ(MapColor(kind, NormalizeValue(v, -inf, inf)), low) << v;
    }
  }
}

TEST(ColormapTest, GrayscaleIsNeutralAndLinear) {
  for (double t = 0.0; t <= 1.0; t += 0.05) {
    Rgb c = MapColor(ColormapKind::kGrayscale, t);
    EXPECT_EQ(c.r, c.g);
    EXPECT_EQ(c.g, c.b);
    EXPECT_EQ(c.r, static_cast<uint8_t>(std::lround(t * 255.0)));
  }
}

TEST(ColormapTest, ViridisIsContinuous) {
  // Adjacent samples never jump more than a few counts per channel:
  // piecewise-linear interpolation over 8 control points has no seams.
  Rgb prev = MapColor(ColormapKind::kViridis, 0.0);
  for (int i = 1; i <= 1000; ++i) {
    Rgb cur = MapColor(ColormapKind::kViridis, i / 1000.0);
    EXPECT_LE(std::abs(int(cur.r) - int(prev.r)), 3);
    EXPECT_LE(std::abs(int(cur.g) - int(prev.g)), 3);
    EXPECT_LE(std::abs(int(cur.b) - int(prev.b)), 3);
    prev = cur;
  }
}

TEST(ColormapTest, ViridisLuminanceIncreases) {
  // Viridis is a sequential map: perceived brightness grows with t.
  auto luma = [](Rgb c) {
    return 0.2126 * c.r + 0.7152 * c.g + 0.0722 * c.b;
  };
  double prev = luma(MapColor(ColormapKind::kViridis, 0.0));
  for (int i = 1; i <= 20; ++i) {
    double cur = luma(MapColor(ColormapKind::kViridis, i / 20.0));
    EXPECT_GT(cur, prev) << "t=" << i / 20.0;
    prev = cur;
  }
}

TEST(NormalizeValueTest, MapsRangeToUnitInterval) {
  EXPECT_DOUBLE_EQ(NormalizeValue(5.0, 0.0, 10.0), 0.5);
  EXPECT_DOUBLE_EQ(NormalizeValue(0.0, 0.0, 10.0), 0.0);
  EXPECT_DOUBLE_EQ(NormalizeValue(10.0, 0.0, 10.0), 1.0);
  EXPECT_DOUBLE_EQ(NormalizeValue(-2.0, -4.0, 0.0), 0.5);
}

TEST(NormalizeValueTest, ClampsOutOfRangeValues) {
  EXPECT_DOUBLE_EQ(NormalizeValue(-1.0, 0.0, 10.0), 0.0);
  EXPECT_DOUBLE_EQ(NormalizeValue(11.0, 0.0, 10.0), 1.0);
}

TEST(NormalizeValueTest, DegenerateRangesMapToCenter) {
  EXPECT_DOUBLE_EQ(NormalizeValue(3.0, 5.0, 5.0), 0.5);   // empty range
  EXPECT_DOUBLE_EQ(NormalizeValue(3.0, 7.0, 2.0), 0.5);   // inverted range
  EXPECT_DOUBLE_EQ(NormalizeValue(3.0, std::nan(""), 1.0), 0.5);
}

TEST(RenderDensityImageTest, LogScalesCountsAndKeepsBackgroundAtZero) {
  Rgb background{10, 20, 30};
  // max = 7, so t(c) = log1p(c)/log1p(7).
  std::vector<uint32_t> counts = {0, 1, 3, 7};
  Image img = RenderDensityImage(counts, 4, 1, ColormapKind::kGrayscale,
                                 background);
  EXPECT_EQ(img.Get(0, 0), background);
  double log_max = std::log1p(7.0);
  for (size_t x = 1; x < 4; ++x) {
    double t = std::log1p(static_cast<double>(counts[x])) / log_max;
    EXPECT_EQ(img.Get(x, 0), MapColor(ColormapKind::kGrayscale, t))
        << "x=" << x;
  }
  EXPECT_EQ(img.Get(3, 0), (Rgb{255, 255, 255})) << "max count maps to t=1";
}

TEST(RenderDensityImageTest, AllZeroAndMismatchedInputsYieldBackground) {
  Rgb background{1, 2, 3};
  Image zeros = RenderDensityImage(std::vector<uint32_t>(6, 0), 3, 2,
                                   ColormapKind::kViridis, background);
  Image mismatched = RenderDensityImage({1, 2}, 3, 2, ColormapKind::kViridis,
                                        background);
  for (size_t y = 0; y < 2; ++y) {
    for (size_t x = 0; x < 3; ++x) {
      EXPECT_EQ(zeros.Get(x, y), background);
      EXPECT_EQ(mismatched.Get(x, y), background);
    }
  }
}

TEST(RenderDensityImageTest, MemoizedAndDirectColorPathsAgree) {
  // Counts straddling the 4096-entry memo table: large counts take the
  // direct-compute path and must color identically to the formula.
  std::vector<uint32_t> counts = {0, 1, 4095, 4096, 100000};
  Image img = RenderDensityImage(counts, 5, 1, ColormapKind::kViridis,
                                 {255, 255, 255});
  double log_max = std::log1p(100000.0);
  for (size_t x = 1; x < 5; ++x) {
    double t = std::log1p(static_cast<double>(counts[x])) / log_max;
    EXPECT_EQ(img.Get(x, 0), MapColor(ColormapKind::kViridis, t)) << x;
  }
}

}  // namespace
}  // namespace vas
