#include "render/colormap.h"

#include <algorithm>
#include <cmath>

namespace vas {

namespace {

// Eight control points sampled from matplotlib's viridis.
constexpr uint8_t kViridis[8][3] = {
    {68, 1, 84},   {70, 50, 127},  {54, 92, 141},  {39, 127, 142},
    {31, 161, 135}, {74, 194, 109}, {159, 218, 58}, {253, 231, 37},
};

}  // namespace

double NormalizeValue(double v, double lo, double hi) {
  if (!(hi > lo)) return 0.5;
  return std::clamp((v - lo) / (hi - lo), 0.0, 1.0);
}

Rgb MapColor(ColormapKind kind, double t) {
  // NaN — a NaN value, or any value normalized over an infinite range —
  // takes the low end instead of reaching the integer casts below.
  t = std::isnan(t) ? 0.0 : std::clamp(t, 0.0, 1.0);
  if (kind == ColormapKind::kGrayscale) {
    auto g = static_cast<uint8_t>(std::lround(t * 255.0));
    return {g, g, g};
  }
  double scaled = t * 7.0;
  size_t i = std::min<size_t>(6, static_cast<size_t>(scaled));
  double f = scaled - static_cast<double>(i);
  auto lerp = [f](uint8_t a, uint8_t b) {
    return static_cast<uint8_t>(std::lround(
        static_cast<double>(a) + f * (static_cast<double>(b) -
                                      static_cast<double>(a))));
  };
  return {lerp(kViridis[i][0], kViridis[i + 1][0]),
          lerp(kViridis[i][1], kViridis[i + 1][1]),
          lerp(kViridis[i][2], kViridis[i + 1][2])};
}

Image RenderDensityImage(const std::vector<uint32_t>& counts, size_t width,
                         size_t height, ColormapKind kind, Rgb background) {
  Image img(width, height, background);
  if (counts.size() != width * height) return img;
  uint32_t max_count = 0;
  for (uint32_t c : counts) max_count = std::max(max_count, c);
  if (max_count == 0) return img;
  double log_max = std::log1p(static_cast<double>(max_count));
  // Distinct counts repeat across pixels (especially small ones), so
  // memoize count -> color; the common case touches the table, not
  // log1p + the colormap lerp.
  std::vector<Rgb> color_of(std::min<size_t>(max_count + 1, 4096));
  std::vector<uint8_t> color_set(color_of.size(), 0);
  auto color_for = [&](uint32_t c) {
    double t = std::log1p(static_cast<double>(c)) / log_max;
    return MapColor(kind, t);
  };
  for (size_t y = 0; y < height; ++y) {
    Rgb* row = img.row(y);
    for (size_t x = 0; x < width; ++x) {
      uint32_t c = counts[y * width + x];
      if (c == 0) continue;
      if (c < color_of.size()) {
        if (!color_set[c]) {
          color_of[c] = color_for(c);
          color_set[c] = 1;
        }
        row[x] = color_of[c];
      } else {
        row[x] = color_for(c);
      }
    }
  }
  return img;
}

}  // namespace vas
