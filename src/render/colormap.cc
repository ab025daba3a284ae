#include "render/colormap.h"

#include <algorithm>
#include <cmath>
#include <optional>

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
  // Most of a tile's counts are zero. One pass reads each row 8 counts
  // at a time, takes the maximum, and lists the groups holding a
  // nonzero count; coloring then reads only those groups and each row's
  // last width % 8 counts.
  constexpr size_t kGroup = 8;
  const size_t groups_end = width - width % kGroup;
  std::vector<size_t> groups;  // offsets of the listed groups, ascending
  uint32_t max_count = 0;
  for (size_t y = 0; y < height; ++y) {
    const uint32_t* row = counts.data() + y * width;
    for (size_t x = 0; x < groups_end; x += kGroup) {
      uint32_t any = 0;
      for (size_t k = 0; k < kGroup; ++k) any |= row[x + k];
      if (any == 0) continue;
      groups.push_back(y * width + x);
      for (size_t k = 0; k < kGroup; ++k) {
        max_count = std::max(max_count, row[x + k]);
      }
    }
    for (size_t x = groups_end; x < width; ++x) {
      max_count = std::max(max_count, row[x]);
    }
  }
  if (max_count == 0) return img;
  double log_max = std::log1p(static_cast<double>(max_count));
  // Distinct counts repeat across pixels (especially small ones), so
  // memoize count -> pen; the common case touches the table, not log1p,
  // the colormap lerp and the image's color lookup.
  std::vector<std::optional<Image::Pen>> pen_of(
      std::min<size_t>(max_count + 1, 4096));
  auto paint = [&](size_t x, size_t y) {
    const uint32_t c = counts[y * width + x];
    if (c == 0) return;
    if (c < pen_of.size() && pen_of[c]) {
      img.Set(x, y, *pen_of[c]);
      return;
    }
    double t = std::log1p(static_cast<double>(c)) / log_max;
    const Image::Pen pen = img.PenFor(MapColor(kind, t));
    if (c < pen_of.size()) pen_of[c] = pen;
    img.Set(x, y, pen);
  };
  auto group = groups.begin();
  for (size_t y = 0; y < height; ++y) {
    for (; group != groups.end() && *group < (y + 1) * width; ++group) {
      for (size_t k = 0; k < kGroup; ++k) paint(*group - y * width + k, y);
    }
    for (size_t x = groups_end; x < width; ++x) paint(x, y);
  }
  return img;
}

}  // namespace vas
