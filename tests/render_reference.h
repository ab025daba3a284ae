// Reference oracles for the tile path, shared by tests and benches:
//  - RenderSampleScalar, the per-point rasterizer that
//    ScatterRenderer::RenderSample must match pixel for pixel;
//  - StoredPngBytes, the size of the stored (uncompressed) PNG stream
//    that the filtered DEFLATE encoder is measured against.
// Header-only and built from the library's public API alone; it does
// not include gtest, because the benches that gate on the same oracles
// do not link it.
#ifndef VAS_TESTS_RENDER_REFERENCE_H_
#define VAS_TESTS_RENDER_REFERENCE_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <tuple>

#include "data/dataset.h"
#include "render/colormap.h"
#include "render/image.h"
#include "render/scatter_renderer.h"
#include "sampling/sample_set.h"

namespace vas {
namespace test {

/// Paints every pixel whose integer offset from (cx, cy) satisfies
/// dx*dx + dy*dy <= radius^2, clipped to the raster. A radius that
/// rounds up to 0 paints the center pixel alone.
inline void DrawReferenceDot(Image& img, long cx, long cy, double radius,
                             Rgb color) {
  long r = std::max<long>(0, static_cast<long>(std::ceil(radius)));
  if (r == 0) {
    img.SetClipped(cx, cy, color);
    return;
  }
  double r2 = radius * radius;
  long y0 = std::max(cy - r, 0L);
  long y1 = std::min(cy + r, static_cast<long>(img.height()) - 1);
  long x0 = std::max(cx - r, 0L);
  long x1 = std::min(cx + r, static_cast<long>(img.width()) - 1);
  if (y0 > y1 || x0 > x1) return;
  const Image::Pen pen = img.PenFor(color);
  for (long y = y0; y <= y1; ++y) {
    long dy = y - cy;
    for (long x = x0; x <= x1; ++x) {
      long dx = x - cx;
      if (static_cast<double>(dx * dx + dy * dy) <= r2) {
        img.Set(static_cast<size_t>(x), static_cast<size_t>(y), pen);
      }
    }
  }
}

/// Scatter plot of `sample` drawn one point at a time, in sample order:
/// cull by the viewport's world rect, transform with Viewport::ToPixel,
/// size the dot from the density count, color it from the value, and
/// paint it with DrawReferenceDot. Colors span options.value_lo..hi
/// when that range is non-empty, else the sampled values' range.
inline Image RenderSampleScalar(const ScatterRenderer::Options& options,
                                const Dataset& dataset, const SampleSet& sample,
                                const Viewport& viewport) {
  Image img(options.width_px, options.height_px, options.background);
  double lo = options.value_lo;
  double hi = options.value_hi;
  if (!(options.value_hi > options.value_lo) && dataset.has_values()) {
    std::tie(lo, hi) = dataset.ValueRange(sample.ids);
  }
  for (size_t i = 0; i < sample.ids.size(); ++i) {
    size_t id = sample.ids[i];
    Point p = dataset.points[id];
    if (!viewport.world().Contains(p)) continue;
    auto [px, py] = viewport.ToPixel(p);
    double radius = options.dot_radius_px;
    if (sample.has_density()) {
      radius = std::min(
          options.max_dot_radius_px,
          options.dot_radius_px +
              options.density_radius_scale *
                  std::log1p(static_cast<double>(sample.density[i])));
    }
    Rgb color = dataset.has_values()
                    ? MapColor(options.colormap,
                               NormalizeValue(dataset.values[id], lo, hi))
                    : Rgb{31, 119, 180};
    DrawReferenceDot(img, px, py, radius, color);
  }
  return img;
}

/// Bytes of a width x height RGB PNG whose scanlines are unfiltered
/// (one type-0 byte per row) and wrapped in stored DEFLATE blocks of at
/// most 65535 bytes: the signature, IHDR, one IDAT holding the zlib
/// stream (2-byte header, 5-byte block headers, Adler-32) and IEND.
inline size_t StoredPngBytes(size_t width, size_t height) {
  const size_t raw = height * (1 + 3 * width);
  const size_t blocks = std::max<size_t>(1, (raw + 65534) / 65535);
  const size_t zlib = 2 + raw + 5 * blocks + 4;
  return 8 + 25 + (12 + zlib) + 12;
}

}  // namespace test
}  // namespace vas

#endif  // VAS_TESTS_RENDER_REFERENCE_H_
