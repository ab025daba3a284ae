#include "render/scatter_renderer.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <memory>
#include <unordered_map>

#include "util/logging.h"
#include "util/random.h"

namespace vas {

namespace {

/// Points per SoA transform chunk. Small enough that the scratch
/// buffers stay L1-resident, large enough to amortize loop overhead.
constexpr size_t kTransformChunk = 1024;

/// Per-chunk scratch for the two-phase pipeline: coordinates gathered
/// into SoA form, then pixel positions and an in-viewport mask. The
/// mask is a double (1.0 / 0.0) rather than a byte: SSE2 has no lane
/// packing from 2-wide double compares down to byte stores, and a
/// same-width mask is what lets the whole loop vectorize.
struct TransformScratch {
  std::array<double, kTransformChunk> xs;
  std::array<double, kTransformChunk> ys;
  std::array<int32_t, kTransformChunk> px;
  std::array<int32_t, kTransformChunk> py;
  std::array<double, kTransformChunk> inside;
};

/// Phase one of the binned pipeline and the auto-vectorization target:
/// contiguous loads, no branches (the ternaries lower to min/max and
/// compare-blend under -fno-trapping-math), all lanes independent.
/// Mirrors Viewport::ToPixel bit for bit (same divides, same operation
/// order, same truncation) so the binned pipeline stays pixel-identical
/// to the scalar reference in tests/render_reference.h. Out-of-viewport
/// lanes get inside=0.0; their pixel values are clamped into a cast-safe
/// range and otherwise meaningless.
void TransformToPixels(const double* __restrict__ xs,
                       const double* __restrict__ ys, size_t n,
                       const Rect& world, double denom_x, double denom_y,
                       double wpx, double hpx, int32_t* __restrict__ px,
                       int32_t* __restrict__ py,
                       double* __restrict__ inside) {
  const double min_x = world.min_x, max_x = world.max_x;
  const double min_y = world.min_y, max_y = world.max_y;
  for (size_t j = 0; j < n; ++j) {
    double x = xs[j];
    double y = ys[j];
    double sx = (x - min_x) / denom_x * wpx;
    double sy = (1.0 - (y - min_y) / denom_y) * hpx;
    // Clamp into a cast-safe range; in-viewport lanes map into
    // [0, wpx]x[0, hpx] and pass through unchanged. The >= form sends
    // NaN to the floor instead of through the (undefined) out-of-range
    // cast.
    sx = sx >= -1.0 ? sx : -1.0;
    sx = sx <= wpx + 1.0 ? sx : wpx + 1.0;
    sy = sy >= -1.0 ? sy : -1.0;
    sy = sy <= hpx + 1.0 ? sy : hpx + 1.0;
    px[j] = static_cast<int32_t>(sx);
    py[j] = static_cast<int32_t>(sy);
    // Same inclusive test as Rect::Contains; NaN compares false on
    // every edge there too.
    double in_x = (x >= min_x ? 1.0 : 0.0) * (x <= max_x ? 1.0 : 0.0);
    double in_y = (y >= min_y ? 1.0 : 0.0) * (y <= max_y ? 1.0 : 0.0);
    inside[j] = in_x * in_y;
  }
}

/// Precomputed dot footprint: per row of the stencil, the inclusive
/// half-width of the pixel span (or -1 for an empty row). Spans are
/// contiguous because the circle test is monotone in |dx|.
struct DotStencil {
  long r = 0;
  std::vector<long> max_dx;
};

/// Builds the stencil for `radius`: every integer offset with
/// dx*dx + dy*dy <= radius^2, and the center alone when the radius
/// rounds up to 0 (tests/render_reference.h's DrawReferenceDot paints
/// the same pixels one at a time).
DotStencil BuildStencil(double radius) {
  DotStencil s;
  s.r = std::max<long>(0, static_cast<long>(std::ceil(radius)));
  if (s.r == 0) return s;
  double r2 = radius * radius;
  s.max_dx.assign(static_cast<size_t>(2 * s.r + 1), -1);
  for (long dy = -s.r; dy <= s.r; ++dy) {
    long m = -1;
    for (long dx = 0; dx <= s.r; ++dx) {
      if (static_cast<double>(dx * dx + dy * dy) > r2) break;
      m = dx;
    }
    s.max_dx[static_cast<size_t>(dy + s.r)] = m;
  }
  return s;
}

/// Phase two of the binned pipeline: stamps a stencil as row fills in
/// one pen, clamped to the raster once per row instead of
/// bounds-checking every pixel.
void StampDot(Image& img, long cx, long cy, const DotStencil& s,
              Image::Pen pen) {
  const long w = static_cast<long>(img.width());
  const long h = static_cast<long>(img.height());
  if (s.r == 0) {
    if (cx >= 0 && cy >= 0 && cx < w && cy < h) {
      img.Set(static_cast<size_t>(cx), static_cast<size_t>(cy), pen);
    }
    return;
  }
  for (long dy = -s.r; dy <= s.r; ++dy) {
    long m = s.max_dx[static_cast<size_t>(dy + s.r)];
    long y = cy + dy;
    if (m < 0 || y < 0 || y >= h) continue;
    long x0 = std::max(cx - m, 0L);
    long x1 = std::min(cx + m, w - 1);
    if (x0 > x1) continue;
    img.FillSpan(static_cast<size_t>(y), static_cast<size_t>(x0),
                 static_cast<size_t>(x1) + 1, pen);
  }
}

/// Stencils keyed by density count: radius is a pure function of the
/// count, and counts repeat heavily, so each distinct footprint is
/// built once per render.
class StencilCache {
 public:
  explicit StencilCache(const ScatterRenderer::Options& options)
      : options_(options), plain_(BuildStencil(options.dot_radius_px)) {}

  const DotStencil& Plain() const { return plain_; }

  const DotStencil& ForDensity(uint64_t count) {
    auto it = by_count_.find(count);
    if (it != by_count_.end()) return it->second;
    double radius =
        std::min(options_.max_dot_radius_px,
                 options_.dot_radius_px +
                     options_.density_radius_scale *
                         std::log1p(static_cast<double>(count)));
    return by_count_.emplace(count, BuildStencil(radius)).first->second;
  }

 private:
  const ScatterRenderer::Options& options_;
  DotStencil plain_;
  std::unordered_map<uint64_t, DotStencil> by_count_;
};

/// Shared by every sample render: fixed range from options when set,
/// otherwise the min/max over the sampled values.
std::pair<double, double> ValueRange(const ScatterRenderer::Options& options,
                                     const Dataset& dataset,
                                     const SampleSet& sample) {
  if (!(options.value_hi > options.value_lo) && dataset.has_values()) {
    return dataset.ValueRange(sample.ids);
  }
  return {options.value_lo, options.value_hi};
}

}  // namespace

Viewport::Viewport(const Rect& world, size_t width_px, size_t height_px)
    : world_(world), width_px_(width_px), height_px_(height_px) {
  VAS_CHECK_MSG(!world.empty(), "viewport world rect must be non-empty");
  VAS_CHECK(width_px > 0 && height_px > 0);
}

std::pair<long, long> Viewport::ToPixel(Point p) const {
  double fx = (p.x - world_.min_x) / std::max(world_.width(), 1e-300);
  double fy = (p.y - world_.min_y) / std::max(world_.height(), 1e-300);
  long px = static_cast<long>(fx * static_cast<double>(width_px_));
  long py = static_cast<long>((1.0 - fy) * static_cast<double>(height_px_));
  return {px, py};
}

Viewport Viewport::ZoomedIn(Point center, double factor) const {
  VAS_CHECK_MSG(factor >= 1.0, "zoom factor must be >= 1");
  double w = world_.width() / factor;
  double h = world_.height() / factor;
  Rect zoom = Rect::Of(center.x - w / 2.0, center.y - h / 2.0,
                       center.x + w / 2.0, center.y + h / 2.0);
  // Slide into the world rect instead of clipping so aspect is kept.
  if (zoom.min_x < world_.min_x) {
    zoom.max_x += world_.min_x - zoom.min_x;
    zoom.min_x = world_.min_x;
  }
  if (zoom.max_x > world_.max_x) {
    zoom.min_x -= zoom.max_x - world_.max_x;
    zoom.max_x = world_.max_x;
  }
  if (zoom.min_y < world_.min_y) {
    zoom.max_y += world_.min_y - zoom.min_y;
    zoom.min_y = world_.min_y;
  }
  if (zoom.max_y > world_.max_y) {
    zoom.min_y -= zoom.max_y - world_.max_y;
    zoom.max_y = world_.max_y;
  }
  return Viewport(zoom, width_px_, height_px_);
}

Image ScatterRenderer::Render(const Dataset& dataset,
                              const Viewport& viewport) const {
  SampleSet all;
  all.ids.resize(dataset.size());
  for (size_t i = 0; i < all.ids.size(); ++i) all.ids[i] = i;
  return RenderSample(dataset, all, viewport);
}

Image ScatterRenderer::RenderSample(const Dataset& dataset,
                                    const SampleSet& sample,
                                    const Viewport& viewport) const {
  Image img(options_.width_px, options_.height_px, options_.background);
  auto [lo, hi] = ValueRange(options_, dataset, sample);
  const Rect& world = viewport.world();
  const double denom_x = std::max(world.width(), 1e-300);
  const double denom_y = std::max(world.height(), 1e-300);
  const double wpx = static_cast<double>(options_.width_px);
  const double hpx = static_cast<double>(options_.height_px);
  const bool has_values = dataset.has_values();
  const bool has_density = sample.has_density();
  const Rgb default_color{31, 119, 180};
  StencilCache stencils(options_);
  auto scratch = std::make_unique<TransformScratch>();

  const size_t total = sample.ids.size();
  for (size_t base = 0; base < total; base += kTransformChunk) {
    const size_t n = std::min(kTransformChunk, total - base);
    for (size_t j = 0; j < n; ++j) {
      Point p = dataset.points[sample.ids[base + j]];
      scratch->xs[j] = p.x;
      scratch->ys[j] = p.y;
    }
    TransformToPixels(scratch->xs.data(), scratch->ys.data(), n, world,
                      denom_x, denom_y, wpx, hpx, scratch->px.data(),
                      scratch->py.data(), scratch->inside.data());
    // Blit in sample order so overlapping dots resolve exactly as a
    // per-point loop does (later points win).
    for (size_t j = 0; j < n; ++j) {
      if (scratch->inside[j] == 0.0) continue;
      size_t i = base + j;
      size_t id = sample.ids[i];
      const DotStencil& stencil = has_density
                                      ? stencils.ForDensity(sample.density[i])
                                      : stencils.Plain();
      const Image::Pen pen = img.PenFor(
          has_values ? MapColor(options_.colormap,
                                NormalizeValue(dataset.values[id], lo, hi))
                     : default_color);
      StampDot(img, scratch->px[j], scratch->py[j], stencil, pen);
    }
  }
  return img;
}

Image ScatterRenderer::RenderSampleJittered(const Dataset& dataset,
                                            const SampleSet& sample,
                                            const Viewport& viewport,
                                            uint64_t seed) const {
  Image img(options_.width_px, options_.height_px, options_.background);
  auto [lo, hi] = ValueRange(options_, dataset, sample);
  const DotStencil dot = BuildStencil(options_.dot_radius_px);
  Rng rng(seed, /*seq=*/1212);
  for (size_t i = 0; i < sample.ids.size(); ++i) {
    size_t id = sample.ids[i];
    Point p = dataset.points[id];
    if (!viewport.world().Contains(p)) continue;
    auto [px, py] = viewport.ToPixel(p);
    // One pen for the dot and its companions.
    const Image::Pen pen = img.PenFor(
        dataset.has_values()
            ? MapColor(options_.colormap,
                       NormalizeValue(dataset.values[id], lo, hi))
            : Rgb{31, 119, 180});
    StampDot(img, px, py, dot, pen);
    if (!sample.has_density()) continue;
    // Companion dots: log-proportional to the represented tuple count,
    // uniformly jittered inside the jitter disc.
    double decades = std::log10(1.0 + static_cast<double>(sample.density[i]));
    auto companions =
        static_cast<size_t>(options_.jitter_dots_per_decade * decades);
    for (size_t c = 0; c < companions; ++c) {
      double angle = rng.Uniform(0.0, 2.0 * M_PI);
      double r = options_.jitter_radius_px * std::sqrt(rng.NextDouble());
      long jx = px + static_cast<long>(std::lround(r * std::cos(angle)));
      long jy = py + static_cast<long>(std::lround(r * std::sin(angle)));
      StampDot(img, jx, jy, dot, pen);
    }
  }
  return img;
}

std::vector<uint32_t> ScatterRenderer::RenderCounts(
    const std::vector<Point>& points, const std::vector<uint64_t>& weights,
    const Viewport& viewport) const {
  VAS_CHECK(weights.empty() || weights.size() == points.size());
  std::vector<uint32_t> counts(options_.width_px * options_.height_px, 0);
  const Rect& world = viewport.world();
  const double denom_x = std::max(world.width(), 1e-300);
  const double denom_y = std::max(world.height(), 1e-300);
  const double wpx = static_cast<double>(options_.width_px);
  const double hpx = static_cast<double>(options_.height_px);
  const int32_t w_limit = static_cast<int32_t>(options_.width_px);
  const int32_t h_limit = static_cast<int32_t>(options_.height_px);
  auto scratch = std::make_unique<TransformScratch>();

  for (size_t base = 0; base < points.size(); base += kTransformChunk) {
    const size_t n = std::min(kTransformChunk, points.size() - base);
    for (size_t j = 0; j < n; ++j) {
      scratch->xs[j] = points[base + j].x;
      scratch->ys[j] = points[base + j].y;
    }
    TransformToPixels(scratch->xs.data(), scratch->ys.data(), n, world,
                      denom_x, denom_y, wpx, hpx, scratch->px.data(),
                      scratch->py.data(), scratch->inside.data());
    for (size_t j = 0; j < n; ++j) {
      // Points exactly on the viewport's max edge transform to pixel
      // row/column width_px/height_px, outside the raster: dropped.
      if (scratch->inside[j] == 0.0 || scratch->px[j] >= w_limit ||
          scratch->py[j] >= h_limit) {
        continue;
      }
      uint64_t w = weights.empty() ? 1 : weights[base + j];
      counts[static_cast<size_t>(scratch->py[j]) * options_.width_px +
             static_cast<size_t>(scratch->px[j])] +=
          static_cast<uint32_t>(w);
    }
  }
  return counts;
}

}  // namespace vas
