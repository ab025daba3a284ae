// Software scatter/map-plot rasterizer. Stands in for the paper's
// Tableau/MathGL back ends: cost is linear in the number of points
// rendered — exactly the property that makes sampling pay off — and the
// output bitmap feeds both the PPM artifacts (Figures 1/5/6 analogues)
// and the simulated-user evaluation.
//
// Density-aware rendering implements the paper's §V presentation: a
// sample point's dot radius grows with the number of original tuples it
// represents.
#ifndef VAS_RENDER_SCATTER_RENDERER_H_
#define VAS_RENDER_SCATTER_RENDERER_H_

#include <cstdint>
#include <vector>

#include "data/dataset.h"
#include "geom/rect.h"
#include "render/colormap.h"
#include "render/image.h"
#include "sampling/sample_set.h"

namespace vas {

/// World-rect -> pixel transform. Y is flipped so larger world y plots
/// higher, as in a conventional chart.
class Viewport {
 public:
  Viewport(const Rect& world, size_t width_px, size_t height_px);

  const Rect& world() const { return world_; }
  size_t width_px() const { return width_px_; }
  size_t height_px() const { return height_px_; }

  /// World point -> (pixel x, pixel y). May land outside the raster for
  /// out-of-viewport points.
  std::pair<long, long> ToPixel(Point p) const;

  /// Sub-viewport zoomed by `factor` around `center` (factor > 1 zooms
  /// in), clipped to this viewport's world rect.
  Viewport ZoomedIn(Point center, double factor) const;

 private:
  Rect world_;
  size_t width_px_;
  size_t height_px_;
};

/// Scatter plot rasterizer.
class ScatterRenderer {
 public:
  struct Options {
    size_t width_px = 512;
    size_t height_px = 512;
    /// Dot radius in pixels for an unweighted point.
    double dot_radius_px = 1.0;
    /// When the input carries density counts: radius scales with
    /// log1p(count), capped at max_dot_radius_px.
    double density_radius_scale = 1.0;
    double max_dot_radius_px = 8.0;
    /// Jitter presentation (§V's alternative to dot growth): extra dots
    /// drawn per decade of density count, scattered within
    /// jitter_radius_px of the sample point.
    double jitter_dots_per_decade = 4.0;
    double jitter_radius_px = 6.0;
    Rgb background = {255, 255, 255};
    ColormapKind colormap = ColormapKind::kViridis;
    /// Fixed color range; when lo >= hi the range is taken from data.
    double value_lo = 0.0;
    double value_hi = 0.0;
  };

  explicit ScatterRenderer(Options options) : options_(options) {}
  ScatterRenderer() : ScatterRenderer(Options{}) {}

  /// Renders `dataset` (all of it) into the viewport.
  Image Render(const Dataset& dataset, const Viewport& viewport) const;

  /// Renders a sample of `dataset`; density counts, when present, drive
  /// per-dot radii. Two phases: an SoA viewport-transform pass over
  /// chunked coordinate arrays (branch-free, auto-vectorizable), then a
  /// blit of each dot's row spans from stencils cached per radius, in
  /// sample order so later dots win overlaps. Each dot looks its color
  /// up once (Image::PenFor) and fills its spans with that pen.
  Image RenderSample(const Dataset& dataset, const SampleSet& sample,
                     const Viewport& viewport) const;

  /// §V's alternative density presentation: constant-size dots, but each
  /// sample point is accompanied by jittered companion dots in
  /// proportion to log10 of its density count — the plot regains the
  /// overplotting texture of the raw data. Deterministic in `seed`.
  Image RenderSampleJittered(const Dataset& dataset, const SampleSet& sample,
                             const Viewport& viewport,
                             uint64_t seed = 99) const;

  /// Occupancy raster: per-pixel point counts (density-weighted when
  /// `weights` is non-empty). The simulated clustering user works on
  /// this rather than on colors.
  std::vector<uint32_t> RenderCounts(const std::vector<Point>& points,
                                     const std::vector<uint64_t>& weights,
                                     const Viewport& viewport) const;

  const Options& options() const { return options_; }

 private:
  Options options_;
};

/// Latency model of an external visualization system, calibrated to the
/// paper's Figure 2/4 measurements (linear in point count). Lets the
/// benches report "Tableau-equivalent" viz time for a sample size without
/// shipping Tableau.
struct VizTimeModel {
  double per_point_seconds = 0.0;
  double overhead_seconds = 0.0;

  double SecondsFor(size_t num_points) const {
    return overhead_seconds +
           per_point_seconds * static_cast<double>(num_points);
  }

  /// Tableau: ~4 min at 50M points, ~5 s at 1M (Figure 2).
  static VizTimeModel Tableau() { return {4.8e-6, 0.4}; }
  /// MathGL: ~2.2 s at 1M points, linear (Figure 2).
  static VizTimeModel MathGL() { return {2.0e-6, 0.2}; }
};

}  // namespace vas

#endif  // VAS_RENDER_SCATTER_RENDERER_H_
