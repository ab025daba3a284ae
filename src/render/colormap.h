// Value -> color mapping for map plots (the paper's Figure 1 encodes
// altitude as color). A compact viridis approximation plus a grayscale
// map; both interpolate a small control-point table.
#ifndef VAS_RENDER_COLORMAP_H_
#define VAS_RENDER_COLORMAP_H_

#include <cstdint>
#include <vector>

#include "render/image.h"

namespace vas {

enum class ColormapKind {
  kViridis,
  kGrayscale,
};

/// Maps t in [0, 1] (clamped; NaN maps as 0) to a color.
Rgb MapColor(ColormapKind kind, double t);

/// Normalizes v from [lo, hi] to [0, 1]; degenerate ranges map to 0.5.
double NormalizeValue(double v, double lo, double hi);

/// Renders a row-major per-pixel count raster (the renderer's binning
/// pass output) as a colormapped density image: counts are log-scaled
/// and normalized to the raster's own maximum — deterministic per
/// input — and zero-count pixels keep `background`. The heatmap tile
/// style is this function over RenderCounts.
Image RenderDensityImage(const std::vector<uint32_t>& counts, size_t width,
                         size_t height, ColormapKind kind, Rgb background);

}  // namespace vas

#endif  // VAS_RENDER_COLORMAP_H_
