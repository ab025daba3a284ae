// Minimal RGB8 raster image with PPM and PNG output. The renderer draws
// scatter plots into it; the evaluation harness also reads pixels back
// (the simulated clustering user counts blobs on the rendered bitmap),
// and the tile server encodes it to PNG for browser consumption:
// indexed color when it has at most 256 colors, else 8-bit RGB.
#ifndef VAS_RENDER_IMAGE_H_
#define VAS_RENDER_IMAGE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace vas {

struct Rgb {
  uint8_t r = 0;
  uint8_t g = 0;
  uint8_t b = 0;
  friend bool operator==(Rgb a, Rgb b) {
    return a.r == b.r && a.g == b.g && a.b == b.b;
  }
};

/// EncodePng has nothing to configure: the pixels pick the format. An
/// image of at most 256 distinct colors is written indexed: a palette
/// in first-appearance raster order and one index byte per pixel, every
/// row under filter None. Any other image is 8-bit RGB, each row under
/// the PNG filter with the smallest absolute-residual sum
/// (None/Sub/Up/Average/Paeth). Either way the scanlines go through
/// render/deflate with their pixel and row sizes. The struct stays,
/// empty, only because the benchmark harness under vasbench/ passes
/// one; it goes when that harness is next edited.
struct PngEncodeOptions {};

/// Fixed-size RGB raster. Pixel (0,0) is the top-left corner. Zero-area
/// images (width or height 0) are representable — operations on them
/// are no-ops — but cannot be written as PNG (the format forbids zero
/// dimensions).
class Image {
 public:
  Image(size_t width, size_t height, Rgb fill = {255, 255, 255});

  size_t width() const { return width_; }
  size_t height() const { return height_; }

  /// Unchecked fast path for hot loops; (x, y) must be in range.
  void Set(size_t x, size_t y, Rgb c) { pixels_[y * width_ + x] = c; }
  Rgb Get(size_t x, size_t y) const { return pixels_[y * width_ + x]; }

  /// Bounds-checked variant; out-of-range writes are ignored.
  void SetClipped(long x, long y, Rgb c) {
    if (x < 0 || y < 0 || x >= static_cast<long>(width_) ||
        y >= static_cast<long>(height_)) {
      return;
    }
    Set(static_cast<size_t>(x), static_cast<size_t>(y), c);
  }

  /// Row-major pixel storage; row y starts at row(y)[0].
  Rgb* row(size_t y) { return pixels_.data() + y * width_; }
  const Rgb* row(size_t y) const { return pixels_.data() + y * width_; }

  /// Fraction of pixels that differ from the background color — a crude
  /// ink metric used in tests. Zero for a zero-area image.
  double InkFraction(Rgb background) const;

  /// Binary PPM (P6).
  Status WritePpm(const std::string& path) const;

  /// Encodes the raster as a complete PNG byte stream (indexed when at
  /// most 256 colors, else 8-bit RGB; no interlace). Self-contained
  /// and deterministic — identical pixels yield identical bytes, which
  /// is what lets the tile cache serve byte-identical responses.
  /// Returns an empty string for zero-area images (PNG forbids zero
  /// dimensions).
  std::string EncodePng(const PngEncodeOptions& options = {}) const;

  /// EncodePng() written to `path`; InvalidArgument for zero-area
  /// images.
  Status WritePng(const std::string& path,
                  const PngEncodeOptions& options = {}) const;

 private:
  size_t width_;
  size_t height_;
  std::vector<Rgb> pixels_;
};

/// The truecolor scanline stream EncodePng compresses for an image of
/// more than 256 colors: per row, the chosen filter type byte followed
/// by the filtered RGB bytes. Exposed for tests.
std::string TruecolorScanlines(const Image& image);

}  // namespace vas

#endif  // VAS_RENDER_IMAGE_H_
