// Minimal RGB8 raster image with PPM and PNG output. The renderer draws
// scatter plots into it; the evaluation harness also reads pixels back
// (the simulated clustering user counts blobs on the rendered bitmap),
// and the tile server encodes it to PNG for browser consumption.
//
// Storage is palette-native. While an image holds at most 256 distinct
// colors it keeps one index byte per pixel into a color table
// deduplicated by value (the fill color first), which is what nearly
// every tile is. The 257th color converts it once, in place, to one RGB
// triple per pixel; it never converts back. Drawing goes through pens:
// PenFor looks a color up once, and FillSpan writes a run of pixels in
// it, one byte per pixel while the image is indexed. EncodePng writes
// palette storage indexed without looking at a color: a 256-entry
// table renumbers the indices in first-appearance raster order.
#ifndef VAS_RENDER_IMAGE_H_
#define VAS_RENDER_IMAGE_H_

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
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
/// row under filter None. Palette storage gets there by renumbering its
/// indices; only an image converted to RGB storage has its colors
/// scanned, and it too is written indexed when its pixels are back to
/// at most 256 colors. Any other image is 8-bit RGB, each row under the
/// PNG filter with the smallest absolute-residual sum
/// (None/Sub/Up/Average/Paeth). Either way the scanlines go through
/// render/deflate with their pixel and row sizes, and the bytes depend
/// on the pixels alone, never on the storage. The struct stays, empty,
/// only because the benchmark harness under vasbench/ passes one; it
/// goes when that harness is next edited.
struct PngEncodeOptions {};

/// Fixed-size raster. Pixel (0,0) is the top-left corner. Zero-area
/// images (width or height 0) are representable — operations on them
/// are no-ops — but cannot be written as PNG (the format forbids zero
/// dimensions).
class Image {
 public:
  /// A color resolved against one image by PenFor: its palette index
  /// while the image is indexed, and the color itself, which is what
  /// the pen paints once the image holds RGB. A pen stays valid for the
  /// image that made it, across a conversion; it means nothing to
  /// another image.
  class Pen {
   private:
    friend class Image;
    Pen(Rgb color, uint8_t index) : color_(color), index_(index) {}
    Rgb color_;
    uint8_t index_;
  };

  Image(size_t width, size_t height, Rgb fill = {255, 255, 255});

  size_t width() const { return width_; }
  size_t height() const { return height_; }

  /// The pen for `c`: its table entry, added if new. Adding a 257th
  /// color converts the image to RGB storage, once.
  Pen PenFor(Rgb c) {
    if (!indexed_) return Pen(c, 0);
    const uint32_t key = kOccupied | uint32_t{c.r} << 16 |
                         uint32_t{c.g} << 8 | uint32_t{c.b};
    for (size_t slot = (key * 0x9e3779b1u) >> 23;;  // top 9 bits
         slot = (slot + 1) % kSlots) {
      if (keys_[slot] == key) return Pen(c, slot_index_[slot]);
      if (keys_[slot] == 0) return AddColor(c, key, slot);
    }
  }

  /// Unchecked fast paths for hot loops: pixels [x_begin, x_end) of row
  /// y (x_begin <= x_end <= width, y < height), or pixel (x, y).
  void FillSpan(size_t y, size_t x_begin, size_t x_end, Pen pen) {
    const size_t at = y * width_;
    if (indexed_) {
      std::memset(indices_.data() + at + x_begin, pen.index_,
                  x_end - x_begin);
    } else {
      std::fill(pixels_.begin() + static_cast<std::ptrdiff_t>(at + x_begin),
                pixels_.begin() + static_cast<std::ptrdiff_t>(at + x_end),
                pen.color_);
    }
  }
  void Set(size_t x, size_t y, Pen pen) {
    if (indexed_) {
      indices_[y * width_ + x] = pen.index_;
    } else {
      pixels_[y * width_ + x] = pen.color_;
    }
  }
  void Set(size_t x, size_t y, Rgb c) { Set(x, y, PenFor(c)); }
  Rgb Get(size_t x, size_t y) const {
    const size_t at = y * width_ + x;
    return indexed_ ? colors_[indices_[at]] : pixels_[at];
  }

  /// Bounds-checked variant; out-of-range writes are ignored and add no
  /// color.
  void SetClipped(long x, long y, Rgb c) {
    if (x < 0 || y < 0 || x >= static_cast<long>(width_) ||
        y >= static_cast<long>(height_)) {
      return;
    }
    Set(static_cast<size_t>(x), static_cast<size_t>(y), c);
  }

  /// Fraction of pixels that differ from the background color — a crude
  /// ink metric used in tests. Zero for a zero-area image.
  double InkFraction(Rgb background) const;

  /// Binary PPM (P6).
  Status WritePpm(const std::string& path) const;

  /// Encodes the raster as a complete PNG byte stream (indexed when at
  /// most 256 colors, else 8-bit RGB; no interlace). Self-contained
  /// and deterministic — identical pixels yield identical bytes, however
  /// they were stored, which is what lets the tile cache serve
  /// byte-identical responses. Returns an empty string for zero-area
  /// images (PNG forbids zero dimensions).
  std::string EncodePng(const PngEncodeOptions& options = {}) const;

  /// EncodePng() written to `path`; InvalidArgument for zero-area
  /// images.
  Status WritePng(const std::string& path,
                  const PngEncodeOptions& options = {}) const;

 private:
  friend std::string TruecolorScanlines(const Image& image);

  /// PenFor's miss: enters `c` (as `key`) at the empty `slot`, or
  /// converts the image when the table is full.
  Pen AddColor(Rgb c, uint32_t key, size_t slot);
  /// Moves palette storage to RGB storage.
  void ConvertToRgb();
  /// Row y as RGB triples: the stored row, or `scratch` filled from
  /// the palette (width() entries).
  const Rgb* RgbRow(size_t y, Rgb* scratch) const;

  /// The color table's open-addressing index: slot keys are the 24-bit
  /// color | kOccupied (0 marks an empty slot), beside the color's
  /// table index. At most half full.
  static constexpr size_t kSlots = 512;
  static constexpr uint32_t kOccupied = 1u << 24;

  size_t width_;
  size_t height_;
  bool indexed_ = true;
  std::vector<uint8_t> indices_;  // palette storage, one byte per pixel
  std::vector<Rgb> colors_;       // the color table, by index
  std::array<uint32_t, kSlots> keys_{};
  std::array<uint8_t, kSlots> slot_index_{};
  std::vector<Rgb> pixels_;  // RGB storage, after a conversion
};

/// The truecolor scanline stream EncodePng compresses for an image of
/// more than 256 colors: per row, the chosen filter type byte followed
/// by the filtered RGB bytes. Exposed for tests; it reads any image,
/// whatever its storage.
std::string TruecolorScanlines(const Image& image);

}  // namespace vas

#endif  // VAS_RENDER_IMAGE_H_
