#include "render/image.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <vector>

#include "render/deflate.h"
#include "util/crc32.h"

namespace vas {

namespace {

// --- PNG encoding helpers. The format is small enough to emit by hand:
// chunks framed by length/type/CRC32, pixel data as palette indices or
// row-filtered RGB, wrapped in a zlib stream (render/deflate).

void AppendBe32(std::string* out, uint32_t v) {
  out->push_back(static_cast<char>((v >> 24) & 0xff));
  out->push_back(static_cast<char>((v >> 16) & 0xff));
  out->push_back(static_cast<char>((v >> 8) & 0xff));
  out->push_back(static_cast<char>(v & 0xff));
}

void AppendChunk(std::string* out, const char type[5],
                 const std::string& data) {
  AppendBe32(out, static_cast<uint32_t>(data.size()));
  const size_t body = out->size();
  out->append(type, 4);
  out->append(data);
  // The CRC covers type and data, read where they landed in `out`.
  AppendBe32(out, Crc32(out->data() + body, out->size() - body));
}

// --- Row filtering of truecolor rows (PNG filter method 0). Filters
// predict each byte from its left (a), up (b) and up-left (c)
// neighbors; residuals of smooth images cluster near zero, which is
// what makes them compressible. Each row gets the first of
// None/Sub/Up/Average/Paeth (types 0..4) with the smallest sum of
// absolute residuals, residual bytes read as signed deltas — the
// standard heuristic.
//
// All five candidates and their costs come out of one branch-free pass
// per row, written for the auto-vectorizer (16-byte vectors at -O3).
// Row 0 filters against a zero row, PNG's b = c = 0, and the first
// pixel's bytes (a = c = 0) are peeled off, so the loop has no edge
// tests.

/// Magnitude of residual `r` read as a signed delta: min(r, 256 - r).
inline uint8_t ResidualCost(uint8_t r) {
  return std::min<uint8_t>(r, static_cast<uint8_t>(-r));
}

inline int16_t Abs16(int16_t v) { return v < 0 ? static_cast<int16_t>(-v) : v; }

/// Paeth predictor with p = a + b - c expanded, so its three distances
/// |p - a|, |p - b|, |p - c| fit 16-bit lanes: pa = |b - c|,
/// pb = |a - c|, pc = |a + b - 2c|. Ties prefer a, then b.
inline uint8_t PaethPredictor(uint8_t a, uint8_t b, uint8_t c) {
  const int16_t pa = Abs16(static_cast<int16_t>(b - c));
  const int16_t pb = Abs16(static_cast<int16_t>(a - c));
  const int16_t pc = Abs16(static_cast<int16_t>(a + b - 2 * c));
  const uint8_t b_or_c = pb <= pc ? b : c;
  return (pa <= pb) & (pa <= pc) ? a : b_or_c;
}

/// Bytes per cost run. Runs sum costs in 16-bit lanes, which keeps the
/// vector loop narrow: 496 costs of at most 128 stay below 65536.
constexpr size_t kCostRun = 496;

/// Filters row `cur` against `prev` into the Sub, Up, Average and Paeth
/// residual rows (None is `cur` itself) and returns the first filter
/// type with the minimum cost. bpp is bytes per pixel; stride, the row
/// length in bytes, is a nonzero multiple of it.
int FilterRow(const uint8_t* __restrict__ cur,
              const uint8_t* __restrict__ prev, size_t stride, size_t bpp,
              uint8_t* __restrict__ sub, uint8_t* __restrict__ up,
              uint8_t* __restrict__ avg, uint8_t* __restrict__ paeth) {
  uint64_t cost[5] = {0, 0, 0, 0, 0};
  for (size_t i = 0; i < bpp; ++i) {
    const uint8_t x = cur[i];
    const uint8_t b = prev[i];
    sub[i] = x;
    up[i] = static_cast<uint8_t>(x - b);
    avg[i] = static_cast<uint8_t>(x - (b >> 1));
    paeth[i] = up[i];  // a = c = 0 predicts b
    cost[0] += ResidualCost(x);
    cost[1] += ResidualCost(x);
    cost[2] += ResidualCost(up[i]);
    cost[3] += ResidualCost(avg[i]);
    cost[4] += ResidualCost(paeth[i]);
  }
  for (size_t start = bpp; start < stride; start += kCostRun) {
    const size_t end = std::min(stride, start + kCostRun);
    uint16_t none_sum = 0, sub_sum = 0, up_sum = 0, avg_sum = 0,
             paeth_sum = 0;
    for (size_t i = start; i < end; ++i) {
      const uint8_t x = cur[i];
      const uint8_t a = cur[i - bpp];
      const uint8_t b = prev[i];
      const uint8_t c = prev[i - bpp];
      sub[i] = static_cast<uint8_t>(x - a);
      up[i] = static_cast<uint8_t>(x - b);
      avg[i] = static_cast<uint8_t>(x - ((a + b) >> 1));
      paeth[i] = static_cast<uint8_t>(x - PaethPredictor(a, b, c));
      none_sum = static_cast<uint16_t>(none_sum + ResidualCost(x));
      sub_sum = static_cast<uint16_t>(sub_sum + ResidualCost(sub[i]));
      up_sum = static_cast<uint16_t>(up_sum + ResidualCost(up[i]));
      avg_sum = static_cast<uint16_t>(avg_sum + ResidualCost(avg[i]));
      paeth_sum = static_cast<uint16_t>(paeth_sum + ResidualCost(paeth[i]));
    }
    cost[0] += none_sum;
    cost[1] += sub_sum;
    cost[2] += up_sum;
    cost[3] += avg_sum;
    cost[4] += paeth_sum;
  }
  int best = 0;
  for (int type = 1; type < 5; ++type) {
    if (cost[type] < cost[best]) best = type;
  }
  return best;
}

// --- Indexed color (PNG color type 3). A tile of at most 256 distinct
// colors is written as a palette plus one index byte per pixel, every
// row under filter None: the PNG specification's advice for palette
// images, and a third of the truecolor bytes for DEFLATE to read.

/// The indexed scanline stream of palette storage: per row, filter type
/// 0 followed by each pixel's table index renumbered in order of first
/// appearance in raster order, through a 256-entry table. `palette`
/// receives the colors in that order. The table holds each color once,
/// so this is exactly what BuildIndexedScanlines makes of the same
/// pixels, without reading a color per pixel; colors the pixels no
/// longer show are left out. Eight indices at a time are compared with
/// the previous index repeated, so background runs take one compare per
/// 8 pixels.
void RenumberIndexedScanlines(const uint8_t* indices, size_t width,
                              size_t height, const std::vector<Rgb>& colors,
                              std::string* palette, std::string* raw) {
  constexpr uint16_t kUnseen = 256;
  constexpr uint64_t kEachByte = 0x0101010101010101ull;
  std::array<uint16_t, 256> order;
  order.fill(kUnseen);
  palette->clear();
  raw->resize(height * (1 + width));
  char* out = raw->data();
  bool have_run = false;
  uint64_t run_in = 0;   // the previous index, 8 times
  uint64_t run_out = 0;  // its renumbered index, 8 times
  for (size_t y = 0; y < height; ++y) {
    *out++ = 0;  // filter type None
    const uint8_t* row = indices + y * width;
    for (size_t x = 0; x < width;) {
      if (have_run && x + 8 <= width) {
        uint64_t word;
        std::memcpy(&word, row + x, 8);
        if (word == run_in) {
          std::memcpy(out, &run_out, 8);
          out += 8;
          x += 8;
          continue;
        }
      }
      const uint8_t index = row[x++];
      uint16_t renumbered = order[index];
      if (renumbered == kUnseen) {
        renumbered = static_cast<uint16_t>(palette->size() / 3);
        order[index] = renumbered;
        const Rgb c = colors[index];
        palette->push_back(static_cast<char>(c.r));
        palette->push_back(static_cast<char>(c.g));
        palette->push_back(static_cast<char>(c.b));
      }
      *out++ = static_cast<char>(renumbered);
      run_in = kEachByte * index;
      run_out = kEachByte * renumbered;
      have_run = true;
    }
  }
}

/// Builds the indexed scanline stream of RGB storage (`pixels`, row
/// major): per row, filter type 0 followed by one palette index per
/// pixel. `palette` receives the colors as RGB triples in order of
/// first appearance in raster order. Returns false on the 257th
/// distinct color, leaving both outputs unspecified.
///
/// Colors are looked up in a fixed open-addressing table of 1,024
/// slots keyed by the 24-bit color (at most a quarter full), behind a
/// shortcut that reuses the previous pixel's index. Before the lookup,
/// the next 4 pixels (12 bytes) are compared with the previous color
/// repeated, so background runs take one compare per 4 pixels.
bool BuildIndexedScanlines(const Rgb* pixels, size_t width, size_t height,
                           std::string* palette, std::string* raw) {
  constexpr size_t kSlots = 1024;
  constexpr uint32_t kOccupied = 1u << 24;  // keys are color | kOccupied
  constexpr size_t kStride = 4;             // pixels per run check
  uint32_t keys[kSlots] = {};
  uint8_t indices[kSlots] = {};
  palette->clear();
  raw->resize(height * (1 + width));
  char* out = raw->data();
  uint32_t last_key = 0;  // no color's key
  uint8_t last_index = 0;
  Rgb run[kStride] = {};  // the last color, kStride times
  for (size_t y = 0; y < height; ++y) {
    *out++ = 0;  // filter type None
    const Rgb* row = pixels + y * width;
    for (size_t x = 0; x < width;) {
      if (last_key != 0 && x + kStride <= width &&
          std::memcmp(row + x, run, sizeof(run)) == 0) {
        std::memset(out, last_index, kStride);
        out += kStride;
        x += kStride;
        continue;
      }
      const Rgb c = row[x++];
      const uint32_t key = kOccupied | uint32_t{c.r} << 16 |
                           uint32_t{c.g} << 8 | uint32_t{c.b};
      if (key != last_key) {
        size_t slot = (key * 0x9e3779b1u) >> 22;  // top 10 bits
        while (keys[slot] != key) {
          if (keys[slot] == 0) {
            if (palette->size() == 3 * 256) return false;
            keys[slot] = key;
            indices[slot] = static_cast<uint8_t>(palette->size() / 3);
            palette->push_back(static_cast<char>(c.r));
            palette->push_back(static_cast<char>(c.g));
            palette->push_back(static_cast<char>(c.b));
            break;
          }
          slot = (slot + 1) % kSlots;
        }
        last_key = key;
        last_index = indices[slot];
        std::fill(run, run + kStride, c);
      }
      *out++ = static_cast<char>(last_index);
    }
  }
  return true;
}

}  // namespace

std::string TruecolorScanlines(const Image& image) {
  const size_t bpp = sizeof(Rgb);
  const size_t width = image.width();
  const size_t stride = width * bpp;
  std::string raw;
  raw.reserve(image.height() * (1 + stride));
  // The zero row row 0 filters against, then the four residual rows.
  std::vector<uint8_t> rows(5 * stride, 0);
  uint8_t* sub = rows.data() + stride;
  uint8_t* up = sub + stride;
  uint8_t* avg = up + stride;
  uint8_t* paeth = avg + stride;
  // Palette storage is read a row at a time into alternate halves, so
  // the previous row stays readable.
  std::vector<Rgb> expanded(image.indexed_ ? 2 * width : 0);
  const uint8_t* prev = rows.data();
  for (size_t y = 0; y < image.height(); ++y) {
    const uint8_t* cur = reinterpret_cast<const uint8_t*>(
        image.RgbRow(y, expanded.data() + (y % 2) * width));
    const int type = FilterRow(cur, prev, stride, bpp, sub, up, avg, paeth);
    const uint8_t* const filtered[5] = {cur, sub, up, avg, paeth};
    raw.push_back(static_cast<char>(type));
    raw.append(reinterpret_cast<const char*>(filtered[type]), stride);
    prev = cur;
  }
  return raw;
}

Image::Image(size_t width, size_t height, Rgb fill)
    : width_(width), height_(height), indices_(width * height, 0) {
  PenFor(fill);  // index 0, the one every pixel holds
}

Image::Pen Image::AddColor(Rgb c, uint32_t key, size_t slot) {
  if (colors_.size() == 256) {
    ConvertToRgb();
    return Pen(c, 0);
  }
  const auto index = static_cast<uint8_t>(colors_.size());
  keys_[slot] = key;
  slot_index_[slot] = index;
  colors_.push_back(c);
  return Pen(c, index);
}

void Image::ConvertToRgb() {
  pixels_.resize(indices_.size());
  for (size_t i = 0; i < indices_.size(); ++i) {
    pixels_[i] = colors_[indices_[i]];
  }
  indexed_ = false;
  std::vector<uint8_t>().swap(indices_);
  std::vector<Rgb>().swap(colors_);
}

const Rgb* Image::RgbRow(size_t y, Rgb* scratch) const {
  if (!indexed_) return pixels_.data() + y * width_;
  const uint8_t* row = indices_.data() + y * width_;
  for (size_t x = 0; x < width_; ++x) scratch[x] = colors_[row[x]];
  return scratch;
}

double Image::InkFraction(Rgb background) const {
  const size_t area = width_ * height_;
  if (area == 0) return 0.0;
  size_t ink = 0;
  for (size_t y = 0; y < height_; ++y) {
    for (size_t x = 0; x < width_; ++x) {
      if (!(Get(x, y) == background)) ++ink;
    }
  }
  return static_cast<double>(ink) / static_cast<double>(area);
}

Status Image::WritePpm(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IoError("cannot open for write: " + path);
  out << "P6\n" << width_ << " " << height_ << "\n255\n";
  std::vector<Rgb> scratch(width_);
  for (size_t y = 0; y < height_; ++y) {
    out.write(reinterpret_cast<const char*>(RgbRow(y, scratch.data())),
              static_cast<std::streamsize>(width_ * sizeof(Rgb)));
  }
  if (!out) return Status::IoError("write failed: " + path);
  return Status::OK();
}

std::string Image::EncodePng(const PngEncodeOptions& /*options*/) const {
  if (width_ == 0 || height_ == 0) return std::string();
  std::string palette;
  std::string raw;
  bool indexed = true;
  if (indexed_) {
    RenumberIndexedScanlines(indices_.data(), width_, height_, colors_,
                             &palette, &raw);
  } else {
    indexed =
        BuildIndexedScanlines(pixels_.data(), width_, height_, &palette, &raw);
    if (!indexed) raw = TruecolorScanlines(*this);
  }

  std::string png("\x89PNG\r\n\x1a\n", 8);
  std::string ihdr;
  AppendBe32(&ihdr, static_cast<uint32_t>(width_));
  AppendBe32(&ihdr, static_cast<uint32_t>(height_));
  ihdr.push_back('\x08');  // bit depth
  ihdr.push_back(indexed ? '\x03' : '\x02');  // color type: indexed or RGB
  ihdr.push_back('\0');  // compression: deflate
  ihdr.push_back('\0');  // filter method 0
  ihdr.push_back('\0');  // no interlace
  AppendChunk(&png, "IHDR", ihdr);
  if (indexed) AppendChunk(&png, "PLTE", palette);
  // The matcher's pixel and row distances, a row's filter byte included.
  const size_t pixel = indexed ? 1 : sizeof(Rgb);
  AppendChunk(&png, "IDAT", ZlibCompress(raw, pixel, 1 + pixel * width_));
  AppendChunk(&png, "IEND", std::string());
  return png;
}

Status Image::WritePng(const std::string& path,
                       const PngEncodeOptions& options) const {
  if (width_ == 0 || height_ == 0) {
    return Status::InvalidArgument("cannot encode zero-sized image as PNG");
  }
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IoError("cannot open for write: " + path);
  std::string png = EncodePng(options);
  out.write(png.data(), static_cast<std::streamsize>(png.size()));
  if (!out) return Status::IoError("write failed: " + path);
  return Status::OK();
}

}  // namespace vas
