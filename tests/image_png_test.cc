// Image::EncodePng / WritePng: the self-contained encoder (indexed
// color for at most 256 colors, else per-row filtered RGB, then
// DEFLATE with dynamic or fixed Huffman codes) must produce structurally valid PNGs that
// decode back to the exact pixels — verified via chunk/CRC parsing
// here plus the reference inflater in render/deflate, an independent
// unfilter pass and a palette lookup — plus length+CRC goldens of the
// served bytes, differential checks of the truecolor row-filter choice
// against a scalar reference chooser and of the indexed scanlines
// against a reference palette builder, the 256-color boundary,
// determinism (the tile cache's byte-identity contract), zero-size and
// >65535-byte-row edge cases, and a compression-wins check on
// renderer-like content against the closed-form stored-stream size.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <map>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "render/deflate.h"
#include "render/image.h"
#include "render_reference.h"
#include "test_util.h"

namespace vas {
namespace {

uint32_t ReadBe32(const std::string& s, size_t pos) {
  return (static_cast<uint32_t>(static_cast<unsigned char>(s[pos])) << 24) |
         (static_cast<uint32_t>(static_cast<unsigned char>(s[pos + 1]))
          << 16) |
         (static_cast<uint32_t>(static_cast<unsigned char>(s[pos + 2])) << 8) |
         static_cast<uint32_t>(static_cast<unsigned char>(s[pos + 3]));
}

uint32_t RefCrc32(const std::string& data) {
  uint32_t crc = 0xffffffffu;
  for (unsigned char byte : data) {
    crc ^= byte;
    for (int k = 0; k < 8; ++k) {
      crc = (crc & 1) ? 0xedb88320u ^ (crc >> 1) : crc >> 1;
    }
  }
  return crc ^ 0xffffffffu;
}

uint8_t RefPaeth(uint8_t a, uint8_t b, uint8_t c) {
  int p = static_cast<int>(a) + b - c;
  int pa = std::abs(p - a), pb = std::abs(p - b), pc = std::abs(p - c);
  if (pa <= pb && pa <= pc) return a;
  if (pb <= pc) return b;
  return c;
}

/// What the independent decoder recovered from a PNG byte stream.
struct DecodedPng {
  uint32_t width = 0;
  uint32_t height = 0;
  uint8_t bit_depth = 0;
  uint8_t color_type = 0;
  /// The PLTE payload (RGB triples); empty for truecolor.
  std::string palette;
  /// The inflated IDAT payload: per row, a filter-type byte followed
  /// by that row's residuals.
  std::string scanlines;
  /// Row-major RGB triples after unfiltering and, for color type 3,
  /// mapping each index through the palette.
  std::vector<uint8_t> rgb;
};

/// Parses the subset of PNG the encoder emits: IHDR/PLTE/IDAT/IEND
/// chunk framing with CRCs verified, color type 2 (RGB) or 3 (indexed,
/// with a PLTE of 1-256 entries before IDAT), the zlib payload inflated
/// through the reference inflater, all five filter types reversed, and
/// palette indices mapped back to RGB.
void DecodePng(const std::string& png, DecodedPng* out) {
  *out = DecodedPng();
  ASSERT_GE(png.size(), 8u);
  ASSERT_EQ(png.substr(0, 8), std::string("\x89PNG\r\n\x1a\n", 8));
  std::string idat;
  bool saw_ihdr = false, saw_plte = false, saw_iend = false;
  size_t pos = 8;
  while (pos < png.size()) {
    ASSERT_GE(png.size(), pos + 12) << "truncated chunk header";
    uint32_t length = ReadBe32(png, pos);
    std::string type = png.substr(pos + 4, 4);
    ASSERT_GE(png.size(), pos + 12 + length) << "truncated chunk body";
    std::string body = png.substr(pos + 4, 4 + length);
    EXPECT_EQ(ReadBe32(png, pos + 8 + length), RefCrc32(body))
        << "bad CRC on chunk " << type;
    if (type == "IHDR") {
      ASSERT_EQ(length, 13u);
      out->width = ReadBe32(png, pos + 8);
      out->height = ReadBe32(png, pos + 12);
      out->bit_depth = static_cast<uint8_t>(png[pos + 16]);
      out->color_type = static_cast<uint8_t>(png[pos + 17]);
      EXPECT_EQ(png[pos + 18], '\0');  // compression: deflate
      EXPECT_EQ(png[pos + 19], '\0');  // filter method 0
      EXPECT_EQ(png[pos + 20], '\0');  // no interlace
      saw_ihdr = true;
    } else if (type == "PLTE") {
      ASSERT_TRUE(saw_ihdr) << "PLTE before IHDR";
      ASSERT_FALSE(saw_plte) << "second PLTE";
      ASSERT_TRUE(idat.empty()) << "PLTE after IDAT";
      ASSERT_EQ(length % 3, 0u) << "PLTE length " << length;
      ASSERT_GE(length, 3u);
      ASSERT_LE(length, 3u * 256);
      out->palette = png.substr(pos + 8, length);
      saw_plte = true;
    } else if (type == "IDAT") {
      idat += png.substr(pos + 8, length);
    } else if (type == "IEND") {
      EXPECT_EQ(length, 0u);
      saw_iend = true;
    }
    pos += 12 + length;
  }
  ASSERT_TRUE(saw_ihdr);
  ASSERT_TRUE(saw_iend);
  ASSERT_EQ(pos, png.size());
  ASSERT_TRUE(out->color_type == 2 || out->color_type == 3)
      << "color type " << int{out->color_type};
  ASSERT_EQ(saw_plte, out->color_type == 3);

  auto inflated = ZlibDecompress(idat);
  ASSERT_TRUE(inflated.ok()) << inflated.status().message();
  out->scanlines = *inflated;
  const std::string& raw = out->scanlines;

  // Unfilter. Reconstruction uses already-reconstructed neighbors, so
  // this independently reverses whatever per-row choice the encoder
  // made.
  const size_t bpp = out->color_type == 3 ? 1 : 3;
  size_t stride = static_cast<size_t>(out->width) * bpp;
  ASSERT_EQ(raw.size(), (1 + stride) * out->height);
  std::vector<uint8_t> samples(stride * out->height);
  for (uint32_t y = 0; y < out->height; ++y) {
    uint8_t filter = static_cast<uint8_t>(raw[y * (1 + stride)]);
    ASSERT_LE(filter, 4u) << "row " << y << " filter type";
    const uint8_t* in =
        reinterpret_cast<const uint8_t*>(raw.data() + y * (1 + stride) + 1);
    uint8_t* cur = samples.data() + y * stride;
    const uint8_t* up = y > 0 ? samples.data() + (y - 1) * stride : nullptr;
    for (size_t i = 0; i < stride; ++i) {
      uint8_t a = i >= bpp ? cur[i - bpp] : 0;
      uint8_t b = up != nullptr ? up[i] : 0;
      uint8_t c = (up != nullptr && i >= bpp) ? up[i - bpp] : 0;
      uint8_t pred = 0;
      switch (filter) {
        case 0: pred = 0; break;
        case 1: pred = a; break;
        case 2: pred = b; break;
        case 3: pred = static_cast<uint8_t>((static_cast<int>(a) + b) / 2);
                break;
        default: pred = RefPaeth(a, b, c); break;
      }
      cur[i] = static_cast<uint8_t>(in[i] + pred);
    }
  }
  if (out->color_type == 2) {
    out->rgb = std::move(samples);
    return;
  }
  const size_t entries = out->palette.size() / 3;
  out->rgb.reserve(samples.size() * 3);
  for (size_t i = 0; i < samples.size(); ++i) {
    ASSERT_LT(samples[i], entries) << "palette index at pixel " << i;
    for (size_t k = 0; k < 3; ++k) {
      out->rgb.push_back(
          static_cast<uint8_t>(out->palette[samples[i] * 3 + k]));
    }
  }
}

Image TestPattern(size_t width, size_t height) {
  Image image(width, height, Rgb{250, 250, 250});
  for (size_t y = 0; y < height; ++y) {
    for (size_t x = 0; x < width; ++x) {
      image.Set(x, y,
                Rgb{static_cast<uint8_t>((x * 7 + y) & 0xff),
                    static_cast<uint8_t>((x + y * 13) & 0xff),
                    static_cast<uint8_t>((x * y) & 0xff)});
    }
  }
  return image;
}

/// 500 single-pixel dots on a white 256² tile — what cold scatter
/// tiles mostly look like.
Image DotTile() {
  Image image(256, 256);
  for (size_t i = 0; i < 500; ++i) {
    size_t x = (i * 2654435761u) % 256;
    size_t y = (i * 40503u) % 256;
    image.Set(x, y, Rgb{31, 119, 180});
  }
  return image;
}

/// A sparse density tile: seeded clusters of per-pixel counts colored
/// through a dark-to-bright ramp over a white background, the shape of
/// a heatmap tile drawn from a small rung. Uses only raw mt19937 output
/// (its sequence is fixed by the standard) so goldens hold on any
/// standard library.
Image HeatmapLikeTile() {
  const size_t side = 256;
  std::mt19937 rng(17);
  std::vector<uint32_t> counts(side * side, 0);
  for (int blob = 0; blob < 7; ++blob) {
    const long cx = static_cast<long>(rng() % side);
    const long cy = static_cast<long>(rng() % side);
    for (int i = 0; i < 700; ++i) {
      // Triangular spread around the blob center.
      const long dx = static_cast<long>(rng() % 25 + rng() % 25) - 24;
      const long dy = static_cast<long>(rng() % 25 + rng() % 25) - 24;
      const long x = cx + dx;
      const long y = cy + dy;
      if (x >= 0 && y >= 0 && x < static_cast<long>(side) &&
          y < static_cast<long>(side)) {
        ++counts[static_cast<size_t>(y) * side + static_cast<size_t>(x)];
      }
    }
  }
  Image image(side, side);
  for (size_t y = 0; y < side; ++y) {
    for (size_t x = 0; x < side; ++x) {
      const uint32_t c = std::min<uint32_t>(counts[y * side + x], 12);
      if (c == 0) continue;
      image.Set(x, y, Rgb{static_cast<uint8_t>(68 + 15 * c),
                          static_cast<uint8_t>(1 + 19 * c),
                          static_cast<uint8_t>(84 + 5 * c)});
    }
  }
  return image;
}

/// 22000 px * 3 + 1 filter byte = 66001 bytes per scanline — wider
/// than one 65535-byte stored block and than DEFLATE's 32 KiB window.
Image WideImage() {
  Image image(22000, 2);
  for (size_t x = 0; x < image.width(); ++x) {
    image.Set(x, 0, Rgb{static_cast<uint8_t>(x & 0xff),
                        static_cast<uint8_t>((x >> 8) & 0xff), 7});
    image.Set(x, 1, Rgb{static_cast<uint8_t>((x * 3) & 0xff), 0,
                        static_cast<uint8_t>(x & 0xff)});
  }
  return image;
}

/// Seeded pixels drawn from the raw mt19937 stream. `levels` bounds
/// each channel's distinct values (256 = full noise); few levels make
/// smooth-ish rows where several filters tie.
Image NoiseImage(size_t width, size_t height, uint32_t seed,
                 uint32_t levels = 256) {
  std::mt19937 rng(seed);
  Image image(width, height);
  const uint32_t step = 256 / levels;
  for (size_t y = 0; y < height; ++y) {
    for (size_t x = 0; x < width; ++x) {
      image.Set(x, y, Rgb{static_cast<uint8_t>(rng() % levels * step),
                          static_cast<uint8_t>(rng() % levels * step),
                          static_cast<uint8_t>(rng() % levels * step)});
    }
  }
  return image;
}

// --- Reference filter chooser: the plain scalar form of the per-row
// heuristic — five separate filter passes, each re-scanned for its
// cost. It is the oracle the encoder's fused filter pass must match
// byte for byte, filter choice and residuals alike.

uint64_t RefFilterCost(const uint8_t* filtered, size_t n) {
  uint64_t sum = 0;
  for (size_t i = 0; i < n; ++i) {
    uint8_t v = filtered[i];
    sum += v < 128 ? v : 256u - v;
  }
  return sum;
}

void RefApplyFilter(int type, const uint8_t* cur, const uint8_t* prev,
                    size_t stride, size_t bpp, uint8_t* out) {
  for (size_t i = 0; i < stride; ++i) {
    uint8_t x = cur[i];
    uint8_t a = i >= bpp ? cur[i - bpp] : 0;
    uint8_t b = prev != nullptr ? prev[i] : 0;
    uint8_t c = (prev != nullptr && i >= bpp) ? prev[i - bpp] : 0;
    uint8_t pred = 0;
    switch (type) {
      case 0: pred = 0; break;
      case 1: pred = a; break;
      case 2: pred = b; break;
      case 3: pred = static_cast<uint8_t>((static_cast<int>(a) + b) / 2);
              break;
      default: pred = RefPaeth(a, b, c); break;
    }
    out[i] = static_cast<uint8_t>(x - pred);
  }
}

/// The filtered scanline stream the reference chooser produces: per
/// row the first filter type (0..4) with the minimum residual cost.
std::string RefScanlines(const Image& image) {
  const size_t bpp = 3;
  const size_t stride = image.width() * bpp;
  std::string raw;
  std::vector<uint8_t> candidate(stride);
  std::vector<uint8_t> best(stride);
  // Every row's RGB bytes, read pixel by pixel.
  std::vector<uint8_t> rgb;
  for (size_t y = 0; y < image.height(); ++y) {
    for (size_t x = 0; x < image.width(); ++x) {
      const Rgb c = image.Get(x, y);
      rgb.insert(rgb.end(), {c.r, c.g, c.b});
    }
  }
  for (size_t y = 0; y < image.height(); ++y) {
    const uint8_t* cur = rgb.data() + y * stride;
    const uint8_t* prev = y > 0 ? cur - stride : nullptr;
    int best_type = 0;
    uint64_t best_cost = ~uint64_t{0};
    for (int type = 0; type < 5; ++type) {
      RefApplyFilter(type, cur, prev, stride, bpp, candidate.data());
      uint64_t cost = RefFilterCost(candidate.data(), stride);
      if (cost < best_cost) {
        best_cost = cost;
        best_type = type;
        best.swap(candidate);
      }
    }
    raw.push_back(static_cast<char>(best_type));
    raw.append(reinterpret_cast<const char*>(best.data()), stride);
  }
  return raw;
}

/// The indexed scanline stream and palette a reference builder makes:
/// colors numbered in order of first appearance in raster order, and
/// per row filter type 0 followed by one index byte per pixel. Only
/// meaningful for images of at most 256 colors.
std::string RefIndexedScanlines(const Image& image, std::string* palette) {
  std::map<uint32_t, size_t> index_of;
  std::string raw;
  palette->clear();
  for (size_t y = 0; y < image.height(); ++y) {
    raw.push_back('\0');
    for (size_t x = 0; x < image.width(); ++x) {
      const Rgb c = image.Get(x, y);
      const uint32_t key = (uint32_t{c.r} << 16) | (uint32_t{c.g} << 8) | c.b;
      auto [it, inserted] = index_of.emplace(key, index_of.size());
      if (inserted) {
        palette->push_back(static_cast<char>(c.r));
        palette->push_back(static_cast<char>(c.g));
        palette->push_back(static_cast<char>(c.b));
      }
      raw.push_back(static_cast<char>(it->second));
    }
  }
  return raw;
}

size_t DistinctColors(const Image& image) {
  std::set<uint32_t> colors;
  for (size_t y = 0; y < image.height(); ++y) {
    for (size_t x = 0; x < image.width(); ++x) {
      const Rgb c = image.Get(x, y);
      colors.insert((uint32_t{c.r} << 16) | (uint32_t{c.g} << 8) | c.b);
    }
  }
  return colors.size();
}

void ExpectDecodesBack(const Image& image) {
  DecodedPng decoded;
  ASSERT_NO_FATAL_FAILURE(DecodePng(image.EncodePng(), &decoded));
  ASSERT_EQ(decoded.width, image.width());
  ASSERT_EQ(decoded.height, image.height());
  EXPECT_EQ(decoded.bit_depth, 8);
  // Indexed exactly when the image has at most 256 colors.
  EXPECT_EQ(decoded.color_type, DistinctColors(image) <= 256 ? 3 : 2);
  ASSERT_EQ(decoded.rgb.size(), image.width() * image.height() * 3);
  for (size_t y = 0; y < image.height(); ++y) {
    for (size_t x = 0; x < image.width(); ++x) {
      size_t at = (y * image.width() + x) * 3;
      Rgb expected = image.Get(x, y);
      ASSERT_EQ(decoded.rgb[at], expected.r) << "(" << x << "," << y << ")";
      ASSERT_EQ(decoded.rgb[at + 1], expected.g);
      ASSERT_EQ(decoded.rgb[at + 2], expected.b);
    }
  }
}

TEST(ImagePngTest, StoredPngBytesMatchesTheStoredStream) {
  // StoredPngBytes, the byte gates' baseline, against sizes measured
  // from a stored-block encoder (filter type 0 on every row, blocks of
  // at most 65535 bytes), across one and several blocks.
  struct Size {
    size_t width;
    size_t height;
    size_t bytes;
  };
  const Size sizes[] = {
      {1, 1, 72},
      {2, 1, 75},
      {31, 17, 1666},
      {256, 256, 196947},
      {512, 512, 787072},
      {21845, 1, 65609},
      {100, 300, 90373},
  };
  for (const Size& size : sizes) {
    EXPECT_EQ(test::StoredPngBytes(size.width, size.height), size.bytes)
        << size.width << "x" << size.height;
  }
}

TEST(ImagePngTest, GoldenLengthAndCrcForDefaultOptions) {
  // Length and CRC-32 of whole default-options PNGs — the bytes tiles
  // ship with, and so their ETags, cache entries and wire size. Any
  // encoder change that alters a served byte fails here. 1x1, 2x1,
  // 3x2 and the two tiles have at most 256 colors and are indexed;
  // pattern 31x17, 22000x2 and noise 37x29 pin the truecolor path.
  struct Golden {
    const char* name;
    Image image;
    size_t length;
    uint32_t crc;
  };
  Image two_by_one(2, 1);
  two_by_one.Set(0, 0, Rgb{255, 0, 0});
  two_by_one.Set(1, 0, Rgb{0, 128, 255});
  Image three_by_two(3, 2);
  three_by_two.Set(0, 0, Rgb{10, 20, 30});
  three_by_two.Set(1, 0, Rgb{200, 100, 50});
  three_by_two.Set(2, 0, Rgb{255, 255, 0});
  three_by_two.Set(0, 1, Rgb{12, 22, 29});
  three_by_two.Set(1, 1, Rgb{0, 0, 0});
  three_by_two.Set(2, 1, Rgb{128, 64, 250});
  const Golden goldens[] = {
      {"1x1", Image(1, 1, Rgb{1, 2, 3}), 82, 0xc4f1e59cu},
      {"2x1", two_by_one, 86, 0x7cdc1b9eu},
      {"3x2", three_by_two, 103, 0x6a27476cu},
      {"pattern 31x17", TestPattern(31, 17), 177, 0xd68cfc59u},
      {"dot tile", DotTile(), 1381, 0x861c52c2u},
      {"heatmap-like tile", HeatmapLikeTile(), 4262, 0xeb3485dcu},
      {"22000x2", WideImage(), 730, 0x4b583228u},
      {"noise 37x29", NoiseImage(37, 29, 5), 3355, 0x69a94a9bu},
  };
  for (const Golden& golden : goldens) {
    const std::string png = golden.image.EncodePng();
    EXPECT_EQ(png.size(), golden.length) << golden.name;
    EXPECT_EQ(RefCrc32(png), golden.crc) << golden.name;
  }
}

TEST(ImagePngTest, FilterChoiceMatchesReferenceChooser) {
  // Seeded differential check: the truecolor builder's per-row
  // filter-type bytes and residuals equal the reference chooser's for
  // every width 1-40 and height 1-4, over full noise, few-level noise
  // (ties between filters) and flat images. None of these has more
  // than 160 pixels, so EncodePng writes each indexed; its scanlines
  // must equal the reference indexed builder's.
  int type_seen[5] = {0, 0, 0, 0, 0};
  for (size_t width = 1; width <= 40; ++width) {
    for (size_t height = 1; height <= 4; ++height) {
      const uint32_t seed = static_cast<uint32_t>(width * 8 + height);
      const Image images[] = {NoiseImage(width, height, seed),
                              NoiseImage(width, height, seed, 4),
                              NoiseImage(width, height, seed, 2),
                              Image(width, height, Rgb{30, 60, 90})};
      for (const Image& image : images) {
        const std::string expected = RefScanlines(image);
        ASSERT_EQ(TruecolorScanlines(image), expected)
            << width << "x" << height << " seed " << seed;
        DecodedPng decoded;
        ASSERT_NO_FATAL_FAILURE(DecodePng(image.EncodePng(), &decoded));
        std::string palette;
        ASSERT_EQ(decoded.scanlines, RefIndexedScanlines(image, &palette))
            << width << "x" << height << " seed " << seed;
        ASSERT_EQ(decoded.palette, palette);
        for (size_t y = 0; y < height; ++y) {
          ++type_seen[static_cast<uint8_t>(expected[y * (1 + width * 3)])];
        }
      }
    }
  }
  for (int type = 0; type < 5; ++type) {
    EXPECT_GT(type_seen[type], 0) << "filter type " << type << " never chosen";
  }
}

TEST(ImagePngTest, IndexedUpTo256Colors) {
  // 256 distinct colors, each on a 16x16 image's own pixel: indexed,
  // with a full 768-byte palette. A 257th color (one more column) tips
  // it to truecolor, with the truecolor builder's scanlines.
  Image image(16, 16);
  for (size_t y = 0; y < 16; ++y) {
    for (size_t x = 0; x < 16; ++x) {
      image.Set(x, y, Rgb{static_cast<uint8_t>(x * 16), 7,
                          static_cast<uint8_t>(y * 16)});
    }
  }
  DecodedPng decoded;
  ASSERT_NO_FATAL_FAILURE(DecodePng(image.EncodePng(), &decoded));
  EXPECT_EQ(decoded.color_type, 3);
  EXPECT_EQ(decoded.palette.size(), 768u);
  ExpectDecodesBack(image);

  Image wider(17, 16);
  for (size_t y = 0; y < 16; ++y) {
    for (size_t x = 0; x < 16; ++x) wider.Set(x, y, image.Get(x, y));
    wider.Set(16, y, image.Get(15, y));
  }
  wider.Set(16, 15, Rgb{1, 2, 3});
  ASSERT_EQ(DistinctColors(wider), 257u);
  ASSERT_NO_FATAL_FAILURE(DecodePng(wider.EncodePng(), &decoded));
  EXPECT_EQ(decoded.color_type, 2);
  EXPECT_EQ(decoded.scanlines, TruecolorScanlines(wider));
  ExpectDecodesBack(wider);
}

/// Expects `image` to encode indexed, with exactly the palette and index
/// stream RefIndexedScanlines builds from its pixels.
void ExpectReferenceIndexed(const Image& image) {
  DecodedPng decoded;
  ASSERT_NO_FATAL_FAILURE(DecodePng(image.EncodePng(), &decoded));
  ASSERT_EQ(decoded.color_type, 3);
  std::string palette;
  EXPECT_EQ(decoded.scanlines, RefIndexedScanlines(image, &palette));
  EXPECT_EQ(decoded.palette, palette);
}

TEST(ImagePngTest, PaletteStorageEncodesAsTheReferenceBuilds) {
  // Palette storage keeps colors in the order they were first drawn,
  // the fill first, and can keep colors no pixel shows any more; the
  // encoder renumbers to first appearance in raster order and drops
  // what is gone.
  // The fill is not at (0,0): (0,0) is drawn over, so the palette
  // starts with its color.
  Image corner(9, 5, Rgb{250, 250, 250});
  corner.Set(0, 0, Rgb{10, 20, 30});
  corner.Set(4, 2, Rgb{200, 0, 0});
  ExpectReferenceIndexed(corner);
  // A color fully overwritten: drawn, then covered everywhere it was.
  Image covered(12, 6);
  const Image::Pen blue = covered.PenFor(Rgb{0, 0, 255});
  const Image::Pen red = covered.PenFor(Rgb{255, 0, 0});
  for (size_t y = 1; y < 4; ++y) covered.FillSpan(y, 2, 9, blue);
  covered.FillSpan(0, 0, 12, red);
  for (size_t y = 1; y < 4; ++y) covered.FillSpan(y, 1, 10, red);
  ExpectReferenceIndexed(covered);
  DecodedPng decoded;
  ASSERT_NO_FATAL_FAILURE(DecodePng(covered.EncodePng(), &decoded));
  EXPECT_EQ(decoded.palette.size(), 2u * 3);  // red and the fill
  // One color set through separate calls is one table entry.
  Image repeated(7, 7, Rgb{0, 0, 0});
  for (size_t i = 0; i < 7; ++i) repeated.Set(i, i, Rgb{31, 119, 180});
  repeated.SetClipped(-1, 3, Rgb{1, 1, 1});  // clipped: adds no color
  repeated.Set(6, 0, Rgb{31, 119, 180});
  ExpectReferenceIndexed(repeated);
  ASSERT_NO_FATAL_FAILURE(DecodePng(repeated.EncodePng(), &decoded));
  EXPECT_EQ(decoded.palette.size(), 2u * 3);
}

TEST(ImagePngTest, A257thColorConvertsOnceAndEncodesByPixels) {
  // 256 colors stay in palette storage; the 257th converts the image to
  // RGB storage, every earlier pixel kept, and it encodes as truecolor.
  auto color = [](size_t i) {
    return Rgb{static_cast<uint8_t>(i), static_cast<uint8_t>(i * 7),
               static_cast<uint8_t>(255 - i)};
  };
  Image image(20, 20);  // white fill: not among color(0..255)
  for (size_t i = 0; i < 255; ++i) image.Set(i % 20, i / 20, color(i));
  DecodedPng decoded;
  ASSERT_NO_FATAL_FAILURE(DecodePng(image.EncodePng(), &decoded));
  EXPECT_EQ(decoded.color_type, 3);
  EXPECT_EQ(decoded.palette.size(), 256u * 3);
  const Image::Pen early = image.PenFor(color(3));
  image.Set(15, 12, color(255));  // the 257th color
  image.FillSpan(13, 0, 20, early);  // a pen from before the conversion
  for (size_t i = 0; i < 255; ++i) {
    ASSERT_EQ(image.Get(i % 20, i / 20), color(i)) << i;
  }
  EXPECT_EQ(image.Get(15, 12), color(255));
  EXPECT_EQ(image.Get(19, 13), color(3));
  EXPECT_EQ(image.Get(19, 19), (Rgb{255, 255, 255}));
  ASSERT_NO_FATAL_FAILURE(DecodePng(image.EncodePng(), &decoded));
  EXPECT_EQ(decoded.color_type, 2);
  ExpectDecodesBack(image);

  // Overwritten back to at most 256 colors, the converted image encodes
  // indexed again, in the same bytes as a fresh image of those pixels.
  image.Set(15, 12, color(7));
  Image fresh(20, 20);
  for (size_t y = 0; y < 20; ++y) {
    for (size_t x = 0; x < 20; ++x) fresh.Set(x, y, image.Get(x, y));
  }
  ASSERT_EQ(DistinctColors(image), 256u);
  EXPECT_EQ(image.EncodePng(), fresh.EncodePng());
  ExpectReferenceIndexed(image);
}

TEST(ImagePngTest, RoundTripsThroughIndependentDecoder) {
  ExpectDecodesBack(TestPattern(31, 17));
}

TEST(ImagePngTest, SinglePixelRoundTrips) {
  Image image(1, 1, Rgb{1, 2, 3});
  ExpectDecodesBack(image);
}

TEST(ImagePngTest, FlatAndGradientImagesRoundTripFiltered) {
  // Flat fill: one color, so it is written indexed (one palette entry,
  // filter None). Gradient: more than 256 colors, so truecolor, where
  // Sub residuals are constant and the filter heuristic is exercised.
  Image flat(64, 48, Rgb{30, 60, 90});
  ExpectDecodesBack(flat);
  Image gradient(64, 48);
  for (size_t y = 0; y < 48; ++y) {
    for (size_t x = 0; x < 64; ++x) {
      gradient.Set(x, y,
                   Rgb{static_cast<uint8_t>(x * 4), static_cast<uint8_t>(y * 5),
                       static_cast<uint8_t>(x + y)});
    }
  }
  ExpectDecodesBack(gradient);
}

TEST(ImagePngTest, FilteredDeflateBeatsStoredOnRendererContent) {
  // A mostly-background raster with sparse dots — what tiles actually
  // look like — must compress far below the stored baseline (the bench
  // gate is 40%; assert a loose 60% here on a small image).
  Image image = DotTile();
  size_t fixed = image.EncodePng().size();
  size_t stored = test::StoredPngBytes(image.width(), image.height());
  EXPECT_LT(fixed, stored * 6 / 10);
}

TEST(ImagePngTest, RowsWiderThanStoredBlockRoundTrip) {
  // A single row longer than a stored block and than the match window
  // must still decode exactly.
  Image image = WideImage();
  ExpectDecodesBack(image);
}

TEST(ImagePngTest, ZeroSizedImagesEncodeEmptyAndRefuseWrite) {
  for (auto dims : {std::pair<size_t, size_t>{0, 0},
                    std::pair<size_t, size_t>{0, 5},
                    std::pair<size_t, size_t>{5, 0}}) {
    Image image(dims.first, dims.second);
    EXPECT_EQ(image.EncodePng(), "");
    EXPECT_EQ(image.InkFraction(Rgb{255, 255, 255}), 0.0);
    Status status = image.WritePng("/tmp/should-not-exist.png");
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status.message();
  }
}

TEST(ImagePngTest, EncodingIsDeterministic) {
  Image image = TestPattern(64, 64);
  EXPECT_EQ(image.EncodePng(), image.EncodePng());
  Image tile = DotTile();
  EXPECT_EQ(tile.EncodePng(), tile.EncodePng());
}

class ImagePngFileTest : public test::TempFileTest {
 protected:
  ImagePngFileTest() : TempFileTest("image_png_test.png") {}
};

TEST_F(ImagePngFileTest, WritePngMatchesEncodePng) {
  Image image = TestPattern(23, 9);
  ASSERT_TRUE(image.WritePng(path()).ok());
  std::ifstream in(path(), std::ios::binary);
  ASSERT_TRUE(in.good());
  std::ostringstream buffer;
  buffer << in.rdbuf();
  EXPECT_EQ(buffer.str(), image.EncodePng());
}

TEST_F(ImagePngFileTest, WritePngToUnwritablePathFails) {
  Image image(2, 2);
  EXPECT_FALSE(image.WritePng("/nonexistent-dir/tile.png").ok());
}

}  // namespace
}  // namespace vas
