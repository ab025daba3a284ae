// Render + encode pipeline costs over a 1M-point catalog rung: the
// numbers behind this repo's vectorized-rasterizer and real-DEFLATE
// claims. Three phases per tile sweep:
//   (1) rasterization p50, the per-point scalar reference
//       (tests/render_reference.h) vs the served binned RenderSample
//       (must be pixel-identical; binned must be no slower, target
//       >=1.5x),
//   (2) PNG encode p50 and bytes/tile of the served stream (indexed
//       or filtered RGB, then DEFLATE; tiles must decode to
//       byte-identical pixels and be <=40% of the closed-form stored
//       size on scatter content),
//   (3) the heatmap style (RenderCounts -> RenderDensityImage) render +
//       encode p50 and bytes/tile.
#include "bench_common.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <vector>

#include "render/deflate.h"
#include "render/scatter_renderer.h"
#include "render_reference.h"
#include "sampling/uniform_sampler.h"
#include "service/tile_math.h"
#include "util/stopwatch.h"

namespace vas::bench {
namespace {

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t at = static_cast<size_t>(p * static_cast<double>(values.size() - 1));
  return values[at];
}

int Fail(const std::string& message) {
  std::fprintf(stderr, "error: %s\n", message.c_str());
  return 1;
}

uint32_t ReadBe32(const std::string& s, size_t at) {
  return (static_cast<uint32_t>(static_cast<uint8_t>(s[at])) << 24) |
         (static_cast<uint32_t>(static_cast<uint8_t>(s[at + 1])) << 16) |
         (static_cast<uint32_t>(static_cast<uint8_t>(s[at + 2])) << 8) |
         static_cast<uint32_t>(static_cast<uint8_t>(s[at + 3]));
}

uint8_t Paeth(uint8_t a, uint8_t b, uint8_t c) {
  int p = int(a) + int(b) - int(c);
  int pa = std::abs(p - int(a));
  int pb = std::abs(p - int(b));
  int pc = std::abs(p - int(c));
  if (pa <= pb && pa <= pc) return a;
  return pb <= pc ? b : c;
}

/// Decodes a PNG written by Image::EncodePng back to raw RGB bytes
/// (chunk walk + reference inflater + unfilter, then the palette lookup
/// for an indexed image). The decode-identity gate runs through this,
/// so a filter, palette or DEFLATE bug cannot pass.
StatusOr<std::string> DecodePngPixels(const std::string& png) {
  if (png.size() < 8 ||
      png.substr(0, 8) != std::string("\x89PNG\r\n\x1a\n", 8)) {
    return Status::InvalidArgument("bad PNG signature");
  }
  size_t at = 8;
  size_t width = 0, height = 0;
  uint8_t color_type = 0;
  std::string palette, idat;
  while (at + 8 <= png.size()) {
    uint32_t len = ReadBe32(png, at);
    std::string type = png.substr(at + 4, 4);
    if (at + 12 + len > png.size()) {
      return Status::InvalidArgument("truncated chunk");
    }
    if (type == "IHDR") {
      width = ReadBe32(png, at + 8);
      height = ReadBe32(png, at + 12);
      color_type = static_cast<uint8_t>(png[at + 17]);
    } else if (type == "PLTE") {
      palette = png.substr(at + 8, len);
    } else if (type == "IDAT") {
      idat += png.substr(at + 8, len);
    }
    at += 12 + len;
  }
  if (color_type != 2 && color_type != 3) {
    return Status::InvalidArgument("unsupported color type");
  }
  const size_t entries = palette.size() / 3;
  if (color_type == 3 && (palette.size() % 3 != 0 || entries == 0 ||
                          entries > 256)) {
    return Status::InvalidArgument("bad palette");
  }
  VAS_ASSIGN_OR_RETURN(std::string raw, ZlibDecompress(idat));
  const size_t bpp = color_type == 3 ? 1 : 3;
  size_t stride = width * bpp;
  if (raw.size() != (stride + 1) * height) {
    return Status::InvalidArgument("scanline size mismatch");
  }
  std::string out(stride * height, '\0');
  for (size_t y = 0; y < height; ++y) {
    uint8_t filter = static_cast<uint8_t>(raw[y * (stride + 1)]);
    const uint8_t* in =
        reinterpret_cast<const uint8_t*>(raw.data()) + y * (stride + 1) + 1;
    uint8_t* cur = reinterpret_cast<uint8_t*>(out.data()) + y * stride;
    const uint8_t* prev =
        y > 0 ? reinterpret_cast<uint8_t*>(out.data()) + (y - 1) * stride
              : nullptr;
    for (size_t i = 0; i < stride; ++i) {
      uint8_t left = i >= bpp ? cur[i - bpp] : 0;
      uint8_t up = prev != nullptr ? prev[i] : 0;
      uint8_t upleft = (prev != nullptr && i >= bpp) ? prev[i - bpp] : 0;
      uint8_t recon = in[i];
      switch (filter) {
        case 0: break;
        case 1: recon = static_cast<uint8_t>(recon + left); break;
        case 2: recon = static_cast<uint8_t>(recon + up); break;
        case 3:
          recon = static_cast<uint8_t>(recon + (int(left) + int(up)) / 2);
          break;
        case 4:
          recon = static_cast<uint8_t>(recon + Paeth(left, up, upleft));
          break;
        default:
          return Status::InvalidArgument("unknown filter type");
      }
      cur[i] = recon;
    }
  }
  if (color_type == 2) return out;
  std::string rgb;
  rgb.reserve(out.size() * 3);
  for (char index : out) {
    const size_t at = static_cast<uint8_t>(index);
    if (at >= entries) {
      return Status::InvalidArgument("palette index out of range");
    }
    rgb.append(palette, at * 3, 3);
  }
  return rgb;
}

std::string RawPixels(const Image& img) {
  std::string out;
  out.reserve(img.width() * img.height() * 3);
  for (size_t y = 0; y < img.height(); ++y) {
    for (size_t x = 0; x < img.width(); ++x) {
      const Rgb c = img.Get(x, y);
      out.push_back(static_cast<char>(c.r));
      out.push_back(static_cast<char>(c.g));
      out.push_back(static_cast<char>(c.b));
    }
  }
  return out;
}

bool PixelsEqual(const Image& a, const Image& b) {
  if (a.width() != b.width() || a.height() != b.height()) return false;
  for (size_t y = 0; y < a.height(); ++y) {
    for (size_t x = 0; x < a.width(); ++x) {
      if (!(a.Get(x, y) == b.Get(x, y))) return false;
    }
  }
  return true;
}

int Run(int argc, char** argv) {
  FlagSet flags;
  flags.Define("n", "1000000", "generated dataset size");
  flags.Define("k", "100000", "sample rung size rendered per tile");
  flags.Define("zoom", "2", "zoom level swept (4^zoom tiles)");
  flags.Define("tile-px", "256", "tile edge in pixels");
  flags.Define("repeats", "3", "render repetitions per tile per renderer");
  if (!ParseBenchFlags(flags, argc, argv,
                       "Render + encode pipeline: scalar reference vs "
                       "binned rasterization p50, DEFLATE tile bytes "
                       "against the stored size with decode-identity "
                       "gates, and the heatmap style's cost.")) {
    return 0;
  }
  size_t n = static_cast<size_t>(flags.GetInt("n"));
  size_t k = static_cast<size_t>(flags.GetInt("k"));
  uint32_t zoom = static_cast<uint32_t>(flags.GetInt("zoom"));
  size_t tile_px = static_cast<size_t>(flags.GetInt("tile-px"));
  size_t repeats = std::max<size_t>(1, flags.GetInt("repeats"));
  bool quick = flags.GetBool("quick");
  if (quick) {
    n = 100000;
    k = 10000;
    zoom = std::min<uint32_t>(zoom, 1);
  }

  PrintHeader(StrFormat(
      "Render + encode over %s points (rung %s, zoom %u, %zux%zu tiles)",
      FormatWithCommas(static_cast<int64_t>(n)).c_str(),
      FormatWithCommas(static_cast<int64_t>(k)).c_str(), zoom, tile_px,
      tile_px));

  Stopwatch watch;
  Dataset dataset = MakeGeolifeLike(n);
  dataset.CacheBounds();
  UniformReservoirSampler sampler(1);
  SampleSet rung = sampler.Sample(dataset, std::min(k, n));
  std::printf("generated %s tuples, sampled %s in %.2fs\n",
              FormatWithCommas(static_cast<int64_t>(n)).c_str(),
              FormatWithCommas(static_cast<int64_t>(rung.size())).c_str(),
              watch.ElapsedSeconds());

  TileGrid grid(dataset.Bounds());
  uint32_t per_axis = TileGrid::TilesPerAxis(zoom);
  std::vector<TileKey> tiles;
  for (uint32_t y = 0; y < per_axis; ++y) {
    for (uint32_t x = 0; x < per_axis; ++x) {
      tiles.push_back(TileKey{zoom, x, y});
    }
  }

  ScatterRenderer::Options options;
  options.width_px = tile_px;
  options.height_px = tile_px;
  ScatterRenderer binned(options);

  // --- Phase 1: rasterization, scalar reference vs binned -----------
  std::vector<double> scalar_ms, binned_ms;
  std::vector<Image> rendered;
  bool pixels_identical = true;
  for (const TileKey& tile : tiles) {
    Viewport viewport(grid.TileBounds(tile), tile_px, tile_px);
    Image scalar_img(1, 1), binned_img(1, 1);
    for (size_t r = 0; r < repeats; ++r) {
      watch.Restart();
      scalar_img = test::RenderSampleScalar(options, dataset, rung, viewport);
      scalar_ms.push_back(watch.ElapsedSeconds() * 1000.0);
      watch.Restart();
      binned_img = binned.RenderSample(dataset, rung, viewport);
      binned_ms.push_back(watch.ElapsedSeconds() * 1000.0);
    }
    pixels_identical = pixels_identical && PixelsEqual(scalar_img, binned_img);
    rendered.push_back(std::move(binned_img));
  }
  double scalar_p50 = Percentile(scalar_ms, 0.5);
  double binned_p50 = Percentile(binned_ms, 0.5);
  double render_speedup = binned_p50 > 0 ? scalar_p50 / binned_p50 : 0.0;
  std::printf(
      "\nscatter render (%zu tiles x %zu reps): scalar p50 %.2fms, "
      "binned p50 %.2fms  (%.2fx, pixel-identical: %s)\n",
      tiles.size(), repeats, scalar_p50, binned_p50, render_speedup,
      pixels_identical ? "yes" : "NO — PIPELINE BUG");

  // --- Phase 2: filtered DEFLATE encode vs the stored size ----------
  std::vector<double> fixed_ms;
  size_t stored_bytes = 0, fixed_bytes = 0;
  bool decode_identical = true;
  for (const Image& img : rendered) {
    watch.Restart();
    std::string fixed = img.EncodePng();
    fixed_ms.push_back(watch.ElapsedSeconds() * 1000.0);
    stored_bytes += test::StoredPngBytes(img.width(), img.height());
    fixed_bytes += fixed.size();
    auto fixed_pixels = DecodePngPixels(fixed);
    decode_identical = decode_identical && fixed_pixels.ok() &&
                       *fixed_pixels == RawPixels(img);
  }
  double bytes_ratio =
      stored_bytes > 0
          ? static_cast<double>(fixed_bytes) / static_cast<double>(stored_bytes)
          : 1.0;
  std::printf(
      "scatter encode: deflate p50 %.2fms (%zu B/tile) — %.1f%% of stored "
      "(%zu B/tile), decode-identical: %s\n",
      Percentile(fixed_ms, 0.5), fixed_bytes / rendered.size(),
      bytes_ratio * 100.0, stored_bytes / rendered.size(),
      decode_identical ? "yes" : "NO — CODEC BUG");

  // --- Phase 3: the heatmap style -----------------------------------
  std::vector<double> heat_render_ms, heat_encode_ms;
  size_t heat_bytes = 0;
  std::vector<Point> points = rung.MaterializePoints(dataset);
  std::vector<uint64_t> no_weights;
  for (const TileKey& tile : tiles) {
    Viewport viewport(grid.TileBounds(tile), tile_px, tile_px);
    watch.Restart();
    std::vector<uint32_t> counts =
        binned.RenderCounts(points, no_weights, viewport);
    Image heat = RenderDensityImage(counts, tile_px, tile_px,
                                    ColormapKind::kViridis, {255, 255, 255});
    heat_render_ms.push_back(watch.ElapsedSeconds() * 1000.0);
    watch.Restart();
    std::string png = heat.EncodePng();
    heat_encode_ms.push_back(watch.ElapsedSeconds() * 1000.0);
    heat_bytes += png.size();
  }
  std::printf(
      "heatmap style: render p50 %.2fms, encode p50 %.2fms, %zu B/tile\n",
      Percentile(heat_render_ms, 0.5), Percentile(heat_encode_ms, 0.5),
      heat_bytes / tiles.size());

  // Written before the pass/fail gates so the perf trajectory records
  // failing runs too.
  JsonMetrics metrics;
  metrics.Set("n", n);
  metrics.Set("rung", rung.size());
  metrics.Set("tiles", tiles.size());
  metrics.Set("tile_px", tile_px);
  metrics.Set("scalar_render_p50_ms", scalar_p50);
  metrics.Set("binned_render_p50_ms", binned_p50);
  metrics.Set("render_speedup_p50", render_speedup);
  metrics.Set("pixels_identical", pixels_identical);
  metrics.Set("deflate_encode_p50_ms", Percentile(fixed_ms, 0.5));
  metrics.Set("stored_bytes_per_tile", stored_bytes / rendered.size());
  metrics.Set("deflate_bytes_per_tile", fixed_bytes / rendered.size());
  metrics.Set("deflate_to_stored_ratio", bytes_ratio);
  metrics.Set("decode_identical", decode_identical);
  metrics.Set("heatmap_render_p50_ms", Percentile(heat_render_ms, 0.5));
  metrics.Set("heatmap_encode_p50_ms", Percentile(heat_encode_ms, 0.5));
  metrics.Set("heatmap_bytes_per_tile", heat_bytes / tiles.size());
  Status wrote = metrics.WriteIfRequested(flags.GetString("json"));
  if (!wrote.ok()) return Fail(wrote.ToString());

  if (!pixels_identical) {
    return Fail("binned rasterizer is not pixel-identical to the scalar "
                "reference");
  }
  if (!decode_identical) {
    return Fail("encoded tiles do not decode back to their pixels");
  }
  if (bytes_ratio > 0.40) {
    return Fail(StrFormat(
        "DEFLATE tiles are %.1f%% of stored — above the 40%% criterion",
        bytes_ratio * 100.0));
  }
  // A quick run's render sample (a handful of sub-millisecond tiles) is
  // below timer noise — the regression gate only means something at the
  // full 1M-point scale.
  if (!quick && render_speedup < 1.0) {
    return Fail(StrFormat(
        "binned rasterization %.2fx vs scalar — slower than the baseline",
        render_speedup));
  }
  std::printf(
      "\nbinned rasterization %.2fx vs scalar%s; DEFLATE tiles at %.1f%% "
      "of stored bytes (meets <=40%%)\n",
      render_speedup,
      render_speedup >= 1.5 ? " (meets >=1.5x target)"
                            : " (below the 1.5x target)",
      bytes_ratio * 100.0);
  return 0;
}

}  // namespace
}  // namespace vas::bench

int main(int argc, char** argv) { return vas::bench::Run(argc, argv); }
