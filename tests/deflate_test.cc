#include "render/deflate.h"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <random>
#include <string>

#include "gtest/gtest.h"
#include "util/crc32.h"

namespace vas {
namespace {

std::string RandomBytes(size_t n, uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> byte(0, 255);
  std::string out(n, '\0');
  for (size_t i = 0; i < n; ++i) {
    out[i] = static_cast<char>(byte(rng));
  }
  return out;
}

std::string RoundTrip(const std::string& raw, const DeflateOptions& options) {
  std::string compressed = ZlibCompress(raw, options);
  auto decoded = ZlibDecompress(compressed);
  EXPECT_TRUE(decoded.ok()) << decoded.status().message();
  return decoded.ok() ? *decoded : std::string("<decode failed>");
}

/// A zlib stream of stored DEFLATE blocks (RFC 1951 §3.2.4) of at most
/// 65535 bytes each: a BFINAL/BTYPE=00 byte, LEN and NLEN, then the
/// bytes. An empty input is one empty final block. ZlibCompress emits
/// only fixed-Huffman blocks; this feeds the inflater's stored branch.
std::string StoredZlibStream(const std::string& raw) {
  std::string out("\x78\x01", 2);
  size_t offset = 0;
  do {
    size_t block = std::min<size_t>(raw.size() - offset, 65535);
    bool final = offset + block == raw.size();
    out.push_back(final ? '\x01' : '\x00');
    uint16_t len = static_cast<uint16_t>(block);
    out.push_back(static_cast<char>(len & 0xff));
    out.push_back(static_cast<char>((len >> 8) & 0xff));
    out.push_back(static_cast<char>(~len & 0xff));
    out.push_back(static_cast<char>((~len >> 8) & 0xff));
    out.append(raw, offset, block);
    offset += block;
  } while (offset < raw.size());
  uint32_t adler = Adler32(raw);
  for (int shift = 24; shift >= 0; shift -= 8) {
    out.push_back(static_cast<char>((adler >> shift) & 0xff));
  }
  return out;
}

/// `n` bytes from the raw mt19937 stream reduced mod `alphabet`. Unlike
/// uniform_int_distribution, whose algorithm each standard library
/// picks, the mt19937 sequence is fixed by the standard — so goldens
/// over these bytes hold everywhere.
std::string SeededBytes(size_t n, uint32_t seed, uint32_t alphabet) {
  std::mt19937 rng(seed);
  std::string out(n, '\0');
  for (size_t i = 0; i < n; ++i) {
    out[i] = static_cast<char>(rng() % alphabet);
  }
  return out;
}

/// Every default-options stream for inputs `make(n)` with n in 0..70
/// and 250..270, each prefixed by its length: one string whose size
/// and CRC-32 pin all of those streams' bytes. The ranges put match
/// ends at every offset of an 8-byte word at the buffer tail, and
/// cross the 258-byte maximum match length.
std::string GoldenStreams(const std::function<std::string(size_t)>& make) {
  std::string all;
  for (size_t n = 0; n <= 270; n = n == 70 ? 250 : n + 1) {
    const std::string raw = make(n);
    const std::string compressed = ZlibCompress(raw);
    EXPECT_EQ(RoundTrip(raw, DeflateOptions{}), raw) << "n=" << n;
    all += std::to_string(compressed.size()) + ":" + compressed;
  }
  return all;
}

TEST(DeflateTest, EmptyInputRoundTripsBothBlockTypes) {
  EXPECT_EQ(RoundTrip("", DeflateOptions{}), "");
  auto stored = ZlibDecompress(StoredZlibStream(""));
  ASSERT_TRUE(stored.ok()) << stored.status().message();
  EXPECT_EQ(*stored, "");
}

TEST(DeflateTest, SmallStringsRoundTrip) {
  DeflateOptions options;
  for (const char* s :
       {"a", "ab", "abc", "hello hello hello hello", "mississippi",
        "aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa"}) {
    EXPECT_EQ(RoundTrip(s, options), s) << s;
  }
}

TEST(DeflateTest, GoldenStreamsForRunsAndRandomBytes) {
  // Size and CRC-32 of every default-options stream in each family:
  // served tile bytes depend on every match decision and every packed
  // bit, so neither may change a single output byte.
  struct Golden {
    const char* name;
    std::function<std::string(size_t)> make;
    size_t length;
    uint32_t crc;
  };
  const Golden goldens[] = {
      {"byte run", [](size_t n) { return std::string(n, '\x7f'); }, 1257,
       0x55c73c4du},
      {"pixel run",
       [](size_t n) {
         std::string out(n, '\0');
         for (size_t i = 0; i < n; ++i) out[i] = "\x1f\x77\xb4"[i % 3];
         return out;
       },
       1446, 0x9a7b8be5u},
      {"random 4 symbols",
       [](size_t n) { return SeededBytes(n, static_cast<uint32_t>(n), 4); },
       6227, 0xc45d7e16u},
      {"random bytes",
       [](size_t n) { return SeededBytes(n, static_cast<uint32_t>(n), 256); },
       9380, 0xce793174u},
  };
  for (const Golden& golden : goldens) {
    const std::string all = GoldenStreams(golden.make);
    EXPECT_EQ(all.size(), golden.length) << golden.name;
    EXPECT_EQ(Crc32(all), golden.crc) << golden.name;
  }
}

TEST(DeflateTest, RandomDataRoundTripsAtManySizes) {
  DeflateOptions options;
  // Sizes straddle block and window boundaries.
  for (size_t n : {1u, 2u, 3u, 255u, 256u, 4095u, 32768u, 65535u, 65536u,
                   200000u}) {
    std::string raw = RandomBytes(n, static_cast<uint32_t>(n));
    EXPECT_EQ(RoundTrip(raw, options), raw) << "n=" << n;
  }
}

TEST(DeflateTest, AllOneColorCompressesToTinyStream) {
  // A flat tile is the adversarial-compressible case: one long run.
  std::string raw(256 * 256 * 3, '\x7f');
  std::string compressed = ZlibCompress(raw);
  auto decoded = ZlibDecompress(compressed);
  ASSERT_TRUE(decoded.ok()) << decoded.status().message();
  EXPECT_EQ(*decoded, raw);
  // Fixed-Huffman LZ77 should crush a 196608-byte run by >100x.
  EXPECT_LT(compressed.size(), raw.size() / 100);
}

TEST(DeflateTest, IncompressibleDataStaysNearRawSize) {
  // Random bytes are the worst case: no matches, literals only. Fixed
  // Huffman spends 8-9 bits per literal, so expansion is bounded.
  std::string raw = RandomBytes(100000, 99);
  std::string compressed = ZlibCompress(raw);
  auto decoded = ZlibDecompress(compressed);
  ASSERT_TRUE(decoded.ok()) << decoded.status().message();
  EXPECT_EQ(*decoded, raw);
  EXPECT_LT(compressed.size(), raw.size() * 9 / 8 + 64);
}

TEST(DeflateTest, RepetitiveTextBeatsStored) {
  std::string raw;
  for (int i = 0; i < 500; ++i) {
    raw += "the quick brown fox jumps over the lazy dog; ";
  }
  std::string fixed = ZlibCompress(raw);
  // Stored blocks cost the raw bytes, 5 per 65535-byte block, and the
  // zlib header and Adler-32 (6).
  const size_t blocks = (raw.size() + 65534) / 65535;
  const size_t stored = raw.size() + 5 * blocks + 6;
  EXPECT_EQ(RoundTrip(raw, DeflateOptions{}), raw);
  EXPECT_LT(fixed.size(), stored / 4);
}

TEST(DeflateTest, MatchesSpanningWindowBoundaryRoundTrip) {
  // Period just under the 32 KiB window forces maximum-distance matches.
  std::string unit = RandomBytes(32700, 5);
  std::string raw = unit + unit + unit;
  EXPECT_EQ(RoundTrip(raw, DeflateOptions{}), raw);
}

TEST(DeflateTest, DeterministicAcrossRuns) {
  std::string raw = RandomBytes(50000, 11) + std::string(10000, 'x');
  EXPECT_EQ(ZlibCompress(raw), ZlibCompress(raw));
}

TEST(DeflateTest, ChainDepthTradesSizeForNothingElse) {
  std::string raw;
  std::mt19937 rng(13);
  std::uniform_int_distribution<int> word(0, 63);
  for (int i = 0; i < 20000; ++i) {
    raw += "w" + std::to_string(word(rng)) + " ";
  }
  DeflateOptions shallow;
  shallow.max_chain_length = 1;
  DeflateOptions deep;
  deep.max_chain_length = 256;
  std::string a = ZlibCompress(raw, shallow);
  std::string b = ZlibCompress(raw, deep);
  EXPECT_EQ(RoundTrip(raw, shallow), raw);
  EXPECT_EQ(RoundTrip(raw, deep), raw);
  EXPECT_LE(b.size(), a.size());
}

TEST(DeflateTest, StoredBlocksDecodeLargeInput) {
  std::string raw = RandomBytes(150000, 3);
  std::string stream = StoredZlibStream(raw);
  EXPECT_EQ(stream.size(), raw.size() + 3 * 5 + 6);  // three blocks
  auto decoded = ZlibDecompress(stream);
  ASSERT_TRUE(decoded.ok()) << decoded.status().message();
  EXPECT_EQ(*decoded, raw);
}

TEST(DeflateTest, Adler32MatchesKnownVectors) {
  EXPECT_EQ(Adler32(""), 1u);
  EXPECT_EQ(Adler32("Wikipedia"), 0x11E60398u);
}

TEST(DeflateTest, RejectsMalformedStreams) {
  EXPECT_FALSE(ZlibDecompress("").ok());
  EXPECT_FALSE(ZlibDecompress("x").ok());
  // Bad zlib header check bits.
  EXPECT_FALSE(ZlibDecompress(std::string("\x78\x02\x03\x00", 4)).ok());
  // Truncated valid stream loses the Adler trailer.
  std::string good = ZlibCompress("hello world hello world");
  EXPECT_FALSE(ZlibDecompress(good.substr(0, good.size() - 2)).ok());
  // Corrupt checksum.
  std::string bad = good;
  bad.back() = static_cast<char>(bad.back() ^ 0x5a);
  EXPECT_FALSE(ZlibDecompress(bad).ok());
}

}  // namespace
}  // namespace vas
