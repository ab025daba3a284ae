#include "render/deflate.h"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <queue>
#include <random>
#include <string>
#include <utility>
#include <vector>

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

/// Unstructured input: no pixel or row geometry for the matcher.
std::string Compress(const std::string& raw) { return ZlibCompress(raw, 1, 0); }

std::string RoundTrip(const std::string& raw) {
  std::string compressed = Compress(raw);
  auto decoded = ZlibDecompress(compressed);
  EXPECT_TRUE(decoded.ok()) << decoded.status().message();
  return decoded.ok() ? *decoded : std::string("<decode failed>");
}

/// A zlib stream of stored DEFLATE blocks (RFC 1951 §3.2.4) of at most
/// 65535 bytes each: a BFINAL/BTYPE=00 byte, LEN and NLEN, then the
/// bytes. An empty input is one empty final block. ZlibCompress emits
/// only Huffman-coded blocks; this feeds the inflater's stored branch.
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

/// Adler-32 one byte at a time, the library's earlier loop: the oracle
/// for the 16-lane version.
uint32_t ReferenceAdler32(const std::string& data) {
  const uint32_t kMod = 65521;
  const size_t kNmax = 5552;
  uint32_t a = 1;
  uint32_t b = 0;
  size_t i = 0;
  const auto* bytes = reinterpret_cast<const unsigned char*>(data.data());
  while (i < data.size()) {
    size_t run = std::min(kNmax, data.size() - i);
    for (size_t j = 0; j < run; ++j) {
      a += bytes[i + j];
      b += a;
    }
    a %= kMod;
    b %= kMod;
    i += run;
  }
  return (b << 16) | a;
}

/// The code lengths a stream's first block sends, read by a decoder
/// independent of the library's: `block_type` is BTYPE, and the three
/// tables are filled only for a dynamic block (2). `run_counts` counts
/// each code-length symbol the header used.
struct FirstBlockHeader {
  int block_type = -1;
  std::vector<int> litlen;
  std::vector<int> dist;
  std::vector<int> code_length;  // by symbol 0..18
  std::vector<int> run_counts;   // by symbol 0..18
};

class TestBitReader {
 public:
  TestBitReader(const std::string& data, size_t bit) : data_(data), bit_(bit) {}
  int Bit() {
    if (bit_ / 8 >= data_.size()) return 0;
    const int b = (static_cast<unsigned char>(data_[bit_ / 8]) >> (bit_ % 8)) & 1;
    ++bit_;
    return b;
  }
  int Bits(int n) {
    int v = 0;
    for (int i = 0; i < n; ++i) v |= Bit() << i;
    return v;
  }
  /// One symbol of the canonical code with these lengths, or -1.
  int Symbol(const std::vector<int>& lengths) {
    int code = 0;
    int first = 0;
    for (int len = 1; len <= 15; ++len) {
      code |= Bit();
      int count = 0;
      for (int l : lengths) count += l == len;
      if (code - first < count) {
        int k = code - first;
        for (size_t sym = 0; sym < lengths.size(); ++sym) {
          if (lengths[sym] == len && k-- == 0) return static_cast<int>(sym);
        }
      }
      first = (first + count) << 1;
      code <<= 1;
    }
    return -1;
  }

 private:
  const std::string& data_;
  size_t bit_;
};

FirstBlockHeader ReadFirstBlockHeader(const std::string& stream) {
  FirstBlockHeader h;
  TestBitReader in(stream, 16);  // past the 2-byte zlib header
  in.Bit();                      // BFINAL
  h.block_type = in.Bits(2);
  if (h.block_type != 2) return h;
  const int litlen_count = in.Bits(5) + 257;
  const int dist_count = in.Bits(5) + 1;
  const int code_length_count = in.Bits(4) + 4;
  static const int kOrder[19] = {16, 17, 18, 0, 8,  7, 9,  6, 10, 5,
                                 11, 4,  12, 3, 13, 2, 14, 1, 15};
  h.code_length.assign(19, 0);
  h.run_counts.assign(19, 0);
  for (int i = 0; i < code_length_count; ++i) {
    h.code_length[kOrder[i]] = in.Bits(3);
  }
  std::vector<int> all;
  while (static_cast<int>(all.size()) < litlen_count + dist_count) {
    const int sym = in.Symbol(h.code_length);
    if (sym < 0) return FirstBlockHeader();
    ++h.run_counts[sym];
    if (sym < 16) {
      all.push_back(sym);
    } else if (sym == 16) {
      const int value = all.empty() ? 0 : all.back();
      all.insert(all.end(), 3 + in.Bits(2), value);
    } else {
      all.insert(all.end(), sym == 17 ? 3 + in.Bits(3) : 11 + in.Bits(7), 0);
    }
  }
  all.resize(litlen_count + dist_count);
  h.litlen.assign(all.begin(), all.begin() + litlen_count);
  h.dist.assign(all.begin() + litlen_count, all.end());
  return h;
}

int MaxOf(const std::vector<int>& v) {
  return v.empty() ? 0 : *std::max_element(v.begin(), v.end());
}

int UsedOf(const std::vector<int>& v) {
  return static_cast<int>(std::count_if(v.begin(), v.end(),
                                        [](int x) { return x != 0; }));
}

/// Kraft sum of `lengths` in units of 2^-15: 32768 for a complete code.
uint32_t KraftUnits(const std::vector<int>& lengths) {
  uint32_t units = 0;
  for (int len : lengths) {
    if (len != 0) units += 1u << (15 - len);
  }
  return units;
}

/// Code lengths of an unbounded Huffman code, by repeatedly merging the
/// two lightest trees: the reference for HuffmanCodeLengths below its
/// length limit. Returns the total cost sum(freq * length).
uint64_t ReferenceHuffmanCost(const std::vector<uint32_t>& freq,
                              int* max_length) {
  using Tree = std::pair<uint64_t, std::vector<size_t>>;  // weight, leaves
  auto heavier = [](const Tree& a, const Tree& b) { return a.first > b.first; };
  std::priority_queue<Tree, std::vector<Tree>, decltype(heavier)> trees(heavier);
  for (size_t sym = 0; sym < freq.size(); ++sym) {
    if (freq[sym] != 0) trees.push({freq[sym], {sym}});
  }
  std::vector<int> depth(freq.size(), 0);
  while (trees.size() > 1) {
    Tree a = trees.top();
    trees.pop();
    Tree b = trees.top();
    trees.pop();
    for (size_t sym : a.second) ++depth[sym];
    for (size_t sym : b.second) ++depth[sym];
    a.second.insert(a.second.end(), b.second.begin(), b.second.end());
    trees.push({a.first + b.first, a.second});
  }
  uint64_t cost = 0;
  *max_length = 0;
  for (size_t sym = 0; sym < freq.size(); ++sym) {
    cost += uint64_t{freq[sym]} * static_cast<uint64_t>(depth[sym]);
    *max_length = std::max(*max_length, depth[sym]);
  }
  return cost;
}

std::vector<int> CodeLengths(const std::vector<uint32_t>& freq, int max_bits) {
  std::vector<uint8_t> lengths(freq.size());
  HuffmanCodeLengths(freq.data(), freq.size(), max_bits, lengths.data());
  return std::vector<int>(lengths.begin(), lengths.end());
}

/// A de Bruijn sequence over `k` letters of order 3: every 3-byte
/// window is distinct, so no match of 3 or more bytes exists.
void DeBruijn(int t, int p, int k, std::vector<int>* a, std::string* out) {
  if (t > 3) {
    if (3 % p == 0) {
      for (int j = 1; j <= p; ++j) out->push_back(static_cast<char>('a' + (*a)[j]));
    }
    return;
  }
  (*a)[t] = (*a)[t - p];
  DeBruijn(t + 1, p, k, a, out);
  for (int j = (*a)[t - p] + 1; j < k; ++j) {
    (*a)[t] = j;
    DeBruijn(t + 1, t, k, a, out);
  }
}

/// Every stream for inputs `make(n)` with n in 0..70
/// and 250..270, each prefixed by its length: one string whose size
/// and CRC-32 pin all of those streams' bytes. The ranges put match
/// ends at every offset of an 8-byte word at the buffer tail, and
/// cross the 258-byte maximum match length.
std::string GoldenStreams(const std::function<std::string(size_t)>& make) {
  std::string all;
  for (size_t n = 0; n <= 270; n = n == 70 ? 250 : n + 1) {
    const std::string raw = make(n);
    const std::string compressed = Compress(raw);
    EXPECT_EQ(RoundTrip(raw), raw) << "n=" << n;
    all += std::to_string(compressed.size()) + ":" + compressed;
  }
  return all;
}

TEST(DeflateTest, EmptyInputRoundTripsBothBlockTypes) {
  EXPECT_EQ(RoundTrip(""), "");
  auto stored = ZlibDecompress(StoredZlibStream(""));
  ASSERT_TRUE(stored.ok()) << stored.status().message();
  EXPECT_EQ(*stored, "");
}

TEST(DeflateTest, SmallStringsRoundTrip) {
  for (const char* s :
       {"a", "ab", "abc", "hello hello hello hello", "mississippi",
        "aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa"}) {
    EXPECT_EQ(RoundTrip(s), s) << s;
  }
}

TEST(DeflateTest, GoldenStreamsForRunsAndRandomBytes) {
  // Size and CRC-32 of every stream in each family (the byte runs and
  // random bytes, short as they are, are written as fixed blocks):
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
       1453, 0x20b499bbu},
      {"random 4 symbols",
       [](size_t n) { return SeededBytes(n, static_cast<uint32_t>(n), 4); },
       4941, 0x8c5c0702u},
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
  // Sizes straddle block and window boundaries.
  for (size_t n : {1u, 2u, 3u, 255u, 256u, 4095u, 32768u, 65535u, 65536u,
                   200000u}) {
    std::string raw = RandomBytes(n, static_cast<uint32_t>(n));
    EXPECT_EQ(RoundTrip(raw), raw) << "n=" << n;
  }
}

TEST(DeflateTest, AllOneColorCompressesToTinyStream) {
  // A flat tile is the adversarial-compressible case: one long run.
  std::string raw(256 * 256 * 3, '\x7f');
  std::string compressed = Compress(raw);
  auto decoded = ZlibDecompress(compressed);
  ASSERT_TRUE(decoded.ok()) << decoded.status().message();
  EXPECT_EQ(*decoded, raw);
  // LZ77 should crush a 196608-byte run by >100x.
  EXPECT_LT(compressed.size(), raw.size() / 100);
}

TEST(DeflateTest, IncompressibleDataStaysNearRawSize) {
  // Random bytes are the worst case: no matches, literals only. A
  // block spends at most the fixed code's 8-9 bits per literal, so
  // expansion is bounded.
  std::string raw = RandomBytes(100000, 99);
  std::string compressed = Compress(raw);
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
  std::string fixed = Compress(raw);
  // Stored blocks cost the raw bytes, 5 per 65535-byte block, and the
  // zlib header and Adler-32 (6).
  const size_t blocks = (raw.size() + 65534) / 65535;
  const size_t stored = raw.size() + 5 * blocks + 6;
  EXPECT_EQ(RoundTrip(raw), raw);
  EXPECT_LT(fixed.size(), stored / 4);
}

TEST(DeflateTest, MatchesSpanningWindowBoundaryRoundTrip) {
  // Period just under the 32 KiB window forces maximum-distance matches.
  std::string unit = RandomBytes(32700, 5);
  std::string raw = unit + unit + unit;
  EXPECT_EQ(RoundTrip(raw), raw);
}

TEST(DeflateTest, DeterministicAcrossRuns) {
  std::string raw = RandomBytes(50000, 11) + std::string(10000, 'x');
  EXPECT_EQ(Compress(raw), Compress(raw));
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
  std::string good = Compress("hello world hello world");
  EXPECT_FALSE(ZlibDecompress(good.substr(0, good.size() - 2)).ok());
  // Corrupt checksum.
  std::string bad = good;
  bad.back() = static_cast<char>(bad.back() ^ 0x5a);
  EXPECT_FALSE(ZlibDecompress(bad).ok());
}

TEST(DeflateTest, Adler32MatchesTheBytewiseLoop) {
  std::vector<size_t> sizes;
  for (size_t n = 0; n <= 70; ++n) sizes.push_back(n);
  for (size_t n : {5551u, 5552u, 5553u, 65792u, 200000u}) sizes.push_back(n);
  for (size_t n : sizes) {
    const std::string random = SeededBytes(n, static_cast<uint32_t>(n), 256);
    EXPECT_EQ(Adler32(random), ReferenceAdler32(random)) << "n=" << n;
    // All 0xff bytes make the largest lane sums.
    const std::string ones(n, '\xff');
    EXPECT_EQ(Adler32(ones), ReferenceAdler32(ones)) << "0xff n=" << n;
  }
}

TEST(DeflateTest, DecodesStreamsFromAnIndependentEncoder) {
  // Python's zlib compressed these inputs: the text at levels 1, 6 and
  // 9 and at memLevel 1 (which closes a dynamic block every few
  // hundred symbols), the runs with Z_RLE (distance-1 matches only).
  // Every stream starts with a dynamic block.
  std::string text;
  for (int i = 0; i < 60; ++i) {
    text += "line " + std::to_string(i) + ": the quick brown fox jumps over " +
            std::to_string(i * 7 % 13) + " lazy dogs\n";
  }
  std::string runs;
  for (int i = 0; i < 1200; ++i) {
    runs.push_back(static_cast<char>((i / 7) * 37 % 11 + 0x41));
  }
  const std::pair<const std::string*, std::string> cases[] = {
      // level 1
      {&text,
       std::string(
           "\x78\x01\x85\xd2\x49\x4e\x04\x31\x14\x04\xd1\x3d\xa7\xf0\x11\xfa"
           "\xdb\xdf\x3d\x70\x1b\x86\x02\x1a\x8a\x2e\xe8\x81\xe9\xf4\x88\x25"
           "\x8e\x45\x1c\x20\x94\x52\xea\xcd\xfb\xc3\x54\x56\xd7\xe5\xfc\x34"
           "\x95\xf7\xcb\xfe\xee\xa5\xdc\x1e\x97\xcf\x43\x79\x58\xbe\xca\xf3"
           "\xe5\xf5\xed\x54\x96\x8f\xe9\x58\x56\x65\xbe\xf9\xf9\x2e\xf7\xcb"
           "\xe3\xe9\x6a\xfe\x4b\x42\x93\xcd\x98\x54\x4d\x62\x4c\x9a\x26\xdb"
           "\x31\x49\x4d\xea\x98\x74\x4d\x76\x63\xb2\xd6\xa4\x8d\xc9\x46\x93"
           "\xc0\xcb\x5b\x6d\x72\x9c\xd9\x69\x12\xb8\x39\x1c\x40\x1f\x77\xc2"
           "\x05\x04\x9e\x0e\x37\xb0\xc6\x90\x23\xc0\x6f\xe1\x0a\xc0\x33\x9c"
           "\x01\x8f\x73\x07\x00\x1a\x0e\x81\xbf\x39\x04\x10\x0d\x97\x00\xa3"
           "\xd5\x21\x10\x69\x75\x09\x50\x5a\x1d\x02\x99\x56\x97\x00\xa6\xd5"
           "\x25\x90\x69\x75\x0a\x60\x5a\x9d\x02\x98\x56\xa7\x00\xa6\xd5\x29"
           "\x80\x69\x75\x0a\x60\xda\x9c\x02\x98\x36\x97\x00\xa6\xcd\x25\x80"
           "\x69\x73\x08\x64\xda\x5c\x02\x98\x36\x87\x40\xa6\xcd\x25\x80\x69"
           "\x73\x09\x64\xda\x9c\x02\x98\x36\xa7\x00\xa6\xe9\x14\xc0\x34\x9d"
           "\x02\x98\xa6\x53\x00\xd3\x74\x0a\x60\x9a\x2e\x01\x4c\xd3\x25\x80"
           "\x69\x3a\x04\x32\x4d\x97\x00\xa6\xe9\x10\xc8\x34\x5d\x02\x98\x76"
           "\x97\x40\xa6\xdd\x29\x80\x69\x77\x0a\x60\xda\x9d\x02\x98\x76\xa7"
           "\x00\xa6\xdd\x29\x80\x69\x77\x0a\x60\xda\x5d\x02\x98\x76\x97\x00"
           "\xa6\xdd\x21\xfc\x63\xfa\x0b\xf3\xc7\x35\x80",
                   315)},
      // level 6
      {&text,
       std::string(
           "\x78\x9c\x8d\xd6\xc9\x4d\x03\x41\x14\x06\xe1\x3b\x51\xbc\x10\xdc"
           "\x9b\x17\xb2\x61\x19\xc0\x30\x78\xc0\x0b\x5b\xf4\x88\x1b\xea\x3a"
           "\x54\x07\x50\xb2\xfc\xeb\x53\xbf\x99\xf7\x87\x29\x56\xd7\x71\x7e"
           "\x9a\xe2\xfd\xb2\xbf\x7b\x89\xdb\xe3\xf2\x79\x88\x87\xe5\x2b\x9e"
           "\x2f\xaf\x6f\xa7\x58\x3e\xa6\x63\xac\x62\xbe\xf9\xf9\x8e\xfb\xe5"
           "\xf1\x74\x35\xff\x25\x49\x93\x4d\x9f\x64\x4d\x52\x9f\x14\x4d\xb6"
           "\x7d\x52\x35\xc9\x7d\xd2\x34\xd9\xf5\xc9\x5a\x93\xd2\x27\x1b\xff"
           "\xfb\x58\x79\xab\x4d\xed\x93\x9d\xff\x0c\x66\x4e\x0e\xa0\xa1\x71"
           "\x01\x09\x4b\x27\x37\xb0\x46\xe3\x08\xa8\xd3\x15\x80\x67\x72\x06"
           "\x1c\xce\x1d\x00\x68\x72\x08\xdc\xcd\x21\x80\x68\x72\x09\x30\x9a"
           "\x1d\x02\x91\x66\x97\x00\xa5\x79\xe0\x31\xc0\xda\xd9\x25\x80\x69"
           "\x76\x09\x64\x9a\x9d\x02\x98\x66\xa7\xc0\xe5\x9c\x02\x5f\x51\xa7"
           "\xc0\xe1\x9c\x02\x98\x16\xa7\x80\xdd\x8a\x4b\x00\xd3\xe2\x12\xc0"
           "\xb4\x38\x04\x32\x2d\x2e\x01\x4c\xcb\xc0\x9b\xc0\xa3\xe5\x12\xc0"
           "\xb4\x0c\x5c\x07\xce\xed\x14\xc0\xb4\x38\x05\x2c\x57\x9d\x02\x98"
           "\xd6\x81\xf3\x80\xc6\x29\xf0\xdc\x3b\x05\xec\x56\x5d\x02\x98\x56"
           "\x97\x00\xa6\xd5\x21\x90\x69\x75\x09\x60\x5a\x07\xde\x04\xae\xed"
           "\x12\xc0\xb4\x0d\xdc\x07\x7e\x5e\x39\x05\x30\x6d\x4e\x01\xcb\x35"
           "\xa7\x00\xa6\x6d\xe0\x3c\xa0\x71\x0a\x60\xda\x9c\x02\x77\x73\x09"
           "\x60\xda\x5c\x02\x98\xb6\x81\x4f\xc6\xff\x63\xff\x02\xf3\xc7\x35"
           "\x80",
                   321)},
      // level 9
      {&text,
       std::string(
           "\x78\xda\x9d\xd6\x49\x4e\x04\x31\x0c\x85\xe1\x3d\xa7\xf0\x11\xe2"
           "\x29\x03\xb7\x61\x28\xa0\xa1\xe8\x82\x6e\x9a\xe9\xf4\x88\x6d\x6a"
           "\x61\x3d\x1f\xe0\x57\x14\xeb\x53\xe2\xf5\x70\x5c\xa8\x5c\xd3\xc7"
           "\xd3\x42\xef\x97\xc3\xdd\x0b\xdd\x9e\xb6\xaf\x23\x3d\x6c\xdf\xf4"
           "\x7c\x79\x7d\x3b\xd3\xf6\xb9\x9c\xa8\xd0\x7a\xf3\xfb\x43\xf7\xdb"
           "\xe3\xf9\x6a\xfd\x4f\x38\x4c\xda\x9c\x48\x98\xf0\x9c\x68\x98\xf4"
           "\x39\xb1\x30\x91\x39\xf1\x30\x19\x73\x52\xc3\x44\xe7\xa4\xc5\xd7"
           "\xdf\x4d\xb9\x87\x8d\xcd\xc9\x88\x8f\xd9\x8d\x99\x63\x00\xbe\x6b"
           "\x62\x01\xbc\x9b\x34\xc7\x06\xea\xae\xd1\x84\x4e\xc3\x79\xb2\xe3"
           "\x3e\xb9\xe2\x40\xb9\xe1\x42\xb9\xe3\x44\x79\xe0\x46\xa5\x24\x90"
           "\x0a\xe3\x4a\x45\x12\x4c\x45\x71\xa6\x62\x09\xa6\xe2\x38\x53\xa9"
           "\x38\x53\x69\x89\x57\xb4\xe3\x4c\x65\xe0\x4c\xb5\xe0\x4c\x95\x71"
           "\xa6\x2a\x38\x53\xd5\x04\x53\x35\x9c\xa9\x7a\x82\xa9\x56\x9c\xa9"
           "\xb6\x04\x53\xed\x38\x53\x1d\x38\x53\x2b\x38\x53\x63\x9c\xa9\x49"
           "\xe2\xbb\x57\x9c\xa9\x19\xce\xd4\x1c\x67\x6a\x35\xc1\xd4\x1a\xce"
           "\xd4\x7a\x82\xa9\x0d\x9c\xa9\x97\x04\x53\x67\x9c\xa9\x0b\xce\xd4"
           "\x15\x67\xea\x86\x33\x75\xc7\x99\x7a\x4d\xac\xa5\x0d\x67\xea\x1d"
           "\x67\xea\x03\x63\xfa\x07\xf3\xc7\x35\x80",
                   282)},
      // level 6, memLevel 1
      {&text,
       std::string(
           "\x78\x9c\x8c\xd4\x49\x0e\xc2\x30\x10\x44\xd1\x3d\xa7\xe8\x23\xa4"
           "\x3b\x33\xb7\x61\x30\x10\x30\x31\x64\x60\x3a\x7d\x94\x6d\xd7\xa2"
           "\x38\xc0\x57\xcb\xa5\x27\xc7\xae\x0f\x92\x6d\x65\xba\x04\x79\xce"
           "\xdd\xe1\x26\xfb\x21\xbd\x7b\x39\xa5\x8f\x5c\xe7\xfb\x63\x94\xf4"
           "\x0a\x83\x64\x12\x77\xbf\xaf\x1c\xd3\x79\xdc\xc4\x35\x51\x9a\xd4"
           "\x3e\x31\x9a\xa8\x4f\x72\x9a\x34\x3e\x29\x68\x62\x3e\x29\x69\xd2"
           "\xfa\xa4\xa2\x49\xee\x93\x9a\x3f\x1f\x56\x6e\x68\x53\xf8\xa4\xe5"
           "\x67\x60\x66\xe5\x00\x4a\x68\xb8\x00\x85\xa5\x95\x1b\xa8\xa0\xe1"
           "\x08\x50\x27\x57\x00\x3c\x95\x33\xc0\xe1\xb8\x03\x00\xaa\x1c\x02"
           "\xee\xc6\x21\x00\x51\xe5\x12\xc0\xa8\x71\x08\x88\xd4\xb8\x04\x50"
           "\x6a\x7f\x7c\x06\xb0\xb6\x71\x09\xc0\x74\x69\xb4\x8e\x6d\x18\x88"
           "\x61\x20\x08\xf6\xf4\x14\xfb\x6f\xcd\xa9\x81\x09\x96\x05\x28\x59"
           "\x0c\x78\xfa\x5a\x82\x4c\xbf\xa6\x00\xd3\xaf\x29\x58\xae\x29\x78"
           "\x45\x9b\x82\xe1\x9a\x02\x4c\xa7\x29\xd0\x6d\x5a\x02\x4c\xa7\x25"
           "\xc0\x74\x1a\x82\x4c\xa7\x25\xc0\x74\x0e\x37\xc1\xd1\x6a\x09\x30"
           "\x9d\xc3\x3a\x98\xbb\x29\xc0\x74\x9a\x02\xe5\x5e\x53\x80\xe9\x3b"
           "\xcc\x03\x6f\x9a\x82\x73\xdf\x14\xe8\xf6\x5a\x02\x4c\x5f\x4b\x80"
           "\xe9\x6b\x08\x32\x7d\x2d\x01\xa6\xef\x70\x13\xac\xdd\x12\x60\xba"
           "\x87\x7d\xf0\x7b\xd5\x14\x60\xba\x4d\x81\x72\xdb\x14\x60\xba\x87"
           "\x79\xe0\x4d\x53\x80\xe9\x36\x05\xbb\xb5\x04\x98\x6e\x4b\x80\xe9"
           "\x1e\xbe\x8c\xff\xb1\x7f\xf3\xc7\x35\x80",
                   330)},
      // level 6, Z_RLE
      {&runs,
       std::string(
           "\x78\x01\x25\xc1\xb1\x01\x00\x10\x0c\x00\xb0\xdb\xb4\x8a\xf2\xff"
           "\x3f\x86\x24\x83\xa2\x09\x16\x97\x64\xf3\x98\x1c\x06\x45\x13\x2c"
           "\x2e\xc9\xe6\x31\x39\x0c\x8a\x26\x58\x5c\x92\xcd\x63\x72\x18\x14"
           "\x4d\xb0\xb8\x24\x9b\xc7\xe4\x30\x28\x9a\x60\x71\x49\x36\x8f\xc9"
           "\x61\x50\x34\xc1\xe2\x92\x6c\x1e\x93\xc3\xa0\x68\x82\xc5\x25\xd9"
           "\x3c\x26\x87\x41\xd1\x04\x8b\x4b\xb2\x79\x4c\x0e\x83\xa2\x09\x16"
           "\x97\x64\xf3\x98\x1c\x06\x45\x13\x2c\x2e\xc9\xe6\x31\x39\x0c\x8a"
           "\x26\x58\x5c\x92\xcd\x63\x72\x18\x14\x4d\xb0\xb8\x24\x9b\xc7\xe4"
           "\x30\x28\x9a\x60\x71\x49\x36\x8f\xc9\x61\x50\x34\xc1\xe2\x92\x6c"
           "\x1e\x93\xc3\xa0\x68\x82\xc5\x25\xd9\x3c\x26\x87\x41\xd1\x04\x8b"
           "\x4b\x66\x7e\x5c\x7a\x48\x12",
                   167)},
  };
  for (const auto& [raw, stream] : cases) {
    ASSERT_EQ((static_cast<unsigned char>(stream[2]) >> 1) & 3, 2);
    auto decoded = ZlibDecompress(stream);
    ASSERT_TRUE(decoded.ok()) << decoded.status().message();
    EXPECT_EQ(*decoded, *raw);
  }
}

TEST(DeflateTest, MutatedStreamsFailCleanlyOrDecodeExactly) {
  // Every bit flip, every byte inversion and every truncation of three
  // encoder outputs (dynamic blocks with and without long runs, and a
  // fixed block) must give a clean Status or the exact input: never a
  // crash, a hang or a wrong output. The inputs are neither periodic
  // nor of a few byte values: there a flipped distance bit can copy
  // other bytes that differ by a pattern such as +1, -2, +1, which
  // leaves Adler-32 unchanged.
  std::string text;
  for (int i = 0; i < 8; ++i) text += "mutate " + std::to_string(i * i) + " me; ";
  const std::string mixed = SeededBytes(300, 5, 256) + std::string(300, 'z') + text;
  for (const std::string& raw : {text, mixed, std::string("fixed!")}) {
    const std::string stream = Compress(raw);
    for (size_t at = 0; at < stream.size(); ++at) {
      for (int mask : {1, 2, 4, 8, 16, 32, 64, 128, 255}) {
        std::string bad = stream;
        bad[at] = static_cast<char>(bad[at] ^ mask);
        auto decoded = ZlibDecompress(bad);
        if (decoded.ok()) {
          EXPECT_EQ(*decoded, raw) << at << " ^ " << mask;
        }
      }
      auto cut = ZlibDecompress(stream.substr(0, at));
      EXPECT_FALSE(cut.ok()) << "decoded a stream cut at " << at;
    }
  }
}

TEST(DeflateTest, HuffmanCodeLengthsRespectTheLimits) {
  // Fibonacci weights make the deepest Huffman trees: n symbols give an
  // unbounded depth of n - 1. The literal/length alphabet must stop at
  // 15 bits and the code-length alphabet at 7, with complete codes, and
  // a more frequent symbol never gets a longer code.
  for (const auto& [count, max_bits] :
       {std::pair<size_t, int>{286, 15}, {30, 15}, {19, 7}}) {
    for (size_t used : {size_t{2}, size_t{9}, size_t{17}, size_t{25}, count}) {
      if (used > count) continue;
      std::vector<uint32_t> freq(count, 0);
      uint32_t a = 1, b = 1;
      for (size_t k = 0; k < used; ++k) {
        // Spread over the alphabet so that unused symbols sit between.
        freq[(k * 7) % count] = std::min<uint32_t>(a, 1u << 24);
        const uint32_t c = a + b;
        a = b;
        b = c;
      }
      const std::vector<int> lengths = CodeLengths(freq, max_bits);
      EXPECT_LE(MaxOf(lengths), max_bits) << count << "/" << used;
      EXPECT_EQ(KraftUnits(lengths), 32768u) << count << "/" << used;
      for (size_t x = 0; x < count; ++x) {
        EXPECT_EQ(lengths[x] != 0, freq[x] != 0) << x;
        for (size_t y = 0; y < count; ++y) {
          if (freq[x] > freq[y] && freq[y] != 0) {
            EXPECT_LE(lengths[x], lengths[y]) << x << " vs " << y;
          }
        }
      }
      // Within the limit the code is an optimal one.
      int reference_max = 0;
      const uint64_t reference = ReferenceHuffmanCost(freq, &reference_max);
      uint64_t cost = 0;
      for (size_t x = 0; x < count; ++x) cost += uint64_t{freq[x]} * lengths[x];
      if (reference_max <= max_bits) {
        EXPECT_EQ(cost, reference) << count << "/" << used;
      } else {
        EXPECT_GT(cost, reference) << count << "/" << used;
      }
    }
  }
  // One or no used symbol still gives two codes of one bit.
  std::vector<uint32_t> one(30, 0);
  one[5] = 9;
  EXPECT_EQ(CodeLengths(one, 15)[0], 1);
  EXPECT_EQ(CodeLengths(one, 15)[5], 1);
  EXPECT_EQ(KraftUnits(CodeLengths(std::vector<uint32_t>(19, 0), 7)), 32768u);
}

TEST(DeflateTest, CodeLengthCodeStopsAtSevenBits) {
  // Byte s appears 2^(14 - L) times for a shuffled length L in 5..14,
  // most of them long: the literal code lengths then take a lopsided
  // mix of values, whose own code would need 8 bits unbounded.
  const int per_length[15] = {0, 0, 0, 0, 0, 28, 1, 3, 5, 8, 13, 21, 34, 55, 89};
  std::mt19937 rng(1);
  std::vector<int> lengths;
  for (int len = 1; len <= 14; ++len) lengths.insert(lengths.end(), per_length[len], len);
  for (size_t i = lengths.size(); i > 1; --i) std::swap(lengths[i - 1], lengths[rng() % i]);
  std::string raw;
  for (size_t sym = 0; sym < lengths.size(); ++sym) {
    raw.append(size_t{1} << (14 - lengths[sym]), static_cast<char>(sym));
  }
  for (size_t i = raw.size(); i > 1; --i) std::swap(raw[i - 1], raw[rng() % i]);
  const std::string stream = Compress(raw);
  EXPECT_EQ(RoundTrip(raw), raw);
  const FirstBlockHeader h = ReadFirstBlockHeader(stream);
  ASSERT_EQ(h.block_type, 2);
  EXPECT_EQ(MaxOf(h.code_length), 7);
  EXPECT_EQ(KraftUnits(h.code_length), 32768u);
  std::vector<uint32_t> run_freq(h.run_counts.begin(), h.run_counts.end());
  int unbounded = 0;
  ReferenceHuffmanCost(run_freq, &unbounded);
  EXPECT_GT(unbounded, 7);
  EXPECT_LE(MaxOf(h.litlen), 15);
  EXPECT_EQ(KraftUnits(h.litlen), 32768u);
}

TEST(DeflateTest, AllLiteralAndSingleDistanceBlocksHaveCompleteCodes) {
  // No 3-byte window repeats in a de Bruijn sequence, so its block has
  // no match; runs of distinct bytes have only distance-1 matches.
  // Either way the distance code gets a second symbol, so that every
  // code is complete (zlib rejects most incomplete ones).
  std::string all_literal;
  std::vector<int> scratch(4, 0);
  DeBruijn(1, 1, 16, &scratch, &all_literal);
  ASSERT_EQ(all_literal.size(), 4096u);
  std::string single_distance;
  for (int k = 0; k < 300; ++k) {
    single_distance.append(4 + k % 9, static_cast<char>(k * 37 % 251));
  }
  for (const std::string* raw : {&all_literal, &single_distance}) {
    const std::string stream = Compress(*raw);
    EXPECT_EQ(RoundTrip(*raw), *raw);
    const FirstBlockHeader h = ReadFirstBlockHeader(stream);
    ASSERT_EQ(h.block_type, 2);
    EXPECT_EQ(UsedOf(h.dist), 2);
    EXPECT_EQ(KraftUnits(h.dist), 32768u);
    EXPECT_EQ(KraftUnits(h.litlen), 32768u);
    EXPECT_EQ(KraftUnits(h.code_length), 32768u);
    EXPECT_GE(UsedOf(h.code_length), 2);
  }
  // Empty input is one fixed block holding only end-of-block.
  EXPECT_EQ(Compress(""), std::string("\x78\x01\x03\x00\x00\x00\x00\x01", 8));
}

TEST(DeflateTest, ScanlineGeometryAddsRowAndPixelDistances) {
  // Rows of random pixels, each a copy of the row above with one pixel
  // changed: the one-row candidate finds what a hash head alone, which
  // keeps only the last token start, mostly misses.
  const size_t width = 200, bpp = 3, row = 1 + width * bpp;
  std::string raw;
  std::string line = SeededBytes(row, 3, 256);
  for (size_t y = 0; y < 40; ++y) {
    line[0] = 0;
    line[1 + (y * 37 % width) * bpp] ^= 0x5a;
    raw += line;
  }
  const std::string with_rows = ZlibCompress(raw, bpp, row);
  const std::string without = ZlibCompress(raw, 1, 0);
  auto decoded = ZlibDecompress(with_rows);
  ASSERT_TRUE(decoded.ok()) << decoded.status().message();
  EXPECT_EQ(*decoded, raw);
  EXPECT_LT(with_rows.size(), without.size());
}

}  // namespace
}  // namespace vas
