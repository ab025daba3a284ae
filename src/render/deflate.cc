#include "render/deflate.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <vector>

namespace vas {

namespace {

// --- RFC 1951 code tables ---------------------------------------------

/// Length codes 257..285: first length each code covers and its extra
/// bit count (extra bits encode the offset from the base).
constexpr int kLengthBase[29] = {3,  4,  5,  6,  7,  8,  9,  10, 11, 13,
                                15, 17, 19, 23, 27, 31, 35, 43, 51, 59,
                                67, 83, 99, 115, 131, 163, 195, 227, 258};
constexpr int kLengthExtra[29] = {0, 0, 0, 0, 0, 0, 0, 0, 1, 1,
                                 1, 1, 2, 2, 2, 2, 3, 3, 3, 3,
                                 4, 4, 4, 4, 5, 5, 5, 5, 0};

/// Distance codes 0..29.
constexpr int kDistBase[30] = {1,    2,    3,    4,    5,    7,    9,
                               13,   17,   25,   33,   49,   65,   97,
                               129,  193,  257,  385,  513,  769,  1025,
                               1537, 2049, 3073, 4097, 6145, 8193, 12289,
                               16385, 24577};
constexpr int kDistExtra[30] = {0, 0, 0,  0,  1,  1,  2,  2,  3,  3,
                                4, 4, 5,  5,  6,  6,  7,  7,  8,  8,
                                9, 9, 10, 10, 11, 11, 12, 12, 13, 13};

constexpr size_t kWindowSize = 32768;
constexpr size_t kMinMatch = 3;
constexpr size_t kMaxMatch = 258;
/// Symbols per block, zlib's default: bounds the token buffer whatever
/// the input size, and lets codes follow the content.
constexpr size_t kBlockTokens = 16384;

constexpr int kEndOfBlock = 256;
constexpr int kLitLenCodes = 286;  // literals, end of block, 29 lengths
constexpr int kDistCodes = 30;
constexpr int kCodeLengthCodes = 19;
constexpr int kMaxCodeBits = 15;
constexpr int kMaxCodeLengthBits = 7;

/// The order a dynamic block's header sends the code-length code's
/// lengths in (RFC 1951 §3.2.7).
constexpr uint8_t kCodeLengthOrder[kCodeLengthCodes] = {
    16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15};

struct SymbolTables {
  uint8_t length_code[kMaxMatch + 1];  // match length 3..258 -> 0..28
  /// zlib's distance-code lookup: for d = distance - 1, entry d when
  /// d < 256, else 256 + (d >> 7) (codes 16+ start on multiples of 128).
  uint8_t distance_code[512];
  /// RFC 1951 §3.2.6's literal/length code lengths. The code counts
  /// symbols 286 and 287, which never occur, so their lengths are
  /// needed to assign the others' codes.
  uint8_t fixed_litlen_bits[288];
};

constexpr SymbolTables BuildSymbolTables() {
  SymbolTables t{};
  for (int code = 0; code < 29; ++code) {
    // Length 258 has its own code (285); 284's range stops at 257.
    const int last =
        code == 28 ? kMaxMatch : std::min(kLengthBase[code + 1] - 1, 257);
    for (int len = kLengthBase[code]; len <= last; ++len) {
      t.length_code[len] = static_cast<uint8_t>(code);
    }
  }
  for (int code = 0; code < kDistCodes; ++code) {
    const int first = kDistBase[code] - 1;
    for (int d = first; d < first + (1 << kDistExtra[code]); ++d) {
      t.distance_code[d < 256 ? d : 256 + (d >> 7)] =
          static_cast<uint8_t>(code);
    }
  }
  for (int sym = 0; sym < 288; ++sym) {
    t.fixed_litlen_bits[sym] = sym < 144 ? 8 : sym < 256 ? 9 : sym < 280 ? 7 : 8;
  }
  return t;
}

constexpr SymbolTables kTables = BuildSymbolTables();

inline uint32_t DistanceCode(size_t dist) {
  const size_t d = dist - 1;
  return kTables.distance_code[d < 256 ? d : 256 + (d >> 7)];
}

/// Bits ready for the LSB-first writer: the low `count` bits of `bits`.
struct Code {
  uint32_t bits = 0;
  uint32_t count = 0;
};

/// `code` with its low `bits` bits mirrored — Huffman codes are packed
/// most-significant-bit first into a least-significant-bit-first
/// stream (RFC 1951 §3.1.1).
inline uint32_t ReverseBits(uint32_t code, uint32_t bits) {
  uint32_t out = 0;
  for (uint32_t i = 0; i < bits; ++i) {
    out = (out << 1) | ((code >> i) & 1u);
  }
  return out;
}

/// The canonical code of each symbol with a nonzero length (RFC 1951
/// §3.2.2), mirrored for the writer.
void AssignCodes(const uint8_t* lengths, int count, Code* codes) {
  uint32_t per_length[kMaxCodeBits + 1] = {};
  for (int sym = 0; sym < count; ++sym) ++per_length[lengths[sym]];
  per_length[0] = 0;
  uint32_t next[kMaxCodeBits + 1] = {};
  for (int bits = 1; bits <= kMaxCodeBits; ++bits) {
    next[bits] = (next[bits - 1] + per_length[bits - 1]) << 1;
  }
  for (int sym = 0; sym < count; ++sym) {
    const uint32_t len = lengths[sym];
    codes[sym] = {len ? ReverseBits(next[len]++, len) : 0, len};
  }
}

/// LSB-first bit packer (RFC 1951 §3.1.1): a 64-bit accumulator that
/// stores whole 32-bit little-endian words into `out`, which Reserve
/// grows ahead of each block.
class BitWriter {
 public:
  explicit BitWriter(std::string* out) : out_(out), pos_(out->size()) {}

  /// Makes room for `bits` more bits.
  void Reserve(size_t bits) {
    out_->resize(pos_ + (filled_ + bits) / 8 + 8);
    data_ = reinterpret_cast<uint8_t*>(out_->data());
  }

  /// Appends the low `code.count` (at most 32) bits of `code.bits`;
  /// higher bits must be zero.
  void Write(Code code) {
    buffer_ |= static_cast<uint64_t>(code.bits) << filled_;
    filled_ += code.count;
    if (filled_ >= 32) {
      for (int k = 0; k < 4; ++k) {
        data_[pos_ + k] = static_cast<uint8_t>(buffer_ >> (8 * k));
      }
      pos_ += 4;
      buffer_ >>= 32;
      filled_ -= 32;
    }
  }

  /// Writes the pending bits, zero-padded to a whole byte, and trims
  /// `out` to the bytes written.
  void Finish() {
    for (uint32_t bits = 0; bits < filled_; bits += 8) {
      data_[pos_++] = static_cast<uint8_t>(buffer_ >> bits);
    }
    filled_ = 0;
    out_->resize(pos_);
  }

 private:
  std::string* out_;
  uint8_t* data_ = nullptr;
  size_t pos_;
  uint64_t buffer_ = 0;
  uint32_t filled_ = 0;  // below 32 between calls
};

/// The 8 bytes at `p` as a little-endian word.
inline uint64_t LoadLe64(const unsigned char* p) {
  uint64_t v = 0;
  std::memcpy(&v, p, sizeof(v));
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
  v = __builtin_bswap64(v);
#endif
  return v;
}

/// Length of the common prefix of `a` and `b`, at most `max_len`; reads
/// no byte at or past `a + max_len` / `b + max_len`. Compares 8 bytes at
/// a time: the lowest set bit of two little-endian words' xor lies in
/// their first differing byte.
inline size_t MatchLength(const unsigned char* a, const unsigned char* b,
                          size_t max_len) {
  size_t len = 0;
  while (len + 8 <= max_len) {
    const uint64_t diff = LoadLe64(a + len) ^ LoadLe64(b + len);
    if (diff != 0) {
      return len + static_cast<size_t>(__builtin_ctzll(diff)) / 8;
    }
    len += 8;
  }
  while (len < max_len && a[len] == b[len]) ++len;
  return len;
}

/// Hash of the 3 bytes at `p` into kHashBits bits.
constexpr int kHashBits = 12;
inline uint32_t Hash3(const unsigned char* p) {
  const uint32_t v = static_cast<uint32_t>(p[0]) |
                     (static_cast<uint32_t>(p[1]) << 8) |
                     (static_cast<uint32_t>(p[2]) << 16);
  return (v * 0x9E3779B1u) >> (32 - kHashBits);
}

/// What a match is judged to save before its block's codes exist: a
/// literal is priced at kLiteralBits, a match at its extra bits plus
/// kMatchCodeBits for its length and distance codes. Over served-style
/// tiles, 4-8 and 7-12 moved the output by about 3 %, trading
/// heatmaps (fewer short matches) against truecolor tiles (more).
constexpr int kLiteralBits = 6;
constexpr int kMatchCodeBits = 9;
inline int MatchGain(size_t len, size_t dist) {
  return static_cast<int>(len) * kLiteralBits - kMatchCodeBits -
         kLengthExtra[kTables.length_code[len]] -
         kDistExtra[DistanceCode(dist)];
}

// --- Blocks -------------------------------------------------------------

/// A block's symbols: one token per literal (its byte) or match
/// (length << 16 | distance), and the counts its codes come from.
struct Block {
  std::vector<uint32_t> tokens;
  uint32_t litlen_freq[kLitLenCodes] = {};
  uint32_t dist_freq[kDistCodes] = {};

  void Clear() {
    tokens.clear();
    std::fill(std::begin(litlen_freq), std::end(litlen_freq), 0u);
    std::fill(std::begin(dist_freq), std::end(dist_freq), 0u);
  }
};

/// One code-length symbol of a dynamic header (0-15 a length; 16, 17
/// and 18 runs) and its extra-bits value.
struct LengthRun {
  uint8_t symbol;
  uint8_t extra;
};

/// Run-length codes `count` code lengths as RFC 1951 §3.2.7's
/// code-length symbols: 16 repeats the previous length 3-6 times, 17
/// and 18 write 3-10 and 11-138 zeros. Returns the symbols written to
/// `out`, at most `count`.
size_t EncodeLengthRuns(const uint8_t* lengths, size_t count,
                        LengthRun* out) {
  size_t n = 0;
  for (size_t i = 0; i < count;) {
    const uint8_t len = lengths[i];
    size_t run = 1;
    while (i + run < count && lengths[i + run] == len) ++run;
    i += run;
    if (len == 0) {
      for (; run >= 11; run -= std::min<size_t>(run, 138)) {
        out[n++] = {18, static_cast<uint8_t>(std::min<size_t>(run, 138) - 11)};
      }
      if (run >= 3) {
        out[n++] = {17, static_cast<uint8_t>(run - 3)};
        run = 0;
      }
    } else {
      out[n++] = {len, 0};
      for (--run; run >= 3; run -= std::min<size_t>(run, 6)) {
        out[n++] = {16, static_cast<uint8_t>(std::min<size_t>(run, 6) - 3)};
      }
    }
    for (; run > 0; --run) out[n++] = {len, 0};
  }
  return n;
}

constexpr uint8_t kLengthRunExtraBits[kCodeLengthCodes] = {
    0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 3, 7};

/// A dynamic block's code lengths and the header that sends them.
struct DynamicHeader {
  uint8_t litlen_bits[kLitLenCodes];
  uint8_t dist_bits[kDistCodes];
  size_t litlen_count;  // HLIT + 257
  size_t dist_count;    // HDIST + 1
  LengthRun runs[kLitLenCodes + kDistCodes];
  size_t run_count;
  uint8_t code_length_bits[kCodeLengthCodes];
  size_t code_length_count;  // HCLEN + 4
  uint64_t bits;             // the header alone, block type included
};

void BuildDynamicHeader(const Block& block, DynamicHeader* h) {
  HuffmanCodeLengths(block.litlen_freq, kLitLenCodes, kMaxCodeBits,
                     h->litlen_bits);
  HuffmanCodeLengths(block.dist_freq, kDistCodes, kMaxCodeBits, h->dist_bits);
  h->litlen_count = kLitLenCodes;
  while (h->litlen_count > 257 && h->litlen_bits[h->litlen_count - 1] == 0) {
    --h->litlen_count;
  }
  h->dist_count = kDistCodes;
  while (h->dist_count > 1 && h->dist_bits[h->dist_count - 1] == 0) {
    --h->dist_count;
  }
  // The two tables go out as one sequence, so a run may cross from one
  // into the other.
  uint8_t sent[kLitLenCodes + kDistCodes];
  std::copy(h->litlen_bits, h->litlen_bits + h->litlen_count, sent);
  std::copy(h->dist_bits, h->dist_bits + h->dist_count,
            sent + h->litlen_count);
  h->run_count =
      EncodeLengthRuns(sent, h->litlen_count + h->dist_count, h->runs);
  uint32_t run_freq[kCodeLengthCodes] = {};
  for (size_t i = 0; i < h->run_count; ++i) ++run_freq[h->runs[i].symbol];
  HuffmanCodeLengths(run_freq, kCodeLengthCodes, kMaxCodeLengthBits,
                     h->code_length_bits);
  h->code_length_count = kCodeLengthCodes;
  while (h->code_length_count > 4 &&
         h->code_length_bits[kCodeLengthOrder[h->code_length_count - 1]] ==
             0) {
    --h->code_length_count;
  }
  h->bits = 3 + 5 + 5 + 4 + 3 * h->code_length_count;
  for (int sym = 0; sym < kCodeLengthCodes; ++sym) {
    h->bits += uint64_t{run_freq[sym]} *
               (h->code_length_bits[sym] + kLengthRunExtraBits[sym]);
  }
}

/// Bits of the block's symbols under the given code lengths, without
/// the extra bits (which both block types share).
uint64_t SymbolBits(const Block& block, const uint8_t* litlen_bits,
                    const uint8_t* dist_bits) {
  uint64_t bits = 0;
  for (int sym = 0; sym < kLitLenCodes; ++sym) {
    bits += uint64_t{block.litlen_freq[sym]} * litlen_bits[sym];
  }
  for (int code = 0; code < kDistCodes; ++code) {
    bits += uint64_t{block.dist_freq[code]} * dist_bits[code];
  }
  return bits;
}

void WriteSymbols(const Block& block, const Code* litlen, const Code* dist,
                  BitWriter* writer) {
  // Length codes with their extra bits appended, by match length.
  Code length[kMaxMatch + 1];
  for (size_t len = kMinMatch; len <= kMaxMatch; ++len) {
    const int code = kTables.length_code[len];
    const Code sym = litlen[257 + code];
    length[len] = {
        sym.bits | static_cast<uint32_t>(len - kLengthBase[code]) << sym.count,
        sym.count + kLengthExtra[code]};
  }
  for (const uint32_t token : block.tokens) {
    if (token < 256) {
      writer->Write(litlen[token]);
      continue;
    }
    // Length code + extras (<= 20 bits), then distance code + extras
    // (<= 28 bits): two writes, as the pair can pass 32 bits.
    writer->Write(length[token >> 16]);
    const uint32_t d = token & 0xffff;
    const uint32_t code = DistanceCode(d);
    const Code sym = dist[code];
    writer->Write({sym.bits | (d - kDistBase[code]) << sym.count,
                   sym.count + kDistExtra[code]});
  }
  writer->Write(litlen[kEndOfBlock]);
}

/// Every fixed distance code is 5 bits (RFC 1951 §3.2.6).
constexpr uint8_t kFixedDistBits[kDistCodes] = {
    5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5,
    5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5};

/// Writes `block` (whose end-of-block symbol is counted) as a dynamic
/// block, or as a fixed one when that is no larger.
void WriteBlock(const Block& block, bool final, BitWriter* writer) {
  uint64_t extra_bits = 0;
  for (int code = 0; code < 29; ++code) {
    extra_bits += uint64_t{block.litlen_freq[257 + code]} * kLengthExtra[code];
  }
  for (int code = 0; code < kDistCodes; ++code) {
    extra_bits += uint64_t{block.dist_freq[code]} * kDistExtra[code];
  }
  DynamicHeader header;
  BuildDynamicHeader(block, &header);
  const uint64_t fixed =
      3 + SymbolBits(block, kTables.fixed_litlen_bits, kFixedDistBits);
  const uint64_t dynamic =
      header.bits + SymbolBits(block, header.litlen_bits, header.dist_bits);

  Code litlen[288];
  Code dist[kDistCodes];
  if (fixed <= dynamic) {
    writer->Reserve(fixed + extra_bits);
    writer->Write({final ? 0x3u : 0x2u, 3});  // BTYPE=01: fixed Huffman
    AssignCodes(kTables.fixed_litlen_bits, 288, litlen);
    AssignCodes(kFixedDistBits, kDistCodes, dist);
  } else {
    writer->Reserve(dynamic + extra_bits);
    writer->Write({final ? 0x5u : 0x4u, 3});  // BTYPE=10: dynamic Huffman
    writer->Write({static_cast<uint32_t>(header.litlen_count - 257), 5});
    writer->Write({static_cast<uint32_t>(header.dist_count - 1), 5});
    writer->Write({static_cast<uint32_t>(header.code_length_count - 4), 4});
    for (size_t i = 0; i < header.code_length_count; ++i) {
      writer->Write({header.code_length_bits[kCodeLengthOrder[i]], 3});
    }
    Code run_codes[kCodeLengthCodes];
    AssignCodes(header.code_length_bits, kCodeLengthCodes, run_codes);
    for (size_t i = 0; i < header.run_count; ++i) {
      const LengthRun run = header.runs[i];
      writer->Write(run_codes[run.symbol]);
      writer->Write({run.extra, kLengthRunExtraBits[run.symbol]});
    }
    AssignCodes(header.litlen_bits, kLitLenCodes, litlen);
    AssignCodes(header.dist_bits, kDistCodes, dist);
  }
  WriteSymbols(block, litlen, dist, writer);
}

/// A match candidate; len 0 means none.
struct Match {
  size_t len = 0;
  size_t dist = 0;
  int gain = 0;  // MatchGain, positive for a candidate
};

/// Finds matches at the distances PNG scanlines make likely: 1 (a
/// run), one pixel and one row, plus the last recorded position with
/// the same 3-byte hash. Only token starts are recorded, so no byte
/// inside a match is hashed and no chain is walked.
class Matcher {
 public:
  Matcher(const std::string& raw, size_t bytes_per_pixel,
          size_t bytes_per_row)
      : data_(reinterpret_cast<const unsigned char*>(raw.data())),
        n_(raw.size()) {
    for (const size_t dist : {bytes_per_pixel, bytes_per_row}) {
      if (dist > 1 && dist <= kWindowSize && !IsFixed(dist)) {
        fixed_[fixed_count_++] = dist;
      }
    }
  }

  /// The candidate at `i` with the largest positive MatchGain (the
  /// fixed distances first on a tie). Records `i` as a token start.
  Match Next(size_t i) {
    Match best;
    if (i + kMinMatch > n_) return best;
    const size_t max_len = std::min(kMaxMatch, n_ - i);
    const unsigned char* here = data_ + i;
    auto consider = [&](size_t dist) {
      const size_t len = MatchLength(here, here - dist, max_len);
      if (len < kMinMatch) return;
      const int gain = MatchGain(len, dist);
      if (gain > best.gain) best = {len, dist, gain};
    };
    for (size_t k = 0; k < fixed_count_ && best.len < max_len; ++k) {
      if (fixed_[k] <= i) consider(fixed_[k]);
    }
    // A stale or wrapped 32-bit entry only costs a comparison: every
    // candidate is checked against the bytes.
    uint32_t& head = head_[Hash3(here)];
    const size_t dist = static_cast<uint32_t>(i) - head;
    head = static_cast<uint32_t>(i);
    if (best.len < max_len && dist >= 1 && dist <= std::min(i, kWindowSize) &&
        !IsFixed(dist)) {
      consider(dist);
    }
    return best;
  }

 private:
  bool IsFixed(size_t dist) const {
    return std::find(fixed_, fixed_ + fixed_count_, dist) !=
           fixed_ + fixed_count_;
  }

  const unsigned char* data_;
  size_t n_;
  size_t fixed_[3] = {1, 0, 0};
  size_t fixed_count_ = 1;
  uint32_t head_[size_t{1} << kHashBits] = {};
};

/// LZ77 over `raw` into blocks of at most kBlockTokens symbols, each
/// written as it fills. The matcher is greedy: a position's best match
/// is taken as found.
void AppendBlocks(const std::string& raw, size_t bytes_per_pixel,
                  size_t bytes_per_row, std::string* out) {
  const auto* data = reinterpret_cast<const unsigned char*>(raw.data());
  const size_t n = raw.size();
  Matcher matcher(raw, bytes_per_pixel, bytes_per_row);
  Block block;
  block.tokens.reserve(std::min(n, kBlockTokens));
  BitWriter writer(out);
  size_t i = 0;
  do {
    while (i < n && block.tokens.size() < kBlockTokens) {
      const Match match = matcher.Next(i);
      if (match.len != 0) {
        block.tokens.push_back(
            static_cast<uint32_t>(match.len << 16 | match.dist));
        ++block.litlen_freq[257 + kTables.length_code[match.len]];
        ++block.dist_freq[DistanceCode(match.dist)];
        i += match.len;
      } else {
        block.tokens.push_back(data[i]);
        ++block.litlen_freq[data[i]];
        ++i;
      }
    }
    ++block.litlen_freq[kEndOfBlock];
    WriteBlock(block, i == n, &writer);
    block.Clear();
  } while (i < n);
  writer.Finish();
}

// --- Inflater -----------------------------------------------------------

/// LSB-first bit reader over the deflate payload; `ok()` goes false on
/// any read past the end instead of throwing.
class BitReader {
 public:
  BitReader(const std::string& data, size_t start)
      : data_(reinterpret_cast<const unsigned char*>(data.data())),
        size_(data.size()),
        pos_(start) {}

  uint32_t ReadBits(int bits) {
    uint32_t out = 0;
    for (int i = 0; i < bits; ++i) {
      out |= static_cast<uint32_t>(ReadBit()) << i;
    }
    return out;
  }

  int ReadBit() {
    if (filled_ == 0) {
      if (pos_ >= size_) {
        ok_ = false;
        return 0;
      }
      buffer_ = data_[pos_++];
      filled_ = 8;
    }
    int bit = buffer_ & 1;
    buffer_ >>= 1;
    --filled_;
    return bit;
  }

  void AlignToByte() {
    buffer_ = 0;
    filled_ = 0;
  }

  size_t byte_pos() const { return pos_; }
  bool ok() const { return ok_; }

  bool ReadByte(uint8_t* out) {
    AlignToByte();
    if (pos_ >= size_) return false;
    *out = data_[pos_++];
    return true;
  }

 private:
  const unsigned char* data_;
  size_t size_;
  size_t pos_;
  uint8_t buffer_ = 0;
  int filled_ = 0;
  bool ok_ = true;
};

/// A canonical Huffman code for decoding, read a bit at a time: the
/// number of codes of each length and the symbols in code order.
struct Decoder {
  uint16_t per_length[kMaxCodeBits + 1] = {};
  uint16_t symbols[288] = {};
};

/// Builds `decoder` from `count` code lengths. Fails on an
/// over-subscribed code, and on an incomplete one unless
/// `allow_single` and the code is one symbol of length 1 (which zlib
/// also accepts for literal/length and distance codes).
Status BuildDecoder(const uint8_t* lengths, size_t count, bool allow_single,
                    Decoder* decoder) {
  *decoder = Decoder();
  for (size_t sym = 0; sym < count; ++sym) ++decoder->per_length[lengths[sym]];
  int left = 1;
  for (int len = 1; len <= kMaxCodeBits; ++len) {
    left = 2 * left - decoder->per_length[len];
    if (left < 0) return Status::InvalidArgument("over-subscribed Huffman code");
  }
  const bool single =
      decoder->per_length[1] == 1 && decoder->per_length[0] == count - 1;
  if (left > 0 && !(allow_single && single)) {
    return Status::InvalidArgument("incomplete Huffman code");
  }
  uint16_t offset[kMaxCodeBits + 2] = {};
  for (int len = 1; len <= kMaxCodeBits; ++len) {
    offset[len + 1] = offset[len] + decoder->per_length[len];
  }
  for (size_t sym = 0; sym < count; ++sym) {
    if (lengths[sym] != 0) {
      decoder->symbols[offset[lengths[sym]]++] = static_cast<uint16_t>(sym);
    }
  }
  return Status::OK();
}

/// Decodes one symbol, or -1 on a code the decoder does not hold.
int DecodeSymbol(const Decoder& decoder, BitReader* reader) {
  int code = 0;   // the bits read so far, MSB-first
  int first = 0;  // the first code of the current length
  int index = 0;  // its position in `symbols`
  for (int len = 1; len <= kMaxCodeBits; ++len) {
    code |= reader->ReadBit();
    const int count = decoder.per_length[len];
    if (code - first < count) return decoder.symbols[index + code - first];
    index += count;
    first = (first + count) << 1;
    code <<= 1;
  }
  return -1;
}

/// Reads a dynamic block's code-length tables into `litlen` and `dist`.
Status ReadDynamicTables(BitReader* reader, Decoder* litlen, Decoder* dist) {
  const size_t litlen_count = reader->ReadBits(5) + 257;
  const size_t dist_count = reader->ReadBits(5) + 1;
  const size_t code_length_count = reader->ReadBits(4) + 4;
  if (litlen_count > kLitLenCodes || dist_count > kDistCodes) {
    return Status::InvalidArgument("dynamic block declares too many codes");
  }
  uint8_t run_lengths[kCodeLengthCodes] = {};
  for (size_t i = 0; i < code_length_count; ++i) {
    run_lengths[kCodeLengthOrder[i]] = static_cast<uint8_t>(reader->ReadBits(3));
  }
  if (!reader->ok()) return Status::InvalidArgument("truncated dynamic header");
  Decoder runs;
  VAS_RETURN_IF_ERROR(
      BuildDecoder(run_lengths, kCodeLengthCodes, /*allow_single=*/false, &runs));
  uint8_t lengths[kLitLenCodes + kDistCodes] = {};
  const size_t total = litlen_count + dist_count;
  for (size_t i = 0; i < total;) {
    const int sym = DecodeSymbol(runs, reader);
    if (!reader->ok()) return Status::InvalidArgument("truncated dynamic header");
    if (sym < 0) return Status::InvalidArgument("invalid code-length code");
    if (sym < 16) {
      lengths[i++] = static_cast<uint8_t>(sym);
      continue;
    }
    uint8_t value = 0;
    size_t repeat = 0;
    if (sym == 16) {
      if (i == 0) return Status::InvalidArgument("length repeat with no length");
      value = lengths[i - 1];
      repeat = 3 + reader->ReadBits(2);
    } else {
      repeat = sym == 17 ? 3 + reader->ReadBits(3) : 11 + reader->ReadBits(7);
    }
    if (i + repeat > total) {
      return Status::InvalidArgument("code-length repeat overruns the table");
    }
    std::fill(lengths + i, lengths + i + repeat, value);
    i += repeat;
  }
  if (lengths[kEndOfBlock] == 0) {
    return Status::InvalidArgument("dynamic block has no end-of-block code");
  }
  VAS_RETURN_IF_ERROR(
      BuildDecoder(lengths, litlen_count, /*allow_single=*/true, litlen));
  return BuildDecoder(lengths + litlen_count, dist_count,
                      /*allow_single=*/true, dist);
}

/// Inflates one Huffman-coded block's symbols onto `out`.
Status InflateSymbols(const Decoder& litlen, const Decoder& dist,
                      BitReader* reader, std::string* out) {
  for (;;) {
    const int sym = DecodeSymbol(litlen, reader);
    if (!reader->ok()) return Status::InvalidArgument("truncated Huffman block");
    if (sym < 0 || sym >= kLitLenCodes) {
      return Status::InvalidArgument("invalid literal/length code");
    }
    if (sym < 256) {
      out->push_back(static_cast<char>(sym));
      continue;
    }
    if (sym == kEndOfBlock) return Status::OK();
    const int lcode = sym - 257;
    const size_t length = static_cast<size_t>(kLengthBase[lcode]) +
                          reader->ReadBits(kLengthExtra[lcode]);
    const int dcode = DecodeSymbol(dist, reader);
    if (dcode < 0 || dcode >= kDistCodes) {
      return Status::InvalidArgument("invalid distance code");
    }
    const size_t distance = static_cast<size_t>(kDistBase[dcode]) +
                            reader->ReadBits(kDistExtra[dcode]);
    if (!reader->ok()) return Status::InvalidArgument("truncated match");
    if (distance > out->size()) {
      return Status::InvalidArgument("match distance reaches before output");
    }
    // Byte-by-byte: overlapping matches (distance < length) replicate.
    const size_t from = out->size() - distance;
    for (size_t j = 0; j < length; ++j) out->push_back((*out)[from + j]);
  }
}

}  // namespace

void HuffmanCodeLengths(const uint32_t* freq, size_t count, int max_bits,
                        uint8_t* lengths) {
  // Used symbols sorted by (frequency, symbol), packed as
  // frequency << 9 | symbol.
  uint64_t sorted[kLitLenCodes];
  size_t used = 0;
  for (size_t sym = 0; sym < count; ++sym) {
    lengths[sym] = 0;
    if (freq[sym] != 0) sorted[used++] = uint64_t{freq[sym]} << 9 | sym;
  }
  // A code needs two symbols to be complete; add the lowest unused
  // ones at frequency 0.
  for (size_t sym = 0; used < 2; ++sym) {
    if (freq[sym] == 0) sorted[used++] = sym;
  }
  std::sort(sorted, sorted + used);

  // Moffat and Katajainen's in-place minimum-redundancy code ("In-Place
  // Calculation of Minimum-Redundancy Codes", 1995): `a` starts as the
  // ascending frequencies and ends as each one's code length.
  uint64_t a[kLitLenCodes];
  for (size_t k = 0; k < used; ++k) a[k] = sorted[k] >> 9;
  const size_t n = used;
  // Pass 1, left to right: merge the two smallest of the remaining
  // leaves and internal nodes; a merged node's slot keeps its weight
  // and a consumed one the index of its parent.
  a[0] += a[1];
  size_t root = 0;
  size_t leaf = 2;
  for (size_t next = 1; next + 1 < n; ++next) {
    if (leaf >= n || a[root] < a[leaf]) {
      a[next] = a[root];
      a[root++] = next;
    } else {
      a[next] = a[leaf++];
    }
    if (leaf >= n || (root < next && a[root] < a[leaf])) {
      a[next] += a[root];
      a[root++] = next;
    } else {
      a[next] += a[leaf++];
    }
  }
  // Pass 2, right to left: internal nodes' depths from their parents'.
  a[n - 2] = 0;
  for (size_t next = n - 2; next-- > 0;) a[next] = a[a[next]] + 1;
  // Pass 3: how many leaves sit at each depth.
  uint32_t per_length[kMaxCodeBits + 1] = {};
  {
    size_t available = 1;  // nodes at this depth
    size_t depth = 0;
    size_t internal = n - 1;  // internal nodes not yet placed
    while (available > 0) {
      size_t used_here = 0;  // internal nodes at this depth
      while (internal > 0 && a[internal - 1] == depth) {
        ++used_here;
        --internal;
      }
      // The other nodes at this depth are leaves. Leaves deeper than
      // max_bits are counted at max_bits for now.
      per_length[std::min<size_t>(depth, static_cast<size_t>(max_bits))] +=
          static_cast<uint32_t>(available - used_here);
      available = 2 * used_here;
      ++depth;
    }
  }
  // Length limit (zlib's and miniz's repair): codes deeper than
  // max_bits were counted at max_bits, which over-subscribes the code.
  // Each step takes one code off max_bits and splits the deepest
  // shorter code into two one bit longer, lowering the Kraft sum by
  // one unit of 2^-max_bits, until the code is complete again.
  uint32_t kraft = 0;
  for (int len = 1; len <= max_bits; ++len) {
    kraft += per_length[len] << (max_bits - len);
  }
  for (; kraft > (1u << max_bits); --kraft) {
    --per_length[max_bits];
    for (int len = max_bits - 1; len > 0; --len) {
      if (per_length[len] != 0) {
        --per_length[len];
        per_length[len + 1] += 2;
        break;
      }
    }
  }
  // Shortest codes to the most frequent symbols.
  size_t k = used;
  for (int len = 1; len <= max_bits; ++len) {
    for (uint32_t c = per_length[len]; c > 0; --c) {
      lengths[sorted[--k] & 511] = static_cast<uint8_t>(len);
    }
  }
}

uint32_t Adler32(const std::string& data) {
  // RFC 1950: two running sums modulo 65521. 16 lanes keep their own
  // sums over each run of kNmax bytes: lane j's sa[j] adds bytes j,
  // j + 16, ..., and sb[j] adds sa[j] after each of them. A byte at
  // offset 16g + j of a run of 16G bytes then counts toward b
  // 16(G - g) - j times, so the run adds run·a + 16·Σsb − Σ j·sa[j] to
  // b. kNmax (a multiple of 16) keeps each lane's sb within 32 bits,
  // and the fold is done in 64 bits. The lane loop must stay a loop:
  // GCC's -O3 unrolls it completely otherwise and then vectorizes
  // nothing, which is about 3x slower.
  constexpr uint32_t kMod = 65521;
  constexpr size_t kLanes = 16;
  constexpr size_t kNmax = 5552;
  const auto* p = reinterpret_cast<const unsigned char*>(data.data());
  size_t left = data.size();
  uint32_t a = 1;
  uint32_t b = 0;
  while (left >= kLanes) {
    const size_t run = std::min(kNmax, left - left % kLanes);
    uint32_t sa[kLanes] = {};
    uint32_t sb[kLanes] = {};
    for (size_t k = 0; k < run; k += kLanes) {
#pragma GCC unroll 1
      for (size_t j = 0; j < kLanes; ++j) {
        sa[j] += p[k + j];
        sb[j] += sa[j];
      }
    }
    uint64_t sum_a = 0;
    uint64_t sum_b = 0;
    uint64_t weighted = 0;
    for (size_t j = 0; j < kLanes; ++j) {
      sum_a += sa[j];
      sum_b += sb[j];
      weighted += j * sa[j];
    }
    b = static_cast<uint32_t>((b + uint64_t{run} * a + kLanes * sum_b -
                               weighted) % kMod);
    a = static_cast<uint32_t>((a + sum_a) % kMod);
    p += run;
    left -= run;
  }
  for (size_t j = 0; j < left; ++j) {
    a += p[j];
    b += a;
  }
  return (b % kMod) << 16 | (a % kMod);
}

std::string ZlibCompress(const std::string& raw, size_t bytes_per_pixel,
                         size_t bytes_per_row) {
  std::string out("\x78\x01", 2);  // CMF: deflate, 32K window; FLG: check bits
  AppendBlocks(raw, bytes_per_pixel, bytes_per_row, &out);
  const uint32_t adler = Adler32(raw);
  for (int shift = 24; shift >= 0; shift -= 8) {
    out.push_back(static_cast<char>((adler >> shift) & 0xff));
  }
  return out;
}

StatusOr<std::string> ZlibDecompress(const std::string& stream) {
  if (stream.size() < 6) {
    return Status::InvalidArgument("zlib stream too short");
  }
  uint32_t cmf = static_cast<unsigned char>(stream[0]);
  uint32_t flg = static_cast<unsigned char>(stream[1]);
  if ((cmf & 0x0f) != 8) {
    return Status::InvalidArgument("zlib compression method is not deflate");
  }
  if ((cmf * 256 + flg) % 31 != 0) {
    return Status::InvalidArgument("zlib header check bits invalid");
  }
  if ((flg & 0x20) != 0) {
    return Status::InvalidArgument("preset dictionaries unsupported");
  }

  std::string out;
  BitReader reader(stream, 2);
  bool final_block = false;
  while (!final_block) {
    final_block = reader.ReadBit() != 0;
    uint32_t btype = reader.ReadBits(2);
    if (!reader.ok()) {
      return Status::InvalidArgument("truncated deflate block header");
    }
    if (btype == 0) {  // stored
      uint8_t b0, b1, b2, b3;
      if (!reader.ReadByte(&b0) || !reader.ReadByte(&b1) ||
          !reader.ReadByte(&b2) || !reader.ReadByte(&b3)) {
        return Status::InvalidArgument("truncated stored block header");
      }
      size_t len = static_cast<size_t>(b0) | (static_cast<size_t>(b1) << 8);
      size_t nlen = static_cast<size_t>(b2) | (static_cast<size_t>(b3) << 8);
      if ((len ^ nlen) != 0xffff) {
        return Status::InvalidArgument("stored block LEN/NLEN mismatch");
      }
      if (reader.byte_pos() + len > stream.size()) {
        return Status::InvalidArgument("truncated stored block");
      }
      for (size_t j = 0; j < len; ++j) {
        uint8_t byte = 0;
        if (!reader.ReadByte(&byte)) {
          return Status::InvalidArgument("truncated stored block");
        }
        out.push_back(static_cast<char>(byte));
      }
    } else if (btype == 1 || btype == 2) {
      Decoder litlen;
      Decoder dist;
      if (btype == 1) {  // fixed Huffman: 288 and 32 codes, 30 of them valid
        VAS_RETURN_IF_ERROR(
            BuildDecoder(kTables.fixed_litlen_bits, 288, false, &litlen));
        const uint8_t dist_lengths[32] = {5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5,
                                          5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5,
                                          5, 5, 5, 5, 5, 5, 5, 5, 5, 5};
        VAS_RETURN_IF_ERROR(BuildDecoder(dist_lengths, 32, false, &dist));
      } else {
        VAS_RETURN_IF_ERROR(ReadDynamicTables(&reader, &litlen, &dist));
      }
      VAS_RETURN_IF_ERROR(InflateSymbols(litlen, dist, &reader, &out));
    } else {
      return Status::InvalidArgument("reserved deflate block type");
    }
  }

  reader.AlignToByte();
  uint8_t a0, a1, a2, a3;
  if (!reader.ReadByte(&a0) || !reader.ReadByte(&a1) ||
      !reader.ReadByte(&a2) || !reader.ReadByte(&a3)) {
    return Status::InvalidArgument("missing Adler-32 trailer");
  }
  uint32_t expected = (static_cast<uint32_t>(a0) << 24) |
                      (static_cast<uint32_t>(a1) << 16) |
                      (static_cast<uint32_t>(a2) << 8) |
                      static_cast<uint32_t>(a3);
  if (expected != Adler32(out)) {
    return Status::InvalidArgument("Adler-32 mismatch");
  }
  return out;
}

}  // namespace vas
