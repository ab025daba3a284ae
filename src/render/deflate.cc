#include "render/deflate.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <vector>

namespace vas {

namespace {

// --- RFC 1951 fixed-code tables -------------------------------------

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
/// A match at least this long is taken without walking the rest of the
/// chain (zlib's "nice length" cutoff).
constexpr size_t kNiceMatch = 128;

/// `code` with its low `bits` bits mirrored — Huffman codes are packed
/// most-significant-bit first into a least-significant-bit-first
/// stream (RFC 1951 §3.1.1).
constexpr uint32_t ReverseBits(uint32_t code, uint32_t bits) {
  uint32_t out = 0;
  for (uint32_t i = 0; i < bits; ++i) {
    out = (out << 1) | ((code >> i) & 1u);
  }
  return out;
}

/// Bits ready for the LSB-first writer: the low `count` bits of `bits`.
struct Code {
  uint32_t bits = 0;
  uint32_t count = 0;
};

/// Every fixed-Huffman code the encoder emits, mirrored and — for match
/// lengths — with the extra bits already appended, so a symbol costs
/// one table load and one write.
struct FixedCodes {
  Code symbol[286];             // literal/length symbols; 256 ends a block
  Code length[kMaxMatch + 1];   // indexed by match length 3..258
  Code distance[30];            // 5-bit distance codes, before extras
  /// zlib's distance-code lookup: for d = distance - 1, entry d when
  /// d < 256, else 256 + (d >> 7) (codes 16+ start on multiples of 128).
  uint8_t distance_code[512];
};

constexpr FixedCodes BuildFixedCodes() {
  FixedCodes t{};
  // RFC 1951 §3.2.6: symbols 0..143 take 8 bits counting from 0x30,
  // 144..255 9 bits from 0x190, 256..279 7 bits from 0, 280..287 8 bits
  // from 0xC0.
  for (uint32_t sym = 0; sym < 286; ++sym) {
    const Code code = sym < 144   ? Code{0x30 + sym, 8}
                      : sym < 256 ? Code{0x190 + sym - 144, 9}
                      : sym < 280 ? Code{sym - 256, 7}
                                  : Code{0xC0 + sym - 280, 8};
    t.symbol[sym] = {ReverseBits(code.bits, code.count), code.count};
  }
  for (uint32_t code = 0; code < 29; ++code) {
    const uint32_t first = static_cast<uint32_t>(kLengthBase[code]);
    // Length 258 has its own code (285); 284's range stops at 257.
    const uint32_t last =
        code == 28 ? first
                   : std::min<uint32_t>(kLengthBase[code + 1] - 1, 257);
    const Code sym = t.symbol[257 + code];
    for (uint32_t len = first; len <= last; ++len) {
      t.length[len] = {sym.bits | ((len - first) << sym.count),
                       sym.count + static_cast<uint32_t>(kLengthExtra[code])};
    }
  }
  for (uint32_t code = 0; code < 30; ++code) {
    t.distance[code] = {ReverseBits(code, 5), 5};
    const uint32_t first = static_cast<uint32_t>(kDistBase[code]) - 1;
    const uint32_t span = 1u << kDistExtra[code];
    for (uint32_t d = first; d < first + span; ++d) {
      t.distance_code[d < 256 ? d : 256 + (d >> 7)] =
          static_cast<uint8_t>(code);
    }
  }
  return t;
}

constexpr FixedCodes kFixedCodes = BuildFixedCodes();

/// Code plus extra bits of a match distance (1..32768), at most 18 bits.
inline Code DistanceBits(size_t dist) {
  const size_t d = dist - 1;
  const uint32_t code = kFixedCodes.distance_code[d < 256 ? d : 256 + (d >> 7)];
  const Code sym = kFixedCodes.distance[code];
  const uint32_t extra =
      static_cast<uint32_t>(dist) - static_cast<uint32_t>(kDistBase[code]);
  return {sym.bits | (extra << sym.count),
          sym.count + static_cast<uint32_t>(kDistExtra[code])};
}

/// LSB-first bit packer (RFC 1951 §3.1.1): a 64-bit accumulator that
/// stores whole 32-bit little-endian words into a buffer the caller
/// sized for the worst case.
class BitWriter {
 public:
  explicit BitWriter(uint8_t* out) : out_(out) {}

  /// Appends the low `code.count` (at most 32) bits of `code.bits`;
  /// higher bits must be zero.
  void Write(Code code) {
    buffer_ |= static_cast<uint64_t>(code.bits) << filled_;
    filled_ += code.count;
    if (filled_ >= 32) {
      for (int k = 0; k < 4; ++k) {
        out_[k] = static_cast<uint8_t>(buffer_ >> (8 * k));
      }
      out_ += 4;
      buffer_ >>= 32;
      filled_ -= 32;
    }
  }

  /// Writes the pending bits, zero-padded to a whole byte, and returns
  /// one past the last byte written.
  uint8_t* Finish() {
    for (uint32_t bits = 0; bits < filled_; bits += 8) {
      *out_++ = static_cast<uint8_t>(buffer_ >> bits);
    }
    return out_;
  }

 private:
  uint8_t* out_;
  uint64_t buffer_ = 0;
  uint32_t filled_ = 0;  // below 32 between calls
};

/// Hash of the 3 bytes at `data + i` into kHashBits bits.
constexpr int kHashBits = 15;
inline uint32_t Hash3(const unsigned char* data, size_t i) {
  uint32_t v = static_cast<uint32_t>(data[i]) |
               (static_cast<uint32_t>(data[i + 1]) << 8) |
               (static_cast<uint32_t>(data[i + 2]) << 16);
  return (v * 0x9E3779B1u) >> (32 - kHashBits);
}

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

/// Most bytes a fixed-Huffman block of `n` input bytes takes: no symbol
/// spends more than 9 bits per input byte (a match of L >= 3 bytes takes
/// at most 31 bits), plus 3 header and 7 end-of-block bits.
size_t FixedHuffmanBound(size_t n) { return (9 * n + 10 + 7) / 8; }

void AppendFixedHuffmanBlock(const std::string& raw,
                             const DeflateOptions& options,
                             std::string* out) {
  const auto* data = reinterpret_cast<const unsigned char*>(raw.data());
  const size_t n = raw.size();
  const size_t max_chain =
      static_cast<size_t>(std::max(0, options.max_chain_length));

  // Hash chains over 3-byte prefixes: head[h] is the most recent
  // position hashing to h, prev[i] the next-older one — walking prev
  // visits candidates nearest-first, so equal-length ties keep the
  // shortest distance (fewest extra bits).
  std::vector<int32_t> head(size_t{1} << kHashBits, -1);
  std::vector<int32_t> prev(n, -1);
  auto insert = [&](size_t i) {
    if (i + kMinMatch > n) return;
    uint32_t h = Hash3(data, i);
    prev[i] = head[h];
    head[h] = static_cast<int32_t>(i);
  };

  const size_t start = out->size();
  out->resize(start + FixedHuffmanBound(n));
  BitWriter writer(reinterpret_cast<uint8_t*>(out->data() + start));
  writer.Write({0x3, 3});  // BFINAL=1, BTYPE=01: fixed Huffman

  size_t i = 0;
  while (i < n) {
    size_t best_len = 0;
    size_t best_dist = 0;
    if (i + kMinMatch <= n) {
      const size_t max_len = std::min(kMaxMatch, n - i);
      int32_t cand = head[Hash3(data, i)];
      // The chain head itself is one free probe; max_chain bounds the
      // *additional* links walked, so runs (distance-1 matches) always
      // resolve even at max_chain_length = 0.
      size_t probes = max_chain + 1;
      while (cand >= 0 && probes-- > 0 && best_len < max_len) {
        size_t dist = i - static_cast<size_t>(cand);
        if (dist > kWindowSize) break;  // chain is position-ordered
        const unsigned char* a = data + i;
        const unsigned char* b = data + static_cast<size_t>(cand);
        // Candidates can only beat best_len if they agree there too.
        if (best_len == 0 || a[best_len] == b[best_len]) {
          size_t len = MatchLength(a, b, max_len);
          if (len > best_len) {
            best_len = len;
            best_dist = dist;
            if (len >= kNiceMatch) break;
          }
        }
        cand = prev[static_cast<size_t>(cand)];
      }
    }
    if (best_len >= kMinMatch) {
      // Length code + extras (<= 13 bits) and distance code + extras
      // (<= 18 bits) go out as one write.
      const Code length = kFixedCodes.length[best_len];
      const Code distance = DistanceBits(best_dist);
      writer.Write({length.bits | (distance.bits << length.count),
                    length.count + distance.count});
      for (size_t j = 0; j < best_len; ++j) insert(i + j);
      i += best_len;
    } else {
      writer.Write(kFixedCodes.symbol[data[i]]);
      insert(i);
      ++i;
    }
  }
  writer.Write(kFixedCodes.symbol[256]);  // end of block
  const uint8_t* end = writer.Finish();
  out->resize(static_cast<size_t>(
      end - reinterpret_cast<const uint8_t*>(out->data())));
}

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

  /// Huffman codes arrive MSB-first: accumulate in reverse.
  uint32_t ReadCodeBit(uint32_t code) {
    return (code << 1) | static_cast<uint32_t>(ReadBit());
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

/// Decodes one fixed literal/length symbol (0..287) or -1 on an
/// invalid code.
int DecodeFixedLitLen(BitReader* reader) {
  uint32_t code = 0;
  for (int i = 0; i < 7; ++i) code = reader->ReadCodeBit(code);
  if (code <= 0x17) return 256 + static_cast<int>(code);
  code = reader->ReadCodeBit(code);  // 8 bits
  if (code >= 0x30 && code <= 0xBF) return static_cast<int>(code) - 0x30;
  if (code >= 0xC0 && code <= 0xC7) return 280 + static_cast<int>(code) - 0xC0;
  code = reader->ReadCodeBit(code);  // 9 bits
  if (code >= 0x190 && code <= 0x1FF) {
    return 144 + static_cast<int>(code) - 0x190;
  }
  return -1;
}

}  // namespace

uint32_t Adler32(const std::string& data) {
  // RFC 1950: two running sums modulo 65521. The modulo is deferred
  // across runs of 5552 bytes (the largest count that cannot overflow
  // 32 bits), zlib's NMAX optimization.
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

std::string ZlibCompress(const std::string& raw,
                         const DeflateOptions& options) {
  std::string out;
  out.reserve(FixedHuffmanBound(raw.size()) + 6);
  out.push_back('\x78');  // CMF: deflate, 32K window
  out.push_back('\x01');  // FLG: no dict, check bits (CMF*256+FLG)%31==0
  AppendFixedHuffmanBlock(raw, options, &out);
  uint32_t adler = Adler32(raw);
  out.push_back(static_cast<char>((adler >> 24) & 0xff));
  out.push_back(static_cast<char>((adler >> 16) & 0xff));
  out.push_back(static_cast<char>((adler >> 8) & 0xff));
  out.push_back(static_cast<char>(adler & 0xff));
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
    } else if (btype == 1) {  // fixed Huffman
      for (;;) {
        int sym = DecodeFixedLitLen(&reader);
        if (!reader.ok()) {
          return Status::InvalidArgument("truncated fixed-Huffman block");
        }
        if (sym < 0 || sym > 285) {
          return Status::InvalidArgument("invalid fixed-Huffman symbol");
        }
        if (sym < 256) {
          out.push_back(static_cast<char>(sym));
          continue;
        }
        if (sym == 256) break;  // end of block
        int lcode = sym - 257;
        size_t length = static_cast<size_t>(kLengthBase[lcode]) +
                        reader.ReadBits(kLengthExtra[lcode]);
        uint32_t dcode = 0;
        for (int i = 0; i < 5; ++i) dcode = reader.ReadCodeBit(dcode);
        if (dcode > 29) {
          return Status::InvalidArgument("invalid distance code");
        }
        size_t dist = static_cast<size_t>(kDistBase[dcode]) +
                      reader.ReadBits(kDistExtra[dcode]);
        if (!reader.ok()) {
          return Status::InvalidArgument("truncated match");
        }
        if (dist == 0 || dist > out.size()) {
          return Status::InvalidArgument(
              "match distance reaches before output");
        }
        // Byte-by-byte: overlapping matches (dist < length) replicate.
        size_t from = out.size() - dist;
        for (size_t j = 0; j < length; ++j) {
          out.push_back(out[from + j]);
        }
      }
    } else if (btype == 2) {
      return Status::Unimplemented(
          "dynamic-Huffman blocks are outside the reference inflater");
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
