// Self-contained zlib/DEFLATE codec for the PNG encoder. The encoder
// side is the serving hot path: PNG scanlines are LZ77-matched with a
// hash-chain matcher and bit-packed with the fixed Huffman tables of
// RFC 1951 §3.2.6 — no dynamic-table pass, so encoding stays one
// deterministic sweep. The decoder side is a *reference inflater*: it
// exists so tests and benches can prove encoder round-trips without an
// external codec, and is never used for serving.
#ifndef VAS_RENDER_DEFLATE_H_
#define VAS_RENDER_DEFLATE_H_

#include <cstdint>
#include <string>

#include "util/status.h"

namespace vas {

struct DeflateOptions {
  /// Hash-chain positions examined per match attempt. More = smaller
  /// output, slower encode; 0 still takes the chain head (runs and
  /// immediate repeats compress either way).
  int max_chain_length = 32;
};

/// RFC 1950 Adler-32 checksum of `data`.
uint32_t Adler32(const std::string& data);

/// Compresses `raw` into a complete zlib stream: header, one LZ77 +
/// fixed-Huffman block (RFC 1951 §3.2.6), Adler-32. Deterministic:
/// identical input and options yield identical bytes.
std::string ZlibCompress(const std::string& raw,
                         const DeflateOptions& options = {});

/// Reference inflater for tests and benches only. Decompresses zlib
/// streams whose deflate payload uses stored and/or fixed-Huffman
/// blocks (a superset of what ZlibCompress emits; dynamic-Huffman
/// blocks are Unimplemented). Verifies all framing: zlib header check bits,
/// stored LEN/NLEN complements, in-window match distances, and the
/// trailing Adler-32.
StatusOr<std::string> ZlibDecompress(const std::string& stream);

}  // namespace vas

#endif  // VAS_RENDER_DEFLATE_H_
