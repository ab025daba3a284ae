// Self-contained zlib/DEFLATE codec for the PNG encoder. The encoder
// side is the serving hot path: PNG scanlines are LZ77-matched against
// the distances their layout makes likely (a run, one pixel back, one
// row up) plus one hash candidate, and each block is written with
// Huffman codes built from its own symbol counts (RFC 1951 §3.2.7), or
// with the fixed codes of §3.2.6 when those are no larger. The decoder
// side is a *reference inflater*: it exists so tests and benches can
// prove encoder round-trips without an external codec, and is never
// used for serving.
#ifndef VAS_RENDER_DEFLATE_H_
#define VAS_RENDER_DEFLATE_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "util/status.h"

namespace vas {

/// RFC 1950 Adler-32 checksum of `data`.
uint32_t Adler32(const std::string& data);

/// Compresses `raw` into a complete zlib stream: header, LZ77 +
/// Huffman blocks of at most 16,384 symbols each, Adler-32.
/// `bytes_per_pixel` and `bytes_per_row` describe the scanlines in
/// `raw` (a row's bytes include its filter byte): the matcher tries
/// one pixel and one row back at every position. Unstructured input
/// passes 1 and 0, which leaves runs and the hash candidate. Each block
/// takes the smaller of its dynamic and fixed forms (fixed on a tie),
/// so no block spends more than 9 bits per input byte plus 10.
/// Deterministic: identical input and geometry yield identical bytes.
std::string ZlibCompress(const std::string& raw, size_t bytes_per_pixel,
                         size_t bytes_per_row);

/// Reference inflater for tests and benches only. Decompresses zlib
/// streams of stored, fixed-Huffman and dynamic-Huffman blocks.
/// Verifies all framing: zlib header check bits, stored LEN/NLEN
/// complements, code-length tables (complete codes, in-range counts and
/// repeats), in-window match distances, and the trailing Adler-32.
StatusOr<std::string> ZlibDecompress(const std::string& stream);

/// Lengths of a Huffman code for the `count` (2 to 286) symbol
/// frequencies in `freq`, none longer than `max_bits` (at most 15, and
/// 2^max_bits at least the symbols used), in `lengths`. Unused symbols
/// get 0. When fewer than two symbols are used, the lowest unused ones
/// are added so that two are: the code is always complete. Ties break
/// by symbol, so the result is deterministic. Exposed for tests.
void HuffmanCodeLengths(const uint32_t* freq, size_t count, int max_bits,
                        uint8_t* lengths);

}  // namespace vas

#endif  // VAS_RENDER_DEFLATE_H_
