#include "util/crc32.h"

#include <array>

namespace vas {

namespace {

// Slicing-by-8: tables[0] is the bytewise table, and tables[k][n] is
// the CRC register after byte n and k zero bytes, so eight lookups
// advance the CRC by eight bytes. Built once; a function-local static
// is initialized thread-safely.
using Crc32Tables = std::array<std::array<uint32_t, 256>, 8>;

const Crc32Tables& Tables() {
  static const Crc32Tables tables = []() {
    Crc32Tables t{};
    for (uint32_t n = 0; n < 256; ++n) {
      uint32_t c = n;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
      }
      t[0][n] = c;
    }
    for (size_t k = 1; k < 8; ++k) {
      for (uint32_t n = 0; n < 256; ++n) {
        t[k][n] = (t[k - 1][n] >> 8) ^ t[0][t[k - 1][n] & 0xffu];
      }
    }
    return t;
  }();
  return tables;
}

// Assembled from bytes, so neither alignment nor byte order matters.
inline uint32_t LoadLe32(const unsigned char* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 |
         static_cast<uint32_t>(p[3]) << 24;
}

}  // namespace

uint32_t Crc32(const void* data, size_t len) {
  const Crc32Tables& t = Tables();
  const auto* bytes = static_cast<const unsigned char*>(data);
  uint32_t crc = 0xffffffffu;
  for (; len >= 8; bytes += 8, len -= 8) {
    const uint32_t lo = crc ^ LoadLe32(bytes);
    const uint32_t hi = LoadLe32(bytes + 4);
    crc = t[7][lo & 0xffu] ^ t[6][(lo >> 8) & 0xffu] ^
          t[5][(lo >> 16) & 0xffu] ^ t[4][lo >> 24] ^ t[3][hi & 0xffu] ^
          t[2][(hi >> 8) & 0xffu] ^ t[1][(hi >> 16) & 0xffu] ^ t[0][hi >> 24];
  }
  for (; len > 0; ++bytes, --len) {
    crc = t[0][(crc ^ *bytes) & 0xffu] ^ (crc >> 8);
  }
  return crc ^ 0xffffffffu;
}

}  // namespace vas
