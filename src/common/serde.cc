#include "common/serde.h"

namespace streamop {
namespace {

// Slicing-by-8 tables for CRC-32C (polynomial 0x1EDC6F41, reflected
// 0x82F63B78), built once. t[0] is the classic byte-at-a-time table; t[k]
// advances a byte's contribution past k further zero bytes, so eight table
// lookups fold eight input bytes per step. Every SOP1 frame, snapshot and
// flight segment is checked with this function, so it sits on the socket
// ingest path at ~24 bytes per record.
struct Crc32cTables {
  uint32_t t[8][256];
  Crc32cTables() {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? (c >> 1) ^ 0x82F63B78u : c >> 1;
      }
      t[0][i] = c;
    }
    for (int k = 1; k < 8; ++k) {
      for (uint32_t i = 0; i < 256; ++i) {
        t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFF];
      }
    }
  }
};

// Little-endian load, independent of host byte order.
inline uint32_t LoadLe32(const uint8_t* p) {
  return uint32_t{p[0]} | uint32_t{p[1]} << 8 | uint32_t{p[2]} << 16 |
         uint32_t{p[3]} << 24;
}

}  // namespace

uint32_t Crc32c(const void* data, size_t n, uint32_t seed) {
  static const Crc32cTables tables;
  const auto& t = tables.t;
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint32_t c = ~seed;
  for (; n >= 8; n -= 8, p += 8) {
    const uint32_t lo = c ^ LoadLe32(p);
    c = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^ t[5][(lo >> 16) & 0xFF] ^
        t[4][lo >> 24] ^ t[3][p[4]] ^ t[2][p[5]] ^ t[1][p[6]] ^ t[0][p[7]];
  }
  for (; n > 0; --n, ++p) {
    c = t[0][(c ^ *p) & 0xFF] ^ (c >> 8);
  }
  return ~c;
}

}  // namespace streamop
