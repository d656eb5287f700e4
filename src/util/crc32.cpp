#include "util/crc32.hpp"

#include <array>
#include <bit>
#include <cstring>

namespace hetindex {
namespace {

// The word loads below read 4 input bytes as one native integer and index
// the tables low byte first.
static_assert(std::endian::native == std::endian::little,
              "slicing-by-8 CRC32 assumes a little-endian host");

using Tables = std::array<std::array<std::uint32_t, 256>, 8>;

/// Slicing-by-8 tables: kTables[0] is the classic bytewise table, and
/// kTables[k][b] is the CRC of byte b followed by k zero bytes, so eight
/// lookups advance the register over eight input bytes at once.
constexpr Tables make_tables() {
  Tables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFF];
    }
  }
  return t;
}

constexpr Tables kTables = make_tables();

}  // namespace

std::uint32_t crc32(const void* data, std::size_t n, std::uint32_t seed) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (; n >= 8; p += 8, n -= 8) {
    std::uint32_t lo = 0, hi = 0;
    std::memcpy(&lo, p, 4);  // memcpy: p carries no alignment guarantee
    std::memcpy(&hi, p + 4, 4);
    lo ^= c;
    c = kTables[7][lo & 0xFF] ^ kTables[6][(lo >> 8) & 0xFF] ^
        kTables[5][(lo >> 16) & 0xFF] ^ kTables[4][lo >> 24] ^ kTables[3][hi & 0xFF] ^
        kTables[2][(hi >> 8) & 0xFF] ^ kTables[1][(hi >> 16) & 0xFF] ^ kTables[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) c = kTables[0][(c ^ *p) & 0xFF] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

}  // namespace hetindex
