#include "codec/lz.hpp"

#include <cstring>

#include "util/check.hpp"
#include "util/crc32.hpp"

namespace hetindex {
namespace {

constexpr std::uint32_t kMagic = 0x485A4C31;  // "1LZH"
constexpr std::size_t kBlockSize = 1u << 20;
constexpr std::size_t kMinMatch = 4;
constexpr std::size_t kHashBits = 16;
constexpr std::size_t kMaxOffset = 0xFFFF;

inline std::uint32_t hash4(const std::uint8_t* p) {
  std::uint32_t v;
  std::memcpy(&v, p, 4);
  return (v * 2654435761u) >> (32 - kHashBits);
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  const auto n = out.size();
  out.resize(n + 4);
  std::memcpy(out.data() + n, &v, 4);
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  const auto n = out.size();
  out.resize(n + 8);
  std::memcpy(out.data() + n, &v, 8);
}

std::uint32_t get_u32(const std::uint8_t* p) {
  std::uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

std::uint64_t get_u64(const std::uint8_t* p) {
  std::uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

void put_length_ext(std::vector<std::uint8_t>& out, std::size_t extra) {
  // LZ4-style length extension: bytes of 255 then a final byte < 255.
  while (extra >= 255) {
    out.push_back(255);
    extra -= 255;
  }
  out.push_back(static_cast<std::uint8_t>(extra));
}

/// Reads an LZ4-style length extension into `extra`; false on overrun.
bool get_length_ext(const std::uint8_t* data, std::size_t size, std::size_t& pos,
                    std::size_t& extra) {
  extra = 0;
  while (true) {
    if (pos >= size) return false;
    const std::uint8_t b = data[pos++];
    extra += b;
    if (b != 255) return true;
  }
}

/// Compresses one block; returns empty when the block is incompressible
/// (compressed form would not be smaller).
std::vector<std::uint8_t> compress_block(const std::uint8_t* src, std::size_t n) {
  std::vector<std::uint8_t> out;
  out.reserve(n / 2 + 64);
  std::vector<std::uint32_t> table(std::size_t{1} << kHashBits, 0xFFFFFFFFu);

  std::size_t pos = 0;
  std::size_t literal_start = 0;

  auto emit_sequence = [&](std::size_t lit_end, std::size_t match_len, std::size_t offset) {
    const std::size_t lit_len = lit_end - literal_start;
    const std::size_t ml_field = match_len == 0 ? 0 : match_len - kMinMatch;
    const std::uint8_t token =
        static_cast<std::uint8_t>((std::min<std::size_t>(lit_len, 15) << 4) |
                                  std::min<std::size_t>(ml_field, 15));
    out.push_back(token);
    if (lit_len >= 15) put_length_ext(out, lit_len - 15);
    out.insert(out.end(), src + literal_start, src + lit_end);
    // offset 0 is the end-of-block marker (no match follows).
    out.push_back(static_cast<std::uint8_t>(offset & 0xFF));
    out.push_back(static_cast<std::uint8_t>(offset >> 8));
    if (match_len > 0 && ml_field >= 15) put_length_ext(out, ml_field - 15);
  };

  while (pos + kMinMatch <= n) {
    const std::uint32_t h = hash4(src + pos);
    const std::uint32_t cand = table[h];
    table[h] = static_cast<std::uint32_t>(pos);
    if (cand != 0xFFFFFFFFu && pos - cand <= kMaxOffset &&
        std::memcmp(src + cand, src + pos, kMinMatch) == 0) {
      std::size_t len = kMinMatch;
      while (pos + len < n && src[cand + len] == src[pos + len]) ++len;
      emit_sequence(pos, len, pos - cand);
      // Insert a few positions inside the match to keep the table fresh.
      const std::size_t end = pos + len;
      for (std::size_t i = pos + 1; i + kMinMatch <= end && i < pos + 16; ++i) {
        table[hash4(src + i)] = static_cast<std::uint32_t>(i);
      }
      pos = end;
      literal_start = pos;
    } else {
      ++pos;
    }
    if (out.size() + (pos - literal_start) >= n) return {};  // not compressing
  }
  emit_sequence(n, 0, 0);
  if (out.size() >= n) return {};
  return out;
}

/// Decodes one compressed block into dst[0, raw_len); returns what is
/// wrong with it, or nullptr when it decoded exactly.
const char* decompress_block(const std::uint8_t* data, std::size_t size, std::uint8_t* dst,
                             std::size_t raw_len) {
  std::size_t pos = 0;
  std::size_t out = 0;
  while (true) {
    if (pos >= size) return "lz block truncated";
    const std::uint8_t token = data[pos++];
    std::size_t lit_len = token >> 4;
    std::size_t extra = 0;
    if (lit_len == 15) {
      if (!get_length_ext(data, size, pos, extra)) return "lz length extension overrun";
      lit_len += extra;
    }
    if (lit_len > size - pos || lit_len > raw_len - out) return "lz literal overrun";
    if (lit_len != 0) std::memcpy(dst + out, data + pos, lit_len);
    pos += lit_len;
    out += lit_len;
    if (size - pos < 2) return "lz offset truncated";
    const std::size_t offset = data[pos] | (static_cast<std::size_t>(data[pos + 1]) << 8);
    pos += 2;
    if (offset == 0) return out == raw_len ? nullptr : "lz block raw length mismatch";
    std::size_t match_len = (token & 0x0F);
    if (match_len == 15) {
      if (!get_length_ext(data, size, pos, extra)) return "lz length extension overrun";
      match_len += extra;
    }
    match_len += kMinMatch;
    if (offset > out || match_len > raw_len - out) return "lz match overrun";
    // Byte-by-byte copy: matches may overlap their own output (RLE case).
    const std::uint8_t* from = dst + out - offset;
    for (std::size_t i = 0; i < match_len; ++i) dst[out + i] = from[i];
    out += match_len;
  }
}

/// Decodes one block (stored or compressed) of `raw_len` bytes starting at
/// `payload` into `dst` and verifies its CRC; returns what is wrong, or
/// nullptr. `avail` is the frame's bytes from `payload` on.
const char* decode_block(const std::uint8_t* payload, std::size_t avail,
                         std::uint32_t raw_len, std::uint32_t comp_len, std::uint32_t crc,
                         std::uint8_t* dst) {
  if (comp_len == 0) {
    if (raw_len > avail) return "lz stored block truncated";
    // raw_len can be 0 for an empty payload; dst is null then and
    // memcpy(null, ..., 0) is still UB.
    if (raw_len != 0) std::memcpy(dst, payload, raw_len);
  } else {
    if (comp_len > avail) return "lz compressed block truncated";
    if (const char* bad = decompress_block(payload, comp_len, dst, raw_len)) return bad;
  }
  return crc32(dst, raw_len) == crc ? nullptr : "lz block crc mismatch";
}

}  // namespace

std::vector<std::uint8_t> lz_compress(const std::uint8_t* input, std::size_t size) {
  std::vector<std::uint8_t> out;
  out.reserve(size / 2 + 64);
  put_u32(out, kMagic);
  put_u64(out, size);
  for (std::size_t off = 0; off < size || off == 0; off += kBlockSize) {
    const std::size_t raw_len = std::min(kBlockSize, size - off);
    const auto block = compress_block(input + off, raw_len);
    put_u32(out, static_cast<std::uint32_t>(raw_len));
    put_u32(out, static_cast<std::uint32_t>(block.size()));
    put_u32(out, crc32(input + off, raw_len));
    if (block.empty()) {
      out.insert(out.end(), input + off, input + off + raw_len);  // stored
    } else {
      out.insert(out.end(), block.begin(), block.end());
    }
    if (size == 0) break;
  }
  return out;
}

std::vector<std::uint8_t> lz_compress(const std::vector<std::uint8_t>& input) {
  return lz_compress(input.data(), input.size());
}

std::uint64_t lz_raw_size(const std::uint8_t* input, std::size_t size) {
  HET_CHECK_MSG(size >= 12 && get_u32(input) == kMagic, "bad lz frame header");
  return get_u64(input + 4);
}

Expected<std::vector<std::uint8_t>> try_lz_decompress(const std::uint8_t* input,
                                                      std::size_t size) {
  const auto corrupt = [](const char* what) { return Error{ErrorCode::kCorrupt, what}; };
  if (size < 12 || get_u32(input) != kMagic) return corrupt("bad lz frame header");
  const std::uint64_t raw_size = get_u64(input + 4);
  // A token expands to at most ~255 raw bytes per input byte (stored
  // blocks 1:1), so a larger claim is corrupt — and never allocated.
  if (raw_size / 256 > size) return corrupt("lz frame raw size exceeds its payload");
  std::vector<std::uint8_t> out(raw_size);
  std::size_t pos = 12;
  std::size_t produced = 0;
  while (produced < raw_size || (raw_size == 0 && pos < size)) {
    if (size - pos < 12) return corrupt("lz frame truncated");
    const std::uint32_t raw_len = get_u32(input + pos);
    const std::uint32_t comp_len = get_u32(input + pos + 4);
    const std::uint32_t crc = get_u32(input + pos + 8);
    pos += 12;
    if (raw_len > raw_size - produced) return corrupt("lz frame raw size mismatch");
    if (const char* bad = decode_block(input + pos, size - pos, raw_len, comp_len, crc,
                                       out.data() + produced)) {
      return corrupt(bad);
    }
    pos += comp_len == 0 ? raw_len : comp_len;
    produced += raw_len;
    if (raw_size == 0) break;
  }
  return out;
}

std::vector<std::uint8_t> lz_decompress(const std::uint8_t* input, std::size_t size) {
  return try_lz_decompress(input, size).value();
}

std::vector<std::uint8_t> lz_decompress(const std::vector<std::uint8_t>& input) {
  return lz_decompress(input.data(), input.size());
}

std::vector<std::uint8_t> lz_decompress_prefix(const std::uint8_t* input, std::size_t size,
                                               std::uint64_t max_raw) {
  const std::uint64_t raw_size = lz_raw_size(input, size);
  const std::uint64_t want = std::min(raw_size, max_raw);
  std::vector<std::uint8_t> out;
  out.reserve(want + kBlockSize);
  std::size_t pos = 12;
  while (out.size() < want && pos + 12 <= size) {
    const std::uint32_t raw_len = get_u32(input + pos);
    const std::uint32_t comp_len = get_u32(input + pos + 4);
    const std::uint32_t crc = get_u32(input + pos + 8);
    pos += 12;
    const std::size_t at = out.size();
    out.resize(at + raw_len);
    const char* bad =
        decode_block(input + pos, size - pos, raw_len, comp_len, crc, out.data() + at);
    HET_CHECK_MSG(bad == nullptr, bad);
    pos += comp_len == 0 ? raw_len : comp_len;
  }
  return out;
}

}  // namespace hetindex
