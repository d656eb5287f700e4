#include "postings/bloom.hpp"

#include <algorithm>

#include "io/env.hpp"
#include "postings/segment.hpp"
#include "util/binary_io.hpp"
#include "util/check.hpp"
#include "util/crc32.hpp"

namespace hetindex {
namespace {

constexpr std::uint32_t kBloomMagic = 0x4D4C4248;  // "HBLM"
constexpr std::uint32_t kBloomVersion = 1;
constexpr std::size_t kBloomHeaderBytes = 32;  // magic,version,bpe,k,terms,words

/// splitmix64 — a cheap, well-distributed 64-bit mix; the two halves feed
/// classic double hashing (probe i tests bit h1 + i·h2).
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

std::uint64_t words_for_bits(std::uint64_t bits) { return (bits + 63) / 64; }

}  // namespace

void BloomSidecar::add_term(const std::uint32_t* doc_ids, std::size_t count) {
  add_empty_term(count);
  insert(term_count() - 1, doc_ids, count);
}

void BloomSidecar::add_empty_term(std::size_t count) {
  HET_CHECK_MSG(options_.bits_per_element > 0 && options_.hashes > 0,
                "bloom options must be positive");
  // Round up to whole words (at least one): probes always have bits to
  // land on and the sidecar stores no partial words.
  const std::uint64_t bits =
      64 * words_for_bits(std::max<std::uint64_t>(
               1, static_cast<std::uint64_t>(count) * options_.bits_per_element));
  words_.resize(static_cast<std::size_t>(word_begin_.back() + words_for_bits(bits)), 0);
  bits_.push_back(bits);
  word_begin_.push_back(words_.size());
}

void BloomSidecar::insert(std::uint64_t ordinal, const std::uint32_t* doc_ids,
                          std::size_t count) {
  HET_CHECK(ordinal < term_count());
  const std::uint64_t bits = bits_[static_cast<std::size_t>(ordinal)];
  std::uint64_t* words = words_.data() + word_begin_[static_cast<std::size_t>(ordinal)];
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t h = mix64(doc_ids[i]);
    const std::uint64_t h1 = h;
    const std::uint64_t h2 = mix64(h) | 1;  // odd stride: probes cover all bits
    for (std::uint32_t probe = 0; probe < options_.hashes; ++probe) {
      const std::uint64_t bit = (h1 + probe * h2) % bits;
      words[bit / 64] |= 1ull << (bit % 64);
    }
  }
}

bool BloomSidecar::may_contain(std::uint64_t ordinal, std::uint32_t doc) const {
  HET_CHECK(ordinal < term_count());
  const std::uint64_t bits = bits_[static_cast<std::size_t>(ordinal)];
  const std::uint64_t begin = word_begin_[static_cast<std::size_t>(ordinal)];
  const std::uint64_t h = mix64(doc);
  const std::uint64_t h1 = h;
  const std::uint64_t h2 = mix64(h) | 1;
  for (std::uint32_t probe = 0; probe < options_.hashes; ++probe) {
    const std::uint64_t bit = (h1 + probe * h2) % bits;
    if ((words_[static_cast<std::size_t>(begin + bit / 64)] & (1ull << (bit % 64))) == 0) {
      return false;
    }
  }
  return true;
}

std::string bloom_sidecar_path(const std::string& segment_path) {
  return segment_path + ".blm";
}

Status write_bloom_sidecar(const std::string& segment_path, const BloomSidecar& sidecar) {
  std::vector<std::uint8_t> out;
  out.reserve(kBloomHeaderBytes + 8 * (sidecar.bits_.size() + sidecar.words_.size()) + 4);
  ByteWriter w(out);
  w.u32(kBloomMagic);
  w.u32(kBloomVersion);
  w.u32(sidecar.options_.bits_per_element);
  w.u32(sidecar.options_.hashes);
  w.u64(sidecar.term_count());
  w.u64(sidecar.words_.size());
  for (const std::uint64_t bits : sidecar.bits_) w.u64(bits);
  for (const std::uint64_t word : sidecar.words_) w.u64(word);
  w.u32(crc32(out.data(), out.size()));
  return io::durable_write_file(bloom_sidecar_path(segment_path), out);
}

Expected<BloomSidecar> read_bloom_sidecar(const std::string& segment_path,
                                          std::uint64_t expected_terms) {
  const std::string path = bloom_sidecar_path(segment_path);
  const auto corrupt = [&path](const char* what) {
    return Error{ErrorCode::kCorrupt, std::string(what) + ": " + path};
  };
  if (!file_exists(path)) {
    return Error{ErrorCode::kNotFound, "no bloom sidecar: " + path};
  }
  const auto data = read_file(path);
  if (data.size() < kBloomHeaderBytes + 4) {
    return corrupt("bloom sidecar too small (truncated?)");
  }
  if (crc32(data.data(), data.size() - 4) !=
      ByteReader(data.data() + (data.size() - 4), 4).u32()) {
    return corrupt("bloom sidecar corruption (crc mismatch)");
  }
  ByteReader r(data.data(), data.size() - 4);
  if (r.u32() != kBloomMagic) return corrupt("not a bloom sidecar");
  if (r.u32() != kBloomVersion) {
    return Error{ErrorCode::kUnsupported, "unsupported bloom sidecar version: " + path};
  }
  BloomSidecar sidecar;
  sidecar.options_.bits_per_element = r.u32();
  sidecar.options_.hashes = r.u32();
  if (sidecar.options_.bits_per_element == 0 || sidecar.options_.hashes == 0 ||
      sidecar.options_.hashes > 64) {
    return corrupt("bloom sidecar has nonsense options");
  }
  const std::uint64_t term_count = r.u64();
  const std::uint64_t total_words = r.u64();
  if (term_count != expected_terms) return corrupt("bloom sidecar term count mismatch");
  // Both counts come from the file, so compare them against the payload
  // one at a time: their sum (or its byte size) can wrap around.
  const std::uint64_t payload_words = r.remaining() / 8;
  if (r.remaining() % 8 != 0 || term_count > payload_words ||
      total_words != payload_words - term_count) {
    return corrupt("bloom sidecar truncated");
  }
  sidecar.bits_.resize(static_cast<std::size_t>(term_count));
  std::uint64_t words_sum = 0;
  for (auto& bits : sidecar.bits_) {
    bits = r.u64();
    if (bits == 0 || bits % 64 != 0) return corrupt("bloom sidecar has a bad filter size");
    if (words_for_bits(bits) > total_words - words_sum) {
      return corrupt("bloom sidecar word count mismatch");
    }
    words_sum += words_for_bits(bits);
    sidecar.word_begin_.push_back(words_sum);
  }
  if (words_sum != total_words) return corrupt("bloom sidecar word count mismatch");
  sidecar.words_.resize(static_cast<std::size_t>(total_words));
  for (auto& word : sidecar.words_) word = r.u64();
  return sidecar;
}

BloomSidecar compute_blooms(const SegmentReader& reader, BloomOptions options) {
  BloomSidecar sidecar(options);
  std::vector<std::uint32_t> doc_ids, tfs;
  for (std::uint64_t ord = 0; ord < reader.term_count(); ++ord) {
    doc_ids.clear();
    tfs.clear();
    reader.decode(reader.meta(ord), doc_ids, tfs);
    sidecar.add_term(doc_ids.data(), doc_ids.size());
  }
  return sidecar;
}

}  // namespace hetindex
