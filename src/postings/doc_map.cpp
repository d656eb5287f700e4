#include "postings/doc_map.hpp"

#include <algorithm>

#include "codec/lz.hpp"
#include "io/env.hpp"
#include "util/binary_io.hpp"
#include "util/check.hpp"

namespace hetindex {
namespace {
constexpr std::uint32_t kDocMapMagic = 0x4D434F44;    // "DOCM" — base-0 v1
constexpr std::uint32_t kDocMapMagicV2 = 0x32434F44;  // "DOC2" — carries base
}  // namespace

void DocMapBuilder::add_file(std::uint32_t doc_id_base, std::uint32_t file_seq,
                             const std::vector<std::string>& urls,
                             const std::vector<std::uint32_t>& token_counts) {
  HET_CHECK(urls.size() == token_counts.size());
  spans_.push_back({doc_id_base, file_seq, urls, token_counts});
}

void DocMapBuilder::append(const DocMap& map) {
  for (const auto& s : map.spans_) {
    std::vector<std::string> urls;
    std::vector<std::uint32_t> token_counts;
    urls.reserve(s.count);
    token_counts.reserve(s.count);
    for (std::uint32_t i = 0; i < s.count; ++i) {
      const auto& loc = map.locations_[s.doc_id_base - map.base_ + i];
      urls.push_back(loc.url);
      token_counts.push_back(loc.token_count);
    }
    spans_.push_back({s.doc_id_base, s.file_seq, std::move(urls), std::move(token_counts)});
  }
}

std::uint32_t DocMapBuilder::doc_count() const {
  std::uint32_t end = base_;
  for (const auto& s : spans_) {
    end = std::max(end, s.doc_id_base + static_cast<std::uint32_t>(s.urls.size()));
  }
  return end - base_;
}

void DocMapBuilder::write(const std::string& path) const {
  auto written = try_write(path);
  if (!written.has_value()) {
    check_failed("DocMapBuilder::write", __FILE__, __LINE__,
                 written.error().message.c_str());
  }
}

Status DocMapBuilder::try_write(const std::string& path) const {
  auto spans = spans_;
  std::sort(spans.begin(), spans.end(),
            [](const FileSpan& a, const FileSpan& b) { return a.doc_id_base < b.doc_id_base; });
  // Doc ids must tile [base, base + doc_count) without gaps or overlaps.
  std::uint32_t expected = base_;
  std::vector<std::uint8_t> raw;
  ByteWriter w(raw);
  w.u32(static_cast<std::uint32_t>(spans.size()));
  for (const auto& s : spans) {
    HET_CHECK_MSG(s.doc_id_base == expected, "doc map spans must be dense and disjoint");
    expected += static_cast<std::uint32_t>(s.urls.size());
    w.u32(s.doc_id_base);
    w.u32(s.file_seq);
    w.u32(static_cast<std::uint32_t>(s.urls.size()));
    for (std::size_t i = 0; i < s.urls.size(); ++i) {
      w.str(s.urls[i]);
      w.u32(s.token_counts[i]);
    }
  }
  const auto compressed = lz_compress(raw);
  std::vector<std::uint8_t> out;
  ByteWriter header(out);
  if (base_ == 0) {
    // v1 stays the batch pipeline's format, byte-for-byte.
    header.u32(kDocMapMagic);
    header.u32(expected);
  } else {
    header.u32(kDocMapMagicV2);
    header.u32(expected - base_);
    header.u32(base_);
  }
  out.insert(out.end(), compressed.begin(), compressed.end());
  return io::durable_write_file(path, out);
}

Expected<DocMap> DocMap::try_open(const std::string& path) {
  const auto corrupt = [&path](const std::string& what) {
    return Error{ErrorCode::kCorrupt, what + ": " + path};
  };
  const auto file = io::env().read_file(path);
  if (!file) return file.error();
  ByteReader header(file.value());
  if (header.remaining() < 8) return corrupt("doc map truncated");
  const std::uint32_t magic = header.u32();
  if (magic != kDocMapMagic && magic != kDocMapMagicV2) return corrupt("not a hetindex doc map");
  const std::uint32_t total = header.u32();
  DocMap map;
  if (magic == kDocMapMagicV2) {
    if (header.remaining() < 4) return corrupt("doc map truncated");
    map.base_ = header.u32();
  }
  const auto raw = try_lz_decompress(file.value().data() + header.position(),
                                     header.remaining());
  if (!raw) return corrupt(raw.error().message);
  ByteReader r(raw.value());
  // Bound the counts by the payload before allocating: a span header takes
  // 12 bytes, a record at least 8 (url length + token count).
  if (r.remaining() < 4) return corrupt("doc map payload truncated");
  const std::uint32_t spans = r.u32();
  if (spans > r.remaining() / 12 || total > r.remaining() / 8) {
    return corrupt("doc map counts exceed its payload");
  }
  map.locations_.resize(total);
  map.spans_.reserve(spans);
  std::uint32_t next = 0;  // local index the next span must start at
  for (std::uint32_t s = 0; s < spans; ++s) {
    if (r.remaining() < 12) return corrupt("doc map span truncated");
    const std::uint32_t base = r.u32();  // global
    const std::uint32_t file_seq = r.u32();
    const std::uint32_t count = r.u32();
    if (base - map.base_ != next || count > total - next) {
      return corrupt("doc map spans do not tile its doc range");
    }
    map.spans_.push_back({base, file_seq, count});
    for (std::uint32_t i = 0; i < count; ++i) {
      if (r.remaining() < 4) return corrupt("doc map record truncated");
      const std::uint32_t url_len = r.u32();
      if (r.remaining() < 4 || url_len > r.remaining() - 4) {
        return corrupt("doc map record truncated");
      }
      auto& loc = map.locations_[next + i];
      loc.url.resize(url_len);
      r.bytes(loc.url.data(), url_len);
      loc.token_count = r.u32();
      loc.file_seq = file_seq;
      loc.local_id = i;
    }
    next += count;
  }
  if (next != total || r.remaining() != 0) return corrupt("doc map record count mismatch");
  return map;
}

DocMap DocMap::open(const std::string& path) { return try_open(path).value(); }

double DocMap::average_doc_tokens() const {
  if (locations_.empty()) return 0.0;
  return static_cast<double>(token_sum()) / static_cast<double>(locations_.size());
}

std::uint64_t DocMap::token_sum() const {
  std::uint64_t total = 0;
  for (const auto& loc : locations_) total += loc.token_count;
  return total;
}

const DocLocation& DocMap::location(std::uint32_t doc_id) const {
  HET_CHECK_MSG(contains(doc_id), "doc id out of range");
  return locations_[doc_id - base_];
}

std::string doc_map_path(const std::string& index_dir) { return index_dir + "/docmap.bin"; }

}  // namespace hetindex
