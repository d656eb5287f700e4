#include "postings/segment.hpp"

#include <algorithm>
#include <cstring>
#include <mutex>
#include <span>

#include "codec/front_coding.hpp"
#include "io/env.hpp"
#include "postings/bloom.hpp"
#include "postings/query.hpp"
#include "util/binary_io.hpp"
#include "util/check.hpp"
#include "util/crc32.hpp"
#include "util/thread_pool.hpp"

namespace hetindex {
namespace {

constexpr std::uint32_t kSegmentMagic = 0x47455348;        // "HSEG"
constexpr std::uint32_t kSegmentFooterMagic = 0x544F4F46;  // "FOOT"
constexpr std::uint32_t kSegmentVersion = 1;
constexpr std::size_t kHeaderBytes = 80;
constexpr std::size_t kFooterBytes = 16;
constexpr std::size_t kTableRowBytes = 24;

constexpr std::uint32_t kBlockIndexMagic = 0x584D4248;  // "HBMX"
constexpr std::uint32_t kBlockIndexVersion = 1;
constexpr std::size_t kBlockEntryBytes = 24;

/// vbyte_encode into a raw buffer; with out == nullptr it only measures.
std::size_t put_vbyte(std::uint8_t* out, std::uint64_t v) {
  std::size_t n = 0;
  for (; v >= 0x80; v >>= 7, ++n) {
    if (out != nullptr) out[n] = static_cast<std::uint8_t>(v) | 0x80u;
  }
  if (out != nullptr) out[n] = static_cast<std::uint8_t>(v);
  return n + 1;
}

/// One dictionary-section term: a block leader verbatim behind its u32
/// length (so the reader's block index can point a string_view straight at
/// the mapping), any other term front-coded against `prev` as
/// vbyte(shared) vbyte(suffix length) suffix. With out == nullptr it only
/// measures. Returns the bytes (to be) written.
std::size_t put_dict_term(std::uint8_t* out, bool leader, std::string_view prev,
                          std::string_view term) {
  if (leader) {
    if (out != nullptr) {
      const auto len = static_cast<std::uint32_t>(term.size());
      std::memcpy(out, &len, 4);
      std::memcpy(out + 4, term.data(), term.size());
    }
    return 4 + term.size();
  }
  const std::size_t shared = common_prefix_length(prev, term);
  const std::size_t suffix = term.size() - shared;
  std::size_t n = put_vbyte(out, shared);
  n += put_vbyte(out == nullptr ? nullptr : out + n, suffix);
  if (out != nullptr) std::memcpy(out + n, term.data() + shared, suffix);
  return n + suffix;
}

/// One postings-table row: offset/bytes/count/min_doc/max_doc.
void put_table_row(std::uint8_t* out, std::uint64_t offset, std::uint32_t bytes,
                   std::uint32_t count, std::uint32_t min_doc, std::uint32_t max_doc) {
  std::memcpy(out, &offset, 8);
  std::memcpy(out + 8, &bytes, 4);
  std::memcpy(out + 12, &count, 4);
  std::memcpy(out + 16, &min_doc, 4);
  std::memcpy(out + 20, &max_doc, 4);
}

/// What the header records beside the section sizes.
struct SegmentShape {
  PostingCodec codec = PostingCodec::kVByte;
  std::uint32_t terms_per_block = kSegmentTermsPerBlock;
  std::uint64_t term_count = 0;
  std::uint32_t min_doc = 0;
  std::uint32_t max_doc = 0;
  std::uint64_t dict_bytes = 0;
  std::uint64_t table_bytes = 0;
  std::uint64_t blob_bytes = 0;

  [[nodiscard]] std::uint64_t file_bytes() const {
    return kHeaderBytes + dict_bytes + table_bytes + blob_bytes + kFooterBytes;
  }
};

/// Fills in the header and the CRC footer of a presized segment image whose
/// three sections are already in place.
void seal_segment(std::vector<std::uint8_t>& image, const SegmentShape& shape) {
  HET_CHECK(image.size() == shape.file_bytes());
  std::vector<std::uint8_t> header;
  header.reserve(kHeaderBytes);
  ByteWriter w(header);
  w.u32(kSegmentMagic);
  w.u32(kSegmentVersion);
  w.u8(static_cast<std::uint8_t>(shape.codec));
  w.u8(0);   // reserved
  w.u16(0);  // reserved
  w.u32(shape.terms_per_block);
  w.u64(shape.term_count);
  w.u32(shape.term_count == 0 ? 0 : shape.min_doc);
  w.u32(shape.term_count == 0 ? 0 : shape.max_doc);
  const std::uint64_t dict_off = kHeaderBytes;
  const std::uint64_t table_off = dict_off + shape.dict_bytes;
  const std::uint64_t blob_off = table_off + shape.table_bytes;
  w.u64(dict_off);
  w.u64(shape.dict_bytes);
  w.u64(table_off);
  w.u64(shape.table_bytes);
  w.u64(blob_off);
  w.u64(shape.blob_bytes);
  HET_CHECK(header.size() == kHeaderBytes);
  std::memcpy(image.data(), header.data(), kHeaderBytes);

  const std::size_t payload = image.size() - kFooterBytes;
  const std::uint64_t total = image.size();
  const std::uint32_t crc = crc32(image.data(), payload);
  std::memcpy(image.data() + payload, &total, 8);
  std::memcpy(image.data() + payload + 8, &crc, 4);
  std::memcpy(image.data() + payload + 12, &kSegmentFooterMagic, 4);
}

}  // namespace

// ------------------------------------------------------------- .bmx sidecar

void BlockIndex::add_term(const std::vector<PostingBlockEntry>& entries) {
  const auto count = static_cast<std::uint32_t>(entries.size());
  add_terms(entries.data(), &count, 1);
}

void BlockIndex::add_terms(const PostingBlockEntry* rows, const std::uint32_t* counts,
                           std::size_t terms) {
  std::size_t total = 0;
  for (std::size_t i = 0; i < terms; ++i) {
    HET_CHECK_MSG(counts[i] > 0, "block index terms must have blocks");
    std::uint32_t mx = 0;
    for (std::size_t b = total; b < total + counts[i]; ++b) mx = std::max(mx, rows[b].max_tf);
    max_tf_.push_back(mx);
    total += counts[i];
    begin_.push_back(entries_.size() + total);
  }
  entries_.insert(entries_.end(), rows, rows + total);
}

void BlockIndex::reserve(std::uint64_t terms, std::uint64_t blocks) {
  begin_.reserve(static_cast<std::size_t>(terms + 1));
  max_tf_.reserve(static_cast<std::size_t>(terms));
  entries_.reserve(static_cast<std::size_t>(blocks));
}

std::pair<const PostingBlockEntry*, std::size_t> BlockIndex::blocks(
    std::uint64_t ordinal) const {
  HET_CHECK(ordinal < term_count());
  const std::size_t b = static_cast<std::size_t>(begin_[ordinal]);
  const std::size_t e = static_cast<std::size_t>(begin_[ordinal + 1]);
  return {entries_.data() + b, e - b};
}

std::uint32_t BlockIndex::term_max_tf(std::uint64_t ordinal) const {
  HET_CHECK(ordinal < term_count());
  return max_tf_[static_cast<std::size_t>(ordinal)];
}

std::string block_index_sidecar_path(const std::string& segment_path) {
  return segment_path + ".bmx";
}

Status write_block_index_sidecar(const std::string& segment_path,
                                 const BlockIndex& index) {
  std::vector<std::uint8_t> out;
  out.reserve(28 + 4 * index.term_count() + kBlockEntryBytes * index.total_blocks());
  ByteWriter w(out);
  w.u32(kBlockIndexMagic);
  w.u32(kBlockIndexVersion);
  w.u64(index.term_count());
  w.u64(index.total_blocks());
  for (std::uint64_t ord = 0; ord < index.term_count(); ++ord) {
    w.u32(static_cast<std::uint32_t>(index.blocks(ord).second));
  }
  for (std::uint64_t ord = 0; ord < index.term_count(); ++ord) {
    const auto [entries, count] = index.blocks(ord);
    for (std::size_t i = 0; i < count; ++i) {
      w.u64(entries[i].offset);
      w.u32(entries[i].bytes);
      w.u32(entries[i].last_doc);
      w.u32(entries[i].count);
      w.u32(entries[i].max_tf);
    }
  }
  w.u32(crc32(out.data(), out.size()));
  return io::durable_write_file(block_index_sidecar_path(segment_path), out);
}

Expected<BlockIndex> read_block_index_sidecar(const std::string& segment_path,
                                              std::uint64_t expected_terms) {
  const std::string path = block_index_sidecar_path(segment_path);
  const auto corrupt = [&path](const char* what) {
    return Error{ErrorCode::kCorrupt, std::string(what) + ": " + path};
  };
  if (!file_exists(path)) {
    return Error{ErrorCode::kNotFound, "no block-index sidecar: " + path};
  }
  const auto data = read_file(path);
  if (data.size() < 28) return corrupt("block-index sidecar too small (truncated?)");
  if (crc32(data.data(), data.size() - 4) !=
      ByteReader(data.data() + (data.size() - 4), 4).u32()) {
    return corrupt("block-index sidecar corruption (crc mismatch)");
  }
  ByteReader r(data.data(), data.size() - 4);
  if (r.u32() != kBlockIndexMagic) return corrupt("not a block-index sidecar");
  if (r.u32() != kBlockIndexVersion) {
    return Error{ErrorCode::kUnsupported,
                 "unsupported block-index sidecar version: " + path};
  }
  const std::uint64_t term_count = r.u64();
  const std::uint64_t total_blocks = r.u64();
  if (term_count != expected_terms) {
    return corrupt("block-index sidecar term count mismatch");
  }
  // Bound each count by the payload before multiplying: a hostile count
  // could otherwise wrap the size product onto the real payload size.
  if (term_count > r.remaining() / 4 ||
      total_blocks > (r.remaining() - term_count * 4) / kBlockEntryBytes ||
      r.remaining() != term_count * 4 + total_blocks * kBlockEntryBytes) {
    return corrupt("block-index sidecar truncated");
  }
  std::vector<std::uint32_t> counts(static_cast<std::size_t>(term_count));
  std::uint64_t sum = 0;
  for (auto& c : counts) {
    c = r.u32();
    if (c == 0) return corrupt("block-index sidecar has a blockless term");
    sum += c;
  }
  if (sum != total_blocks) return corrupt("block-index sidecar block count mismatch");
  BlockIndex index;
  std::vector<PostingBlockEntry> term_entries;
  for (const std::uint32_t c : counts) {
    term_entries.clear();
    std::uint64_t next_offset = 0;
    std::uint32_t prev_last = 0;
    for (std::uint32_t i = 0; i < c; ++i) {
      PostingBlockEntry e;
      e.offset = r.u64();
      e.bytes = r.u32();
      e.last_doc = r.u32();
      e.count = r.u32();
      e.max_tf = r.u32();
      // Blocks tile the blob contiguously and ascend by doc id; anything
      // else cannot have come from the writer.
      if (e.offset != next_offset || e.bytes == 0 || e.count == 0 || e.max_tf == 0 ||
          (i > 0 && e.last_doc <= prev_last)) {
        return corrupt("block-index sidecar rows inconsistent");
      }
      next_offset = e.offset + e.bytes;
      prev_last = e.last_doc;
      term_entries.push_back(e);
    }
    index.add_term(term_entries);
  }
  return index;
}

BlockIndex compute_block_index(const SegmentReader& reader) {
  BlockIndex index;
  std::vector<PostingBlockEntry> term_entries;
  std::vector<std::uint32_t> doc_ids, tfs;
  for (std::uint64_t ord = 0; ord < reader.term_count(); ++ord) {
    const auto m = reader.meta(ord);
    const auto [blob, bytes] = reader.raw_blob(m);
    term_entries.clear();
    std::size_t pos = 0;
    while (pos < bytes) {
      doc_ids.clear();
      tfs.clear();
      const std::size_t consumed = decode_postings(blob, bytes, doc_ids, tfs, nullptr, pos);
      if (doc_ids.empty()) {  // empty sub-list: header only, no block row
        pos += consumed;
        continue;
      }
      PostingBlockEntry e;
      e.offset = pos;
      e.bytes = static_cast<std::uint32_t>(consumed);
      e.last_doc = doc_ids.back();
      e.count = static_cast<std::uint32_t>(doc_ids.size());
      e.max_tf = *std::max_element(tfs.begin(), tfs.end());
      term_entries.push_back(e);
      pos += consumed;
    }
    index.add_term(term_entries);
  }
  return index;
}

Status validate_block_index(const SegmentReader& reader, const BlockIndex& index) {
  const auto corrupt = [&reader](const char* what) {
    return Error{ErrorCode::kCorrupt,
                 std::string(what) + ": " + block_index_sidecar_path(reader.path())};
  };
  if (index.term_count() != reader.term_count()) {
    return corrupt("block-index sidecar term count mismatch");
  }
  for (std::uint64_t ord = 0; ord < reader.term_count(); ++ord) {
    const auto m = reader.meta(ord);
    const auto [entries, count] = index.blocks(ord);
    std::uint64_t bytes = 0, postings = 0;
    for (std::size_t i = 0; i < count; ++i) {
      bytes += entries[i].bytes;
      postings += entries[i].count;
    }
    if (bytes != m.bytes || postings != m.count ||
        entries[count - 1].last_doc != m.max_doc) {
      return corrupt("block-index sidecar disagrees with segment table");
    }
  }
  return Unit{};
}

Expected<ServedSegment> open_served_segment(const std::string& path) {
  auto reader = SegmentReader::try_open(path);
  if (!reader.has_value()) return reader.error();
  ServedSegment seg{std::move(reader).value(), {}, std::nullopt};
  const std::uint64_t terms = seg.reader.term_count();
  auto blocks = read_block_index_sidecar(path, terms);
  if (blocks.has_value()) {
    // A structurally sound sidecar can still be stale (from an older
    // segment under the same name); cross-check before letting it steer
    // seeks over raw blobs.
    auto consistent = validate_block_index(seg.reader, blocks.value());
    if (!consistent.has_value()) return consistent.error();
    seg.blocks = std::move(blocks).value();
  } else if (blocks.error().code == ErrorCode::kNotFound) {
    seg.blocks = compute_block_index(seg.reader);
  } else {
    return blocks.error();
  }
  auto blooms = read_bloom_sidecar(path, terms);
  if (blooms.has_value()) {
    seg.blooms = std::move(blooms).value();
  } else if (blooms.error().code != ErrorCode::kNotFound) {
    return blooms.error();
  }
  return seg;
}

void remove_segment_files(const std::string& seg_path) {
  (void)io::env().remove_file(seg_path);
  (void)io::env().remove_file(block_index_sidecar_path(seg_path));
  (void)io::env().remove_file(bloom_sidecar_path(seg_path));
}

SegmentWriter::SegmentWriter(std::string path, PostingCodec codec,
                             std::uint32_t terms_per_block)
    : path_(std::move(path)), codec_(codec), terms_per_block_(terms_per_block) {
  HET_CHECK_MSG(terms_per_block_ >= 1, "segment block size must be >= 1");
}

void SegmentWriter::add_term(std::string_view term, const std::uint8_t* blob,
                             std::size_t blob_bytes, std::uint32_t count,
                             std::uint32_t min_doc, std::uint32_t max_doc) {
  HET_CHECK(!finalized_);
  HET_CHECK_MSG(term_count_ == 0 || prev_term_ < term,
                "segment terms must be sorted and unique");
  HET_CHECK_MSG(count > 0 && blob_bytes > 0, "segment terms must have postings");
  HET_CHECK(min_doc <= max_doc && blob_bytes <= 0xFFFFFFFFull);

  const std::size_t row_at = table_.size();
  table_.resize(row_at + kTableRowBytes);
  put_table_row(table_.data() + row_at, blobs_.size(), static_cast<std::uint32_t>(blob_bytes),
                count, min_doc, max_doc);
  blobs_.insert(blobs_.end(), blob, blob + blob_bytes);

  const bool leader = block_fill_ == 0;
  const std::size_t dict_at = dict_.size();
  dict_.resize(dict_at + put_dict_term(nullptr, leader, prev_term_, term));
  put_dict_term(dict_.data() + dict_at, leader, prev_term_, term);
  block_fill_ = (block_fill_ + 1) % terms_per_block_;

  prev_term_.assign(term);
  min_doc_ = std::min(min_doc_, min_doc);
  max_doc_ = std::max(max_doc_, max_doc);
  ++term_count_;
}

std::vector<std::uint8_t> SegmentWriter::finish() {
  HET_CHECK(!finalized_);
  finalized_ = true;
  const SegmentShape shape{codec_,       terms_per_block_, term_count_,   min_doc_,
                           max_doc_,     dict_.size(),     table_.size(), blobs_.size()};
  std::vector<std::uint8_t> image(static_cast<std::size_t>(shape.file_bytes()));
  std::uint8_t* at = image.data() + kHeaderBytes;
  for (auto* section : {&dict_, &table_, &blobs_}) {
    if (!section->empty()) std::memcpy(at, section->data(), section->size());
    at += section->size();
    std::vector<std::uint8_t>().swap(*section);  // the image owns the bytes now
  }
  seal_segment(image, shape);
  return image;
}

Expected<std::uint64_t> SegmentWriter::finalize() {
  const auto image = finish();
  // Durable before anything references it: a manifest must never commit a
  // segment whose bytes could still be lost to a crash.
  auto written = io::durable_write_file(path_, image);
  if (!written.has_value()) return written.error();
  return image.size();
}

SegmentReader SegmentReader::open(const std::string& path) {
  auto r = try_open(path);
  if (!r.has_value()) {
    check_failed("SegmentReader::open", __FILE__, __LINE__, r.error().message.c_str());
  }
  return std::move(r).value();
}

Expected<SegmentReader> SegmentReader::try_open(const std::string& path) {
  const auto corrupt = [&path](const char* what) {
    return Error{ErrorCode::kCorrupt, std::string(what) + ": " + path};
  };
  if (!file_exists(path)) {
    return Error{ErrorCode::kNotFound, "cannot open segment file: " + path};
  }
  SegmentReader r;
  auto file = MmapFile::try_open(path);
  if (!file.has_value()) return file.error();
  r.file_ = std::move(file).value();
  const std::uint8_t* data = r.file_.data();
  const std::size_t n = r.file_.size();
  if (n < kHeaderBytes + kFooterBytes) return corrupt("segment file too small (truncated?)");

  // Footer first: it guards everything else, including the header.
  ByteReader fr(data + (n - kFooterBytes), kFooterBytes);
  const std::uint64_t total = fr.u64();
  const std::uint32_t crc = fr.u32();
  if (fr.u32() != kSegmentFooterMagic) return corrupt("bad segment footer magic");
  if (total != n) return corrupt("segment file truncated (size mismatch with footer)");
  if (crc32(data, n - kFooterBytes) != crc) {
    return corrupt("segment file corruption (crc mismatch)");
  }

  ByteReader h(data, n - kFooterBytes);
  if (h.u32() != kSegmentMagic) return corrupt("not a hetindex segment file");
  if (h.u32() != kSegmentVersion) {
    return Error{ErrorCode::kUnsupported, "unsupported segment version: " + path};
  }
  const std::uint8_t codec_byte = h.u8();
  if (codec_byte > static_cast<std::uint8_t>(PostingCodec::kBitPacked)) {
    return Error{ErrorCode::kUnsupported, "unknown segment posting codec: " + path};
  }
  r.codec_ = static_cast<PostingCodec>(codec_byte);
  h.skip(3);  // reserved
  r.terms_per_block_ = h.u32();
  if (r.terms_per_block_ < 1) return corrupt("segment block size must be >= 1");
  r.term_count_ = h.u64();
  r.min_doc_ = h.u32();
  r.max_doc_ = h.u32();
  r.dict_off_ = h.u64();
  r.dict_bytes_ = h.u64();
  r.table_off_ = h.u64();
  r.table_bytes_ = h.u64();
  r.blob_off_ = h.u64();
  r.blob_bytes_ = h.u64();
  const std::uint64_t payload_end = n - kFooterBytes;
  if (!(r.dict_off_ == kHeaderBytes && r.table_off_ == r.dict_off_ + r.dict_bytes_ &&
        r.blob_off_ == r.table_off_ + r.table_bytes_ &&
        r.blob_off_ + r.blob_bytes_ == payload_end)) {
    return corrupt("segment section out of bounds");
  }
  if (r.table_bytes_ != r.term_count_ * kTableRowBytes) {
    return corrupt("segment section out of bounds");
  }

  // One pass over the dictionary builds the sparse block index; term bytes
  // themselves stay in the mapping.
  const std::uint8_t* dict = r.dict_data();
  std::size_t pos = 0;
  r.blocks_.reserve(static_cast<std::size_t>(
      (r.term_count_ + r.terms_per_block_ - 1) / r.terms_per_block_));
  // Truncated coded terms here are a structural defect of the file, not a
  // programming error — report kCorrupt so TermCursor and find() never walk
  // past the section (they reuse the offsets validated in this pass).
  for (std::uint64_t base = 0; base < r.term_count_; base += r.terms_per_block_) {
    if (pos + 4 > r.dict_bytes_) return corrupt("segment dictionary truncated");
    std::uint32_t first_len = 0;
    std::memcpy(&first_len, dict + pos, 4);
    pos += 4;
    if (pos + first_len > r.dict_bytes_) return corrupt("segment dictionary truncated");
    Block b;
    b.first = std::string_view(reinterpret_cast<const char*>(dict + pos), first_len);
    pos += first_len;
    b.coded_pos = pos;
    b.base = base;
    const std::uint64_t in_block = std::min<std::uint64_t>(r.terms_per_block_,
                                                           r.term_count_ - base);
    for (std::uint64_t i = 1; i < in_block; ++i) {
      (void)vbyte_decode(dict, r.dict_bytes_, pos);  // shared prefix length
      const std::uint64_t suffix = vbyte_decode(dict, r.dict_bytes_, pos);
      if (pos + suffix > r.dict_bytes_) return corrupt("segment dictionary truncated");
      pos += suffix;
    }
    r.blocks_.push_back(b);
  }
  if (pos != r.dict_bytes_) return corrupt("segment dictionary truncated");
  return r;
}

void SegmentReader::next_term(std::string& cur, std::size_t& pos) const {
  const std::uint8_t* dict = dict_data();
  const std::uint64_t shared = vbyte_decode(dict, dict_bytes_, pos);
  const std::uint64_t suffix = vbyte_decode(dict, dict_bytes_, pos);
  HET_CHECK(shared <= cur.size() && pos + suffix <= dict_bytes_);
  cur.resize(shared);
  cur.append(reinterpret_cast<const char*>(dict + pos), suffix);
  pos += suffix;
}

std::optional<std::uint64_t> SegmentReader::find(std::string_view term) const {
  // Last block whose leader is <= term, then a bounded front-coded scan.
  auto it = std::upper_bound(
      blocks_.begin(), blocks_.end(), term,
      [](std::string_view t, const Block& b) { return t < b.first; });
  if (it == blocks_.begin()) return std::nullopt;
  --it;
  if (it->first == term) return it->base;
  const std::uint64_t in_block = std::min<std::uint64_t>(terms_per_block_,
                                                         term_count_ - it->base);
  std::string cur(it->first);
  std::size_t pos = it->coded_pos;
  for (std::uint64_t i = 1; i < in_block; ++i) {
    next_term(cur, pos);
    if (cur == term) return it->base + i;
    if (cur > term) return std::nullopt;
  }
  return std::nullopt;
}

SegmentReader::PostingsMeta SegmentReader::meta(std::uint64_t ordinal) const {
  HET_CHECK(ordinal < term_count_);
  ByteReader t(file_.data() + table_off_ + ordinal * kTableRowBytes, kTableRowBytes);
  PostingsMeta m;
  m.offset = t.u64();
  m.bytes = t.u32();
  m.count = t.u32();
  m.min_doc = t.u32();
  m.max_doc = t.u32();
  return m;
}

void SegmentReader::decode(const PostingsMeta& m, std::vector<std::uint32_t>& doc_ids,
                           std::vector<std::uint32_t>& tfs,
                           std::vector<std::uint32_t>* positions) const {
  HET_CHECK_MSG(m.offset + m.bytes <= blob_bytes_, "segment blob out of bounds");
  const std::uint8_t* blob = file_.data() + blob_off_ + m.offset;
  // A compacted blob is one or more back-to-back encoded blocks (each a
  // self-describing sub-list starting with an absolute doc id), so they
  // decode in sequence straight out of the mapping.
  std::size_t pos = 0;
  while (pos < m.bytes) pos += decode_postings(blob, m.bytes, doc_ids, tfs, positions, pos);
}

void SegmentReader::scan_from_block(
    std::size_t block_idx,
    const std::function<bool(std::string_view, std::uint64_t)>& fn) const {
  std::string cur;
  for (std::size_t b = block_idx; b < blocks_.size(); ++b) {
    const Block& blk = blocks_[b];
    if (!fn(blk.first, blk.base)) return;
    const std::uint64_t in_block = std::min<std::uint64_t>(terms_per_block_,
                                                           term_count_ - blk.base);
    cur.assign(blk.first);
    std::size_t pos = blk.coded_pos;
    for (std::uint64_t i = 1; i < in_block; ++i) {
      next_term(cur, pos);
      if (!fn(cur, blk.base + i)) return;
    }
  }
}

std::vector<std::string> SegmentReader::terms_with_prefix(std::string_view prefix) const {
  std::vector<std::string> out;
  auto it = std::upper_bound(
      blocks_.begin(), blocks_.end(), prefix,
      [](std::string_view p, const Block& b) { return p < b.first; });
  // The match range can start inside the preceding block (its leader sorts
  // before the prefix but later members may match).
  const std::size_t start = it == blocks_.begin()
                                ? 0
                                : static_cast<std::size_t>(it - blocks_.begin()) - 1;
  scan_from_block(start, [&](std::string_view term, std::uint64_t) {
    const bool matches =
        term.size() >= prefix.size() && term.substr(0, prefix.size()) == prefix;
    if (matches) {
      out.emplace_back(term);
    } else if (term > prefix) {
      return false;  // past the match range in the sorted order
    }
    return true;
  });
  return out;
}

void SegmentReader::for_each_term(
    const std::function<bool(std::string_view, std::uint64_t)>& fn) const {
  scan_from_block(0, fn);
}

std::pair<const std::uint8_t*, std::size_t> SegmentReader::raw_blob(
    const PostingsMeta& m) const {
  HET_CHECK_MSG(m.offset + m.bytes <= blob_bytes_, "segment blob out of bounds");
  return {file_.data() + blob_off_ + m.offset, m.bytes};
}

SegmentReader::TermCursor::TermCursor(const SegmentReader& reader) : reader_(&reader) {
  if (valid()) {
    term_.assign(reader_->blocks_.front().first);
    pos_ = reader_->blocks_.front().coded_pos;
  }
}

void SegmentReader::TermCursor::next() {
  HET_CHECK(valid());
  ++ordinal_;
  if (!valid()) return;
  if (ordinal_ % reader_->terms_per_block_ == 0) {
    // Block boundary: the leader is stored verbatim, not front-coded.
    const Block& blk = reader_->blocks_[ordinal_ / reader_->terms_per_block_];
    term_.assign(blk.first);
    pos_ = blk.coded_pos;
  } else {
    reader_->next_term(term_, pos_);
  }
}

Expected<SegmentMergeStats> merge_segments(const std::vector<const ServedSegment*>& inputs,
                                           const std::string& out_path) {
  HET_CHECK_MSG(!inputs.empty(), "segment merge requires at least one input");
  const PostingCodec codec = inputs.front()->reader.codec();
  for (const auto* in : inputs) {
    HET_CHECK_MSG(in->reader.codec() == codec,
                  "segment merge requires a uniform posting codec");
  }

  SegmentMergeStats stats;
  stats.segments = inputs.size();
  SegmentWriter writer(out_path, codec);
  BlockIndex out_blocks;

  // K-way cursor merge. K is the merge factor (a handful), so a linear
  // min-scan per output term beats the heap's constant factor.
  std::vector<SegmentReader::TermCursor> cursors;
  cursors.reserve(inputs.size());
  for (const auto* in : inputs) cursors.emplace_back(in->reader);

  std::vector<std::uint8_t> blob;
  std::vector<PostingBlockEntry> term_blocks;
  while (true) {
    const std::string* min_term = nullptr;
    for (const auto& c : cursors) {
      if (c.valid() && (min_term == nullptr || c.term() < *min_term)) {
        min_term = &c.term();
      }
    }
    if (min_term == nullptr) break;
    const std::string term = *min_term;  // cursors advance below; copy first

    // Equal terms concatenate byte-wise in input order — every encoded
    // sub-list starts with an absolute doc id (§III.F), so the combined
    // blob decodes as one list provided doc ranges ascend across inputs.
    blob.clear();
    term_blocks.clear();
    std::uint32_t count = 0, mn = 0, mx = 0;
    for (std::size_t i = 0; i < cursors.size(); ++i) {
      auto& c = cursors[i];
      if (!c.valid() || c.term() != term) continue;
      const auto m = c.meta();
      HET_CHECK_MSG(count == 0 || m.min_doc > mx,
                    "doc ids must be globally increasing across segments");
      // Skip-table fix-up: the input's block rows are reused verbatim,
      // shifted by the bytes this term's blob already holds.
      const auto [rows, n_rows] = inputs[i]->blocks.blocks(c.ordinal());
      for (std::size_t k = 0; k < n_rows; ++k) {
        PostingBlockEntry row = rows[k];
        row.offset += blob.size();
        term_blocks.push_back(row);
      }
      const auto [bytes, len] = inputs[i]->reader.raw_blob(m);
      blob.insert(blob.end(), bytes, bytes + len);
      stats.input_bytes += len;
      if (count == 0) mn = m.min_doc;
      mx = m.max_doc;
      count += m.count;
      c.next();
    }
    writer.add_term(term, blob.data(), blob.size(), count, mn, mx);
    out_blocks.add_term(term_blocks);
    ++stats.terms;
    stats.postings += count;
  }
  auto output_bytes = write_segment_files(out_path, writer.finish(), out_blocks, nullptr);
  if (!output_bytes.has_value()) return output_bytes.error();
  stats.output_bytes = output_bytes.value();
  return stats;
}

Expected<std::uint64_t> write_segment_files(const std::string& seg_path,
                                            std::vector<std::uint8_t> image,
                                            const BlockIndex& blocks,
                                            const BloomSidecar* blooms) {
  HET_CHECK(blooms == nullptr || blocks.term_count() == blooms->term_count());
  const std::uint64_t file_bytes = image.size();
  // Sequential and in a fixed order, so a fault trace (and the crash
  // harness replaying it) is the same for every writer.
  auto written = io::durable_write_file(seg_path, image);
  std::vector<std::uint8_t>().swap(image);  // on disk now; the sidecars need no copy
  if (written.has_value()) written = write_block_index_sidecar(seg_path, blocks);
  if (written.has_value()) {
    if (blooms != nullptr) {
      written = write_bloom_sidecar(seg_path, *blooms);
    } else {
      // No filters from a recycled path may pose as this segment's.
      (void)io::env().remove_file(bloom_sidecar_path(seg_path));
    }
  }
  if (!written.has_value()) {
    remove_segment_files(seg_path);
    return written.error();
  }
  return file_bytes;
}

Expected<SegmentBuildStats> build_segment_from_runs(
    const std::string& dir, const std::vector<DictionaryEntry>& entries,
    const std::vector<IndexDirectoryEntry>& directory, std::size_t threads) {
  const auto corrupt = [&dir](const std::string& what) {
    return Error{ErrorCode::kCorrupt, what + ": " + dir};
  };
  ThreadPool pool(threads);
  SegmentBuildStats stats;
  // Everything below judges on-disk input, so bad input returns an error
  // instead of aborting. Parallel workers park theirs in per-slot `failed`
  // entries; the first in slot order is the one returned.
  std::vector<RunFile> runs(directory.size());
  std::vector<std::optional<Error>> failed(runs.size());
  const auto first_failure = [&failed] {
    const auto it = std::find_if(failed.begin(), failed.end(),
                                 [](const std::optional<Error>& e) { return e.has_value(); });
    return it == failed.end() ? std::nullopt : *it;
  };
  pool.parallel_for(runs.size(), [&](std::size_t i) {
    auto run = RunFile::try_open(dir + "/" + directory[i].file);
    if (run) {
      runs[i] = std::move(run).value();
    } else {
      failed[i] = run.error();
    }
  });
  if (auto error = first_failure()) return *error;
  std::sort(runs.begin(), runs.end(),
            [](const RunFile& a, const RunFile& b) { return a.run_id() < b.run_id(); });
  stats.runs = runs.size();
  const PostingCodec codec = runs.empty() ? PostingCodec::kVByte : runs.front().codec();
  for (const auto& run : runs) {
    if (run.codec() != codec) return corrupt("segment build requires a uniform posting codec");
  }
  if (!std::is_sorted(entries.begin(), entries.end(),
                      [](const DictionaryEntry& a, const DictionaryEntry& b) {
                        return a.term < b.term;
                      })) {
    return corrupt("segment build requires a sorted dictionary");
  }

  // Same byte-level fold as merge_runs, but driven by the sorted dictionary
  // so terms land in final order: per term, its partial blobs concatenate
  // in ascending run order (doc order, checked from the runs' min/max
  // metadata) — no re-encode. Every term is independent under that
  // concatenation, and each output file is a term-ordered concatenation,
  // so contiguous term ranges fold concurrently once the run tables have
  // sized every term's share of each file.
  const std::size_t n_runs = runs.size();
  const std::size_t n_entries = entries.size();
  const std::size_t pieces = 4 * pool.size();  // a few per worker evens out skew

  // 1. Resolve each dictionary entry against every run's table (the hash
  //    lookups are the costliest per-term step, so they run in parallel
  //    once and are kept): posting count, blob bytes, and which run rows.
  //    Only the parts that exist are kept — most terms sit in few runs —
  //    in CSR form: chunk c appends its entries' (run, row) pairs to
  //    parts[c], and part_end[i] is where entry i's pairs end in it.
  struct Part {
    std::uint32_t run;
    std::uint32_t row;  ///< into runs[run].table()
  };
  const std::size_t chunk = std::max<std::size_t>(1, (n_entries + pieces - 1) / pieces);
  std::size_t run_rows = 0;
  for (const auto& run : runs) run_rows += run.table().size();
  std::vector<std::vector<Part>> parts(pieces);
  std::vector<std::uint32_t> part_end(n_entries);
  std::vector<std::uint32_t> counts(n_entries);
  std::vector<std::uint64_t> blob_bytes(n_entries);
  // Expected .bmx rows: a freshly flushed part holds ceil(count / block
  // size) sub-lists. Exact for the common run, so the block index is
  // reserved once; a part of several flushes only makes it grow.
  std::vector<std::uint64_t> chunk_blocks(pieces);
  failed.assign(pieces, std::nullopt);
  pool.parallel_for(pieces, [&](std::size_t c) {
    const std::size_t end = std::min(n_entries, (c + 1) * chunk);
    std::vector<Part>& list = parts[c];
    list.reserve(run_rows / pieces);
    for (std::size_t i = c * chunk; i < end; ++i) {
      const PostingKey key{entries[i].shard, entries[i].handle};
      std::uint64_t count = 0, bytes = 0;
      std::uint32_t mx = 0;
      for (std::size_t r = 0; r < n_runs; ++r) {
        const RunTableEntry* e = runs[r].entry(key);
        if (e == nullptr) continue;
        if (count != 0 && e->min_doc <= mx) {
          failed[c] = corrupt("doc ids must be globally increasing across runs");
          return;
        }
        mx = e->max_doc;
        count += e->count;
        bytes += e->bytes;
        chunk_blocks[c] += (e->count + kPostingsBlockSize - 1) / kPostingsBlockSize;
        list.push_back({static_cast<std::uint32_t>(r),
                        static_cast<std::uint32_t>(e - runs[r].table().data())});
      }
      if (count > 0xFFFFFFFFull || bytes > 0xFFFFFFFFull) {
        failed[c] = corrupt("segment term exceeds 32-bit postings table fields");
        return;
      }
      HET_CHECK(list.size() <= 0xFFFFFFFFull);
      counts[i] = static_cast<std::uint32_t>(count);
      blob_bytes[i] = bytes;
      part_end[i] = static_cast<std::uint32_t>(list.size());
    }
  });
  if (auto error = first_failure()) return *error;
  const auto parts_of = [&](std::size_t i) {
    const std::uint32_t begin = i % chunk == 0 ? 0 : part_end[i - 1];
    return std::span<const Part>(parts[i / chunk].data() + begin, part_end[i] - begin);
  };

  // 2. Cut the emitted terms (a dictionary term with no flushed postings is
  //    not emitted) into ranges, each starting on a multiple of
  //    kSegmentTermsPerBlock emitted terms: front-coded blocks then never
  //    straddle a range, so each range's dictionary bytes stand alone.
  //    Ordinals, blob offsets and Bloom filter sizes are prefix sums.
  std::uint64_t emitted = 0;
  for (const std::uint32_t c : counts) emitted += c > 0 ? 1 : 0;
  const std::uint64_t block_pieces = kSegmentTermsPerBlock * pieces;
  const std::uint64_t per_range =
      kSegmentTermsPerBlock *
      std::max<std::uint64_t>(1, (emitted + block_pieces - 1) / block_pieces);
  struct Range {
    std::size_t begin = 0, end = 0;  ///< dictionary entries [begin, end)
    std::uint64_t ordinal = 0;       ///< of its first emitted term
    std::uint64_t blob_off = 0;      ///< into the blob area
    std::uint64_t dict_off = 0;      ///< into the dictionary section
    std::uint64_t dict_bytes = 0;
    std::uint32_t min_doc = 0xFFFFFFFFu, max_doc = 0;
    std::vector<PostingBlockEntry> rows;  ///< .bmx rows of its terms, in order
    std::vector<std::uint32_t> row_counts;  ///< per term
    bool folded = false;                    ///< guarded by rows_mu below
  };
  std::vector<Range> ranges;
  BloomSidecar blooms;
  std::uint64_t ordinal = 0, blob_total = 0;
  for (std::size_t i = 0; i < n_entries; ++i) {
    if (counts[i] == 0) continue;
    if (ordinal % per_range == 0) {
      if (!ranges.empty()) ranges.back().end = i;
      Range& r = ranges.emplace_back();
      r.begin = i;
      r.ordinal = ordinal;
      r.blob_off = blob_total;
    }
    blooms.add_empty_term(counts[i]);
    stats.postings += counts[i];
    stats.input_bytes += blob_bytes[i];
    blob_total += blob_bytes[i];
    ++ordinal;
  }
  if (!ranges.empty()) ranges.back().end = n_entries;
  stats.terms = emitted;

  // 3. Size each range's dictionary bytes; their prefix sums place it.
  pool.parallel_for(ranges.size(), [&](std::size_t k) {
    Range& r = ranges[k];
    std::string_view prev;
    std::uint64_t local = 0;
    for (std::size_t i = r.begin; i < r.end; ++i) {
      if (counts[i] == 0) continue;
      r.dict_bytes +=
          put_dict_term(nullptr, local++ % kSegmentTermsPerBlock == 0, prev, entries[i].term);
      prev = entries[i].term;
    }
  });
  SegmentShape shape;
  shape.codec = codec;
  shape.term_count = emitted;
  for (Range& r : ranges) {
    r.dict_off = shape.dict_bytes;
    shape.dict_bytes += r.dict_bytes;
  }
  shape.table_bytes = emitted * kTableRowBytes;
  shape.blob_bytes = blob_total;

  // 4. Fold every range straight into the final image: dictionary bytes,
  //    table rows and blob copies at their precomputed offsets. Each run
  //    part is decoded once, as it is copied, for its .bmx rows and Bloom
  //    bits.
  std::vector<std::uint8_t> image(static_cast<std::size_t>(shape.file_bytes()));
  std::uint8_t* const dict_area = image.data() + kHeaderBytes;
  std::uint8_t* const table_area = dict_area + shape.dict_bytes;
  std::uint8_t* const blob_area = table_area + shape.table_bytes;
  BlockIndex block_index;
  std::uint64_t expected_blocks = 0;
  for (const std::uint64_t b : chunk_blocks) expected_blocks += b;
  block_index.reserve(emitted, expected_blocks);
  std::mutex rows_mu;
  std::size_t rows_taken = 0;  ///< ranges whose rows are in block_index
  failed.assign(ranges.size(), std::nullopt);
  pool.parallel_for(ranges.size(), [&](std::size_t k) {
    Range& r = ranges[k];
    std::uint8_t* dict_at = dict_area + r.dict_off;
    std::uint64_t ord = r.ordinal;
    std::uint64_t blob_off = r.blob_off;
    std::string_view prev;
    std::vector<std::uint32_t> doc_ids, tfs;
    for (std::size_t i = r.begin; i < r.end; ++i) {
      if (counts[i] == 0) continue;
      const std::string_view term = entries[i].term;
      dict_at += put_dict_term(dict_at, (ord - r.ordinal) % kSegmentTermsPerBlock == 0, prev,
                               term);
      prev = term;

      std::uint64_t term_bytes = 0, decoded = 0;
      std::uint32_t mn = 0, mx = 0;
      const std::size_t first_row = r.rows.size();
      for (const Part& part : parts_of(i)) {
        const RunTableEntry& e = runs[part.run].table()[part.row];
        if (term_bytes == 0) mn = e.min_doc;
        mx = e.max_doc;
        const auto [blob, bytes] = runs[part.run].raw_blob(e);
        std::memcpy(blob_area + blob_off + term_bytes, blob, bytes);
        // The part's sub-lists, as compute_block_index() would recover them
        // from the concatenated blob: one row per non-empty sub-list.
        for (std::size_t pos = 0; pos < bytes;) {
          doc_ids.clear();
          tfs.clear();
          const std::size_t consumed = decode_postings(blob, bytes, doc_ids, tfs, nullptr, pos);
          if (!doc_ids.empty()) {
            PostingBlockEntry row;
            row.offset = term_bytes + pos;
            row.bytes = static_cast<std::uint32_t>(consumed);
            row.last_doc = doc_ids.back();
            row.count = static_cast<std::uint32_t>(doc_ids.size());
            row.max_tf = *std::max_element(tfs.begin(), tfs.end());
            r.rows.push_back(row);
            blooms.insert(ord, doc_ids.data(), doc_ids.size());
            decoded += doc_ids.size();
          }
          pos += consumed;
        }
        term_bytes += bytes;
      }
      if (decoded != counts[i]) {
        failed[k] = corrupt("run table count disagrees with its postings");
        return;
      }
      put_table_row(table_area + ord * kTableRowBytes, blob_off,
                    static_cast<std::uint32_t>(term_bytes), counts[i], mn, mx);
      r.row_counts.push_back(static_cast<std::uint32_t>(r.rows.size() - first_row));
      r.min_doc = std::min(r.min_doc, mn);
      r.max_doc = std::max(r.max_doc, mx);
      blob_off += term_bytes;
      ++ord;
    }
    // The block index takes each range's rows as soon as every earlier
    // range's are in, so the rows are never held twice over.
    const std::lock_guard<std::mutex> lock(rows_mu);
    r.folded = true;
    for (; rows_taken < ranges.size() && ranges[rows_taken].folded; ++rows_taken) {
      Range& done = ranges[rows_taken];
      block_index.add_terms(done.rows.data(), done.row_counts.data(), done.row_counts.size());
      std::vector<PostingBlockEntry>().swap(done.rows);
      std::vector<std::uint32_t>().swap(done.row_counts);
    }
  });
  if (auto error = first_failure()) return *error;
  // Every blob is in the image now.
  std::vector<RunFile>().swap(runs);
  std::vector<std::vector<Part>>().swap(parts);

  shape.min_doc = 0xFFFFFFFFu;
  for (const Range& r : ranges) {
    shape.min_doc = std::min(shape.min_doc, r.min_doc);
    shape.max_doc = std::max(shape.max_doc, r.max_doc);
  }
  seal_segment(image, shape);

  auto output_bytes = write_segment_files(IndexLayout::segment_path(dir), std::move(image),
                                          block_index, &blooms);
  if (!output_bytes.has_value()) return output_bytes.error();
  stats.output_bytes = output_bytes.value();
  return stats;
}

Expected<SegmentBuildStats> compact_index(const std::string& dir) {
  const auto entries = try_dictionary_read(IndexLayout::dictionary_path(dir));
  if (!entries) return entries.error();
  const auto directory = try_index_directory_read(IndexLayout::directory_path(dir));
  if (!directory) return directory.error();
  return build_segment_from_runs(dir, entries.value(), directory.value());
}

}  // namespace hetindex
