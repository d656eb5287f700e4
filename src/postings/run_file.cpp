#include "postings/run_file.hpp"

#include <limits>

#include "io/env.hpp"
#include "util/binary_io.hpp"
#include "util/check.hpp"
#include "util/crc32.hpp"

namespace hetindex {
namespace {
constexpr std::uint32_t kRunMagic = 0x4E555248;  // "HRUN"
constexpr std::uint32_t kDirMagic = 0x52494448;  // "HDIR"
}  // namespace

RunFileWriter::RunFileWriter(std::string path, std::uint32_t run_id, PostingCodec codec)
    : path_(std::move(path)), run_id_(run_id), codec_(codec) {}

void RunFileWriter::add_list(PostingKey key, const PostingsList& list) {
  HET_CHECK(!finalized_);
  if (list.empty()) return;
  // Blocked from the start: segments inherit their block geometry from run
  // blobs via the §III.F byte concatenation, so the ≤128-doc chunking (and
  // the per-block density codec choice) happens exactly once, here.
  const auto encoded = encode_postings_blocked(codec_, list.doc_ids, list.tfs,
                                               list.positional() ? &list.positions : nullptr);
  RunTableEntry entry;
  entry.key = key;
  entry.offset = blobs_.size();
  entry.bytes = static_cast<std::uint32_t>(encoded.size());
  entry.count = static_cast<std::uint32_t>(list.size());
  entry.min_doc = list.doc_ids.front();
  entry.max_doc = list.doc_ids.back();
  table_.push_back(entry);
  blobs_.insert(blobs_.end(), encoded.begin(), encoded.end());
}

void RunFileWriter::add_raw(PostingKey key, const std::vector<std::uint8_t>& encoded,
                            std::uint32_t count, std::uint32_t min_doc,
                            std::uint32_t max_doc) {
  HET_CHECK(!finalized_);
  if (encoded.empty() || count == 0) return;
  RunTableEntry entry;
  entry.key = key;
  entry.offset = blobs_.size();
  entry.bytes = static_cast<std::uint32_t>(encoded.size());
  entry.count = count;
  entry.min_doc = min_doc;
  entry.max_doc = max_doc;
  table_.push_back(entry);
  blobs_.insert(blobs_.end(), encoded.begin(), encoded.end());
}

std::uint64_t RunFileWriter::finalize() {
  HET_CHECK(!finalized_);
  finalized_ = true;
  std::vector<std::uint8_t> out;
  ByteWriter w(out);
  w.u32(kRunMagic);
  w.u32(run_id_);
  w.u8(static_cast<std::uint8_t>(codec_));
  std::uint32_t min_doc = std::numeric_limits<std::uint32_t>::max();
  std::uint32_t max_doc = 0;
  for (const auto& e : table_) {
    min_doc = std::min(min_doc, e.min_doc);
    max_doc = std::max(max_doc, e.max_doc);
  }
  if (table_.empty()) min_doc = 0;
  w.u32(min_doc);
  w.u32(max_doc);
  w.u32(static_cast<std::uint32_t>(table_.size()));
  w.u64(blobs_.size());
  w.u32(crc32(blobs_.data(), blobs_.size()));
  for (const auto& e : table_) {
    w.u32(e.key.shard);
    w.u32(e.key.handle);
    w.u64(e.offset);
    w.u32(e.bytes);
    w.u32(e.count);
    w.u32(e.min_doc);
    w.u32(e.max_doc);
  }
  w.bytes(blobs_.data(), blobs_.size());
  write_file(path_, out);
  return out.size();
}

Expected<RunFile> RunFile::try_open(const std::string& path) {
  const auto corrupt = [&path](const std::string& what) {
    return Error{ErrorCode::kCorrupt, what + ": " + path};
  };
  const auto file = io::env().read_file(path);
  if (!file) return file.error();
  ByteReader r(file.value());
  constexpr std::size_t kHeaderBytes = 33, kRowBytes = 32;
  if (r.remaining() < kHeaderBytes) return corrupt("run file truncated");
  if (r.u32() != kRunMagic) return corrupt("not a hetindex run file");
  RunFile rf;
  rf.run_id_ = r.u32();
  const std::uint8_t codec = r.u8();
  if (codec > static_cast<std::uint8_t>(PostingCodec::kBitPacked)) {
    return Error{ErrorCode::kUnsupported, "unknown run file posting codec: " + path};
  }
  rf.codec_ = static_cast<PostingCodec>(codec);
  rf.min_doc_ = r.u32();
  rf.max_doc_ = r.u32();
  const std::uint32_t count = r.u32();
  const std::uint64_t blob_bytes = r.u64();
  const std::uint32_t blob_crc = r.u32();
  // Bound the table by the payload before allocating; the blob area is
  // whatever follows it.
  if (count > r.remaining() / kRowBytes ||
      blob_bytes != r.remaining() - std::uint64_t{count} * kRowBytes) {
    return corrupt("run file table and blob area disagree with its size");
  }
  rf.table_.resize(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    auto& e = rf.table_[i];
    e.key.shard = r.u32();
    e.key.handle = r.u32();
    e.offset = r.u64();
    e.bytes = r.u32();
    e.count = r.u32();
    e.min_doc = r.u32();
    e.max_doc = r.u32();
    if (e.offset > blob_bytes || e.bytes > blob_bytes - e.offset) {
      return corrupt("run file table entry outside its blob area");
    }
    rf.by_key_.emplace(e.key, i);
  }
  // Only the blob area is kept (the table bytes are parsed above), so a
  // fold over many small runs holds no second copy of their tables.
  rf.blobs_.resize(blob_bytes);
  r.bytes(rf.blobs_.data(), blob_bytes);
  if (crc32(rf.blobs_.data(), rf.blobs_.size()) != blob_crc) {
    return corrupt("run file blob corruption");
  }
  return rf;
}

RunFile RunFile::open(const std::string& path) { return try_open(path).value(); }

bool RunFile::fetch(PostingKey key, std::vector<std::uint32_t>& doc_ids,
                    std::vector<std::uint32_t>& tfs,
                    std::vector<std::uint32_t>* positions) const {
  const auto* e = entry(key);
  if (e == nullptr) return false;
  const auto [blob, bytes] = raw_blob(*e);
  // A merged blob is a byte-wise concatenation of self-describing blocks;
  // decode them all (a single-block blob is the degenerate case).
  std::size_t pos = 0;
  while (pos < bytes) pos += decode_postings(blob, bytes, doc_ids, tfs, positions, pos);
  return true;
}

const RunTableEntry* RunFile::entry(PostingKey key) const {
  const auto it = by_key_.find(key);
  return it == by_key_.end() ? nullptr : &table_[it->second];
}

std::pair<const std::uint8_t*, std::size_t> RunFile::raw_blob(const RunTableEntry& e) const {
  HET_CHECK(e.offset + e.bytes <= blobs_.size());
  return {blobs_.data() + e.offset, e.bytes};
}

void index_directory_write(const std::string& path,
                           const std::vector<IndexDirectoryEntry>& entries) {
  std::vector<std::uint8_t> out;
  ByteWriter w(out);
  w.u32(kDirMagic);
  w.u32(static_cast<std::uint32_t>(entries.size()));
  for (const auto& e : entries) {
    w.str(e.file);
    w.u32(e.run_id);
    w.u32(e.min_doc);
    w.u32(e.max_doc);
  }
  write_file(path, out);
}

Expected<std::vector<IndexDirectoryEntry>> try_index_directory_read(
    const std::string& path) {
  const auto corrupt = [&path](const std::string& what) {
    return Error{ErrorCode::kCorrupt, what + ": " + path};
  };
  const auto file = io::env().read_file(path);
  if (!file) return file.error();
  ByteReader r(file.value());
  if (r.remaining() < 8) return corrupt("run directory truncated");
  if (r.u32() != kDirMagic) return corrupt("not a hetindex index directory");
  const std::uint32_t count = r.u32();
  constexpr std::size_t kMinEntryBytes = 16;  // name length + run id + doc range
  if (count > r.remaining() / kMinEntryBytes) {
    return corrupt("run directory count exceeds its payload");
  }
  std::vector<IndexDirectoryEntry> entries(count);
  for (auto& e : entries) {
    if (r.remaining() < kMinEntryBytes) return corrupt("run directory truncated");
    const std::uint32_t name_bytes = r.u32();
    if (name_bytes > r.remaining() - 12) return corrupt("run directory truncated");
    e.file.resize(name_bytes);
    r.bytes(e.file.data(), name_bytes);
    e.run_id = r.u32();
    e.min_doc = r.u32();
    e.max_doc = r.u32();
  }
  return entries;
}

std::vector<IndexDirectoryEntry> index_directory_read(const std::string& path) {
  return try_index_directory_read(path).value();
}

}  // namespace hetindex
