#pragma once
/// \file doc_map.hpp
/// The ⟨document ID, document location on disk⟩ table of Fig. 3 Step 1:
/// maps every global doc id back to its URL and source container file, so
/// query results can be resolved to actual documents. Stored LZ-compressed
/// (URLs share long prefixes).
///
/// A map covers the contiguous global doc-id range [base, base+doc_count).
/// The batch pipeline always builds base-0 maps; the live indexing layer
/// (docs/LIVE_INDEXING.md) writes one map per flushed segment at that
/// segment's doc-id base, and compaction folds them back together with
/// DocMapBuilder::append() — ids never shift, so postings blobs keep
/// referring to the same documents across merges.

#include <cstdint>
#include <string>
#include <vector>

#include "util/error.hpp"

namespace hetindex {

class DocMap;

/// Location of one document.
struct DocLocation {
  std::string url;
  std::uint32_t file_seq = 0;     ///< source container file index
  std::uint32_t local_id = 0;     ///< record index within that file
  std::uint32_t token_count = 0;  ///< indexed tokens (BM25 length norm)
};

/// Build-side accumulator; doc ids are assigned densely from base().
class DocMapBuilder {
 public:
  /// Doc ids tile [0, doc_count) — the batch pipeline's map.
  DocMapBuilder() = default;
  /// Doc ids tile [doc_id_base, doc_id_base + doc_count) — a per-segment
  /// map of the live indexing layer.
  explicit DocMapBuilder(std::uint32_t doc_id_base) : base_(doc_id_base) {}

  /// Registers a file's documents starting at `doc_id_base` (ids within a
  /// file are consecutive). Thread-safe for distinct, non-overlapping
  /// ranges; the pipeline calls it once per run in sequence order.
  void add_file(std::uint32_t doc_id_base, std::uint32_t file_seq,
                const std::vector<std::string>& urls,
                const std::vector<std::uint32_t>& token_counts);

  /// Appends every span of an already-built map, preserving its file_seq
  /// grouping — the doc-map side of segment compaction. The map's range
  /// must continue this builder's ids exactly (no gap, no overlap); write()
  /// verifies.
  void append(const DocMap& map);

  /// First doc id covered.
  [[nodiscard]] std::uint32_t base() const { return base_; }
  /// Documents registered so far.
  [[nodiscard]] std::uint32_t doc_count() const;

  /// Writes the map to `path` (format: header + LZ frame of records).
  /// Base-0 maps keep the original v1 header; a nonzero base writes the v2
  /// header that carries it. Hard-fails on I/O errors (batch path).
  void write(const std::string& path) const;

  /// Durable, non-aborting variant for the live commit path: write + fsync
  /// via io::durable_write_file; kIo with no partial file on failure.
  [[nodiscard]] Status try_write(const std::string& path) const;

 private:
  struct FileSpan {
    std::uint32_t doc_id_base;
    std::uint32_t file_seq;
    std::vector<std::string> urls;
    std::vector<std::uint32_t> token_counts;
  };
  std::uint32_t base_ = 0;
  std::vector<FileSpan> spans_;
};

/// Read-side map over global ids [base, base+doc_count).
class DocMap {
 public:
  /// Reads a map written by DocMapBuilder: kCorrupt on any bytes that are
  /// not one (bad magic, bad LZ frame, counts or spans that do not fit the
  /// payload), kNotFound/kIo from the filesystem.
  static Expected<DocMap> try_open(const std::string& path);
  /// try_open for trusted batch outputs: hard-fails on any error.
  static DocMap open(const std::string& path);

  /// First global doc id covered (0 for batch-built maps).
  [[nodiscard]] std::uint32_t base() const { return base_; }
  [[nodiscard]] std::uint32_t doc_count() const {
    return static_cast<std::uint32_t>(locations_.size());
  }
  /// True when `doc_id` falls inside [base, base+doc_count).
  [[nodiscard]] bool contains(std::uint32_t doc_id) const {
    return doc_id >= base_ && doc_id - base_ < locations_.size();
  }
  /// Location of a global doc id; hard-fails when outside the range.
  [[nodiscard]] const DocLocation& location(std::uint32_t doc_id) const;
  /// Mean indexed tokens per document (BM25's avgdl).
  [[nodiscard]] double average_doc_tokens() const;
  /// Exact total of indexed tokens — the integer numerator behind
  /// average_doc_tokens(). The live tier's tombstone-aware collection
  /// stats subtract deleted docs from this without float drift.
  [[nodiscard]] std::uint64_t token_sum() const;

 private:
  friend class DocMapBuilder;  // append() walks spans_ + locations_

  /// Span metadata retained from the file so append() can round-trip the
  /// file_seq grouping without re-deriving it from locations_.
  struct SpanInfo {
    std::uint32_t doc_id_base;  ///< global
    std::uint32_t file_seq;
    std::uint32_t count;
  };

  std::uint32_t base_ = 0;
  std::vector<DocLocation> locations_;
  std::vector<SpanInfo> spans_;
};

/// Canonical file name inside an index directory.
std::string doc_map_path(const std::string& index_dir);

}  // namespace hetindex
