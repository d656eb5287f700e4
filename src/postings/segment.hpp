#pragma once
/// \file segment.hpp
/// Immutable single-file index segments — the serving-time counterpart of
/// the build-time run files. The paper's pipeline ends at "combine
/// dictionary + write run files" (§III.F); a segment packs that whole
/// output into one checksummed artifact so a serving process opens the
/// index with one mmap and no eager decode:
///
///   header      magic, version, codec, block geometry, section offsets
///   term dict   front-coded blocks (codec/front_coding scheme) of K terms;
///               each block stores its first term verbatim so a sparse
///               in-memory block index can hold zero-copy string_views
///               into the mapping
///   table       one fixed-width row per term, in term order:
///               offset/bytes/count/min_doc/max_doc of its postings blob
///   blob area   the concatenated compressed postings lists (byte-wise
///               concatenation of the per-run partial lists — every
///               sub-list's first doc id is absolute, the §III.F merge
///               property, so no re-encode happens at compaction)
///   footer      total size + CRC32 of everything before it
///
/// A SegmentReader is immutable after open() and keeps no per-lookup
/// state, so any number of threads may share one instance with no locking.
/// Exact byte layout: docs/INDEX_FORMAT.md.

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "codec/posting_codecs.hpp"
#include "dict/dictionary.hpp"
#include "io/mmap_file.hpp"
#include "postings/bloom.hpp"
#include "postings/run_file.hpp"
#include "util/error.hpp"

namespace hetindex {

/// Terms per front-coded dictionary block. Small enough that a lookup
/// scans a handful of suffixes, large enough that the in-memory block
/// index stays ~1/16th of the term count.
inline constexpr std::uint32_t kSegmentTermsPerBlock = 16;

/// Builds one segment file in memory and writes it out on finalize().
/// Terms must arrive in strictly increasing lexicographic order with their
/// final (fully merged) postings blob.
class SegmentWriter {
 public:
  SegmentWriter(std::string path, PostingCodec codec,
                std::uint32_t terms_per_block = kSegmentTermsPerBlock);

  /// Appends one term and its encoded postings blob (one or more
  /// back-to-back encoded sub-lists; `count` postings across all of them
  /// covering doc ids [min_doc, max_doc]).
  void add_term(std::string_view term, const std::uint8_t* blob, std::size_t blob_bytes,
                std::uint32_t count, std::uint32_t min_doc, std::uint32_t max_doc);

  /// Writes header + sections + CRC footer durably (write + fsync via the
  /// io::Env seam, bounded retry on transient faults). Returns total bytes
  /// written, or kIo with no partial file left behind.
  Expected<std::uint64_t> finalize();

  /// Seals the segment and returns its complete file image (header through
  /// CRC footer) without writing it — for write_segment_files(). Releases
  /// the writer's section buffers.
  std::vector<std::uint8_t> finish();

  [[nodiscard]] std::uint64_t term_count() const { return term_count_; }

 private:
  std::string path_;
  PostingCodec codec_;
  std::uint32_t terms_per_block_;
  std::uint64_t term_count_ = 0;
  std::uint32_t block_fill_ = 0;
  std::string prev_term_;
  std::uint32_t min_doc_ = 0xFFFFFFFFu;
  std::uint32_t max_doc_ = 0;
  std::vector<std::uint8_t> dict_;
  std::vector<std::uint8_t> table_;
  std::vector<std::uint8_t> blobs_;
  bool finalized_ = false;
};

/// Shared-nothing reader over one mapped segment. All accessors are const
/// and touch only immutable state + call-local scratch, so one instance
/// serves concurrent readers without locks.
class SegmentReader {
 public:
  /// Maps and validates `path`: footer magic, size, CRC32 of the whole
  /// file, header magic/version, section bounds. Any mismatch raises a
  /// descriptive check failure — corrupt bytes never reach a decoder.
  static SegmentReader open(const std::string& path);

  /// Non-aborting variant of open(): a missing file reports kNotFound, a
  /// failed checksum or structural check kCorrupt, an unknown version or
  /// codec kUnsupported. Corrupt bytes still never reach a decoder — the
  /// same validations run, they just return instead of aborting.
  static Expected<SegmentReader> try_open(const std::string& path);

  /// One postings table row, resolved against the mapping.
  struct PostingsMeta {
    std::uint64_t offset = 0;  ///< into the blob area
    std::uint32_t bytes = 0;
    std::uint32_t count = 0;
    std::uint32_t min_doc = 0;
    std::uint32_t max_doc = 0;
  };

  /// Ordinal of `term` in the sorted term dictionary; nullopt when absent.
  /// Cost: binary search over the sparse block index + a scan of at most
  /// terms_per_block front-coded suffixes.
  [[nodiscard]] std::optional<std::uint64_t> find(std::string_view term) const;

  /// The postings table row of term `ordinal` (< term_count()).
  [[nodiscard]] PostingsMeta meta(std::uint64_t ordinal) const;

  /// Lazily decodes the blob behind `m` straight out of the mapping,
  /// appending to the output vectors (positions only when the index was
  /// built positionally and `positions` is non-null).
  void decode(const PostingsMeta& m, std::vector<std::uint32_t>& doc_ids,
              std::vector<std::uint32_t>& tfs,
              std::vector<std::uint32_t>* positions = nullptr) const;

  /// The raw encoded bytes behind `m`, straight out of the mapping — the
  /// unit of the §III.F byte-concatenation merge (valid while the reader
  /// lives). Every sub-list's first doc id is absolute, so two segments'
  /// blobs for the same term concatenate without a decode as long as their
  /// doc ranges are disjoint and given in ascending order.
  [[nodiscard]] std::pair<const std::uint8_t*, std::size_t> raw_blob(
      const PostingsMeta& m) const;

  /// Pull-style iterator over the term dictionary in lexicographic order —
  /// the building block of multi-segment k-way merges (for_each_term is
  /// push-style and cannot interleave several segments).
  class TermCursor {
   public:
    explicit TermCursor(const SegmentReader& reader);
    /// False once every term has been consumed.
    [[nodiscard]] bool valid() const { return ordinal_ < reader_->term_count_; }
    /// Current term (materialized; stable until next()).
    [[nodiscard]] const std::string& term() const { return term_; }
    [[nodiscard]] std::uint64_t ordinal() const { return ordinal_; }
    [[nodiscard]] SegmentReader::PostingsMeta meta() const {
      return reader_->meta(ordinal_);
    }
    void next();

   private:
    const SegmentReader* reader_;
    std::uint64_t ordinal_ = 0;
    std::string term_;
    std::size_t pos_ = 0;  ///< into the dict section, after the current term
  };

  /// All terms starting with `prefix`, lexicographic order (materialized —
  /// front-coded terms have no contiguous bytes to view).
  [[nodiscard]] std::vector<std::string> terms_with_prefix(std::string_view prefix) const;

  /// fn(term, ordinal) over every term in order; return false to stop
  /// early. The string_view is only valid during the call.
  void for_each_term(
      const std::function<bool(std::string_view, std::uint64_t)>& fn) const;

  [[nodiscard]] std::uint64_t term_count() const { return term_count_; }
  [[nodiscard]] PostingCodec codec() const { return codec_; }
  [[nodiscard]] std::uint32_t min_doc() const { return min_doc_; }
  [[nodiscard]] std::uint32_t max_doc() const { return max_doc_; }
  /// Total file size on disk.
  [[nodiscard]] std::uint64_t file_bytes() const { return file_.size(); }
  /// Bytes served by a live mapping (0 when the pread fallback engaged).
  [[nodiscard]] std::uint64_t mapped_bytes() const {
    return file_.is_mapped() ? file_.size() : 0;
  }
  [[nodiscard]] const std::string& path() const { return file_.path(); }

 private:
  /// Sparse block index entry: zero-copy view of the block's first term
  /// (stored verbatim in the file) + where its coded suffixes start.
  struct Block {
    std::string_view first;
    std::size_t coded_pos = 0;  ///< into the dict section, after the first term
    std::uint64_t base = 0;     ///< ordinal of the first term
  };

  [[nodiscard]] const std::uint8_t* dict_data() const { return file_.data() + dict_off_; }
  /// Decodes the next front-coded term at `pos` into `cur`.
  void next_term(std::string& cur, std::size_t& pos) const;
  /// fn(term, ordinal) from the start of block `block_idx` onwards.
  void scan_from_block(
      std::size_t block_idx,
      const std::function<bool(std::string_view, std::uint64_t)>& fn) const;

  MmapFile file_;
  PostingCodec codec_ = PostingCodec::kVByte;
  std::uint32_t terms_per_block_ = kSegmentTermsPerBlock;
  std::uint64_t term_count_ = 0;
  std::uint32_t min_doc_ = 0;
  std::uint32_t max_doc_ = 0;
  std::uint64_t dict_off_ = 0, dict_bytes_ = 0;
  std::uint64_t table_off_ = 0, table_bytes_ = 0;
  std::uint64_t blob_off_ = 0, blob_bytes_ = 0;
  std::vector<Block> blocks_;
};

// ------------------------------------------------------------------------
// Block-index sidecar. Postings blobs are written as back-to-back blocks of
// ≤ kPostingsBlockSize docs (each re-anchored at an absolute doc id). The
// `.bmx` sidecar stores one skip-table row per block — offset/bytes (seek),
// last_doc (skip target) and count/max_tf (Block-Max score bounds) — so a
// cursor can jump and bound whole blocks without decoding them. A term's
// whole-list max_tf (the MaxScore bound of src/search/topk.hpp) is the max
// of its rows' max_tf, so the block index serves that too. It survives the
// §III.F merge without a decode: concatenating blobs just concatenates
// their block rows with a byte-offset fix-up.
//
// Layout (`<segment>.bmx`): magic, version, term count, total block count,
// per-term u32 block counts, then the flat entry rows in term order, CRC32
// footer. Exact bytes: docs/INDEX_FORMAT.md.

/// Per-term view over the flat skip table of one segment.
class BlockIndex {
 public:
  /// Appends one term's block rows (terms must arrive in term order; every
  /// term in a segment has ≥ 1 block).
  void add_term(const std::vector<PostingBlockEntry>& entries);
  /// Appends `terms` terms whose rows lie back to back in `rows`, term i
  /// owning the next `counts[i]` (≥ 1) of them.
  void add_terms(const PostingBlockEntry* rows, const std::uint32_t* counts,
                 std::size_t terms);
  void reserve(std::uint64_t terms, std::uint64_t blocks);

  [[nodiscard]] std::uint64_t term_count() const { return max_tf_.size(); }
  [[nodiscard]] std::uint64_t total_blocks() const { return entries_.size(); }
  /// The block rows of term `ordinal`, in blob order.
  [[nodiscard]] std::pair<const PostingBlockEntry*, std::size_t> blocks(
      std::uint64_t ordinal) const;
  /// max over the term's block max_tfs: the largest tf in its whole list.
  [[nodiscard]] std::uint32_t term_max_tf(std::uint64_t ordinal) const;

 private:
  std::vector<PostingBlockEntry> entries_;
  std::vector<std::uint64_t> begin_{0};  ///< per-term start into entries_
  std::vector<std::uint32_t> max_tf_;    ///< per term, kept as rows arrive
};

/// `<segment_path>.bmx`.
std::string block_index_sidecar_path(const std::string& segment_path);

/// Writes the skip-table sidecar durably; kIo on failure.
Status write_block_index_sidecar(const std::string& segment_path,
                                 const BlockIndex& index);

/// Reads a sidecar back; kNotFound when absent, kUnsupported on a future
/// version, kCorrupt on CRC/structure mismatch, a term count that disagrees
/// with `expected_terms`, or rows that are not contiguous ascending blocks.
Expected<BlockIndex> read_block_index_sidecar(const std::string& segment_path,
                                              std::uint64_t expected_terms);

/// Decodes every blob once, recovering each block's row from the sub-list
/// boundaries — the rebuild path for a segment without `.bmx`, and the
/// oracle in tests: a fold's or a merge's written sidecar must equal this
/// recompute.
BlockIndex compute_block_index(const SegmentReader& reader);

/// Cross-checks the sidecar against the segment's postings table (per-term
/// byte/count totals and last doc) without decoding blobs. kCorrupt on any
/// disagreement — a stale sidecar must never steer a cursor.
Status validate_block_index(const SegmentReader& reader, const BlockIndex& index);

/// One segment as the read path serves it: the mapped file, its block
/// index, and its Bloom filters when it has them.
struct ServedSegment {
  SegmentReader reader;
  BlockIndex blocks;
  std::optional<BloomSidecar> blooms;  ///< nullopt: no `.blm`, never rejects
};

/// Opens the segment at `path` for serving. The block index is read from
/// `.bmx` and validated against the segment table; a segment without one
/// (written before the sidecar existed) gets its rows rebuilt in memory by
/// compute_block_index. `.blm` is optional (concat merges drop it). Errors
/// are those of SegmentReader::try_open, or those of a sidecar that is
/// present but corrupt, stale or of a future version — never a silent
/// degrade.
Expected<ServedSegment> open_served_segment(const std::string& path);

/// Removes a segment file and its sidecars (best effort, through the Env so
/// a fault trace sees the unlinks): the failure path of every writer and
/// the reclamation of compacted-away live segments.
void remove_segment_files(const std::string& seg_path);

/// The durable write tail of every freshly encoded segment (batch fold,
/// live flush, merges): the segment `image` (as built by
/// SegmentWriter::finish or the fold), then `.bmx`, then `.blm` — each
/// written and fsynced in that order. Without `blooms` (a concat merge) no
/// `.blm` is written and a stale one at `seg_path` is removed. Returns the
/// segment's size; on kIo no output of `seg_path` is left behind.
Expected<std::uint64_t> write_segment_files(const std::string& seg_path,
                                            std::vector<std::uint8_t> image,
                                            const BlockIndex& blocks,
                                            const BloomSidecar* blooms);

/// What a segment build folded together.
struct SegmentBuildStats {
  std::uint64_t terms = 0;
  std::uint64_t postings = 0;
  std::uint64_t runs = 0;          ///< run files folded
  std::uint64_t input_bytes = 0;   ///< encoded blob bytes read from runs
  std::uint64_t output_bytes = 0;  ///< segment file size
};

/// Folds the given run files into `<dir>/index.seg` and its two sidecars
/// using the already loaded dictionary entries (sorted by term) — the
/// writer path shared by PipelineEngine (entries still in memory at
/// finalize) and compact_index (entries re-read from disk). Blobs
/// concatenate byte-wise via the §III.F merge property; nothing is
/// re-encoded. The dictionary is cut into contiguous term ranges folded
/// concurrently on `threads` workers (0 = hardware concurrency) straight
/// into the final file buffers; every width writes the same bytes. Damaged
/// input comes back as the first error found — a run's RunFile::try_open
/// error, or kCorrupt for mixed codecs, an unsorted dictionary, runs whose
/// doc ranges overlap for one term or a table count that disagrees with
/// its blob — and kIo when an output cannot be written durably (none is
/// left behind either way).
Expected<SegmentBuildStats> build_segment_from_runs(
    const std::string& dir, const std::vector<DictionaryEntry>& entries,
    const std::vector<IndexDirectoryEntry>& directory, std::size_t threads = 0);

/// Reads dictionary + run directory under `dir` and compacts the run files
/// into `<dir>/index.seg` — the only way from a runs-only build to an index
/// InvertedIndex::open() serves. Run files are left in place: they stay the
/// build-time interchange format (and the merger's input). Errors are those
/// of try_dictionary_read, try_index_directory_read and
/// build_segment_from_runs.
Expected<SegmentBuildStats> compact_index(const std::string& dir);

/// What a segment-to-segment merge folded together.
struct SegmentMergeStats {
  std::uint64_t segments = 0;      ///< input segments
  std::uint64_t terms = 0;         ///< unique terms in the output
  std::uint64_t postings = 0;
  std::uint64_t input_bytes = 0;   ///< encoded blob bytes read
  std::uint64_t output_bytes = 0;  ///< merged segment file size
};

/// Merges already-built segments into one new segment at `out_path`
/// without decoding postings: terms stream through a k-way cursor merge
/// and equal terms' blobs concatenate byte-wise (§III.F — every sub-list's
/// first doc id is absolute), and so do their block rows, shifted by the
/// bytes already in front of them. Inputs must share one codec and be given
/// in ascending, pairwise-disjoint doc-id order; per-term order is verified
/// from the table metadata. This is the compaction primitive of the live
/// indexing layer (docs/LIVE_INDEXING.md). The output has no `.blm`: each
/// input's filters are sized to its own lists and cannot be concatenated.
/// kIo when the output cannot be written durably; no partial output is
/// left behind.
Expected<SegmentMergeStats> merge_segments(const std::vector<const ServedSegment*>& inputs,
                                           const std::string& out_path);

}  // namespace hetindex
