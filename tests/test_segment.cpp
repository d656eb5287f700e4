// Single-file segment tests: writer/reader round trip, run-file fold
// equivalence (the segment must answer every query exactly like the run
// files it was folded from), corruption detection (truncation, bit flips, bad footers must
// die loudly out of SegmentReader::open, never decode garbage), and
// lock-free concurrent readers sharing one SegmentReader.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/hetindex.hpp"
#include "corpus/container.hpp"
#include "io/mmap_file.hpp"
#include "postings/bloom.hpp"
#include "util/binary_io.hpp"
#include "util/crc32.hpp"
#include "util/rng.hpp"

namespace hetindex {
namespace {

class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    path_ = (std::filesystem::temp_directory_path() /
             ("hetindex_seg_" + tag + "_" + std::to_string(counter_++)))
                .string();
    std::filesystem::create_directories(path_);
  }
  ~TempDir() { std::filesystem::remove_all(path_); }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  static inline int counter_ = 0;
  std::string path_;
};

// ------------------------------------------------ writer/reader round trip

std::vector<std::uint8_t> encode_list(const std::vector<std::uint32_t>& ids) {
  std::vector<std::uint32_t> tfs(ids.size(), 1);
  return encode_postings(PostingCodec::kVByte, ids, tfs);
}

TEST(SegmentWriterReader, RoundTripAcrossBlockBoundaries) {
  TempDir dir("rt");
  const std::string path = dir.path() + "/t.seg";
  // 3 terms per block and 8 terms → three blocks, last one partial.
  SegmentWriter writer(path, PostingCodec::kVByte, /*terms_per_block=*/3);
  std::vector<std::string> terms = {"alder", "alder2", "beech",
                                    "birch", "cedar", "cedarwood",
                                    "fir",   "pine"};
  for (std::size_t i = 0; i < terms.size(); ++i) {
    const std::vector<std::uint32_t> ids = {static_cast<std::uint32_t>(i),
                                            static_cast<std::uint32_t>(i + 10)};
    const auto blob = encode_list(ids);
    writer.add_term(terms[i], blob.data(), blob.size(), 2, ids.front(), ids.back());
  }
  EXPECT_EQ(writer.term_count(), terms.size());
  const auto total = writer.finalize().value();
  EXPECT_EQ(total, std::filesystem::file_size(path));

  const auto reader = SegmentReader::open(path);
  EXPECT_EQ(reader.term_count(), terms.size());
  EXPECT_EQ(reader.codec(), PostingCodec::kVByte);
  EXPECT_EQ(reader.min_doc(), 0u);
  EXPECT_EQ(reader.max_doc(), 17u);
  EXPECT_EQ(reader.file_bytes(), total);

  for (std::size_t i = 0; i < terms.size(); ++i) {
    const auto ordinal = reader.find(terms[i]);
    ASSERT_TRUE(ordinal.has_value()) << terms[i];
    EXPECT_EQ(*ordinal, i);
    const auto m = reader.meta(*ordinal);
    EXPECT_EQ(m.count, 2u);
    EXPECT_EQ(m.min_doc, i);
    EXPECT_EQ(m.max_doc, i + 10);
    std::vector<std::uint32_t> ids, tfs;
    reader.decode(m, ids, tfs);
    EXPECT_EQ(ids, (std::vector<std::uint32_t>{static_cast<std::uint32_t>(i),
                                               static_cast<std::uint32_t>(i + 10)}));
    EXPECT_EQ(tfs, (std::vector<std::uint32_t>{1, 1}));
  }
  // Absent terms, including ones that fall before / between / after blocks.
  EXPECT_FALSE(reader.find("aaa").has_value());
  EXPECT_FALSE(reader.find("alder3").has_value());
  EXPECT_FALSE(reader.find("cedarw").has_value());
  EXPECT_FALSE(reader.find("zzz").has_value());

  // Enumeration yields every term in order with its ordinal.
  std::vector<std::string> seen;
  reader.for_each_term([&](std::string_view t, std::uint64_t ord) {
    EXPECT_EQ(ord, seen.size());
    seen.emplace_back(t);
    return true;
  });
  EXPECT_EQ(seen, terms);

  // Prefix scans work across block boundaries.
  EXPECT_EQ(reader.terms_with_prefix("alder"),
            (std::vector<std::string>{"alder", "alder2"}));
  EXPECT_EQ(reader.terms_with_prefix("cedar"),
            (std::vector<std::string>{"cedar", "cedarwood"}));
  EXPECT_EQ(reader.terms_with_prefix("").size(), terms.size());
  EXPECT_TRUE(reader.terms_with_prefix("oak").empty());
}

TEST(SegmentWriterReader, EmptySegmentRoundTrips) {
  TempDir dir("empty");
  const std::string path = dir.path() + "/e.seg";
  SegmentWriter writer(path, PostingCodec::kGamma);
  writer.finalize();
  const auto reader = SegmentReader::open(path);
  EXPECT_EQ(reader.term_count(), 0u);
  EXPECT_EQ(reader.codec(), PostingCodec::kGamma);
  EXPECT_FALSE(reader.find("anything").has_value());
  EXPECT_TRUE(reader.terms_with_prefix("").empty());
}

TEST(SegmentWriterReader, WriterRejectsUnsortedAndEmptyTerms) {
  TempDir dir("sorted");
  const auto blob = encode_list({1, 2});
  SegmentWriter writer(dir.path() + "/s.seg", PostingCodec::kVByte);
  writer.add_term("m", blob.data(), blob.size(), 2, 1, 2);
  EXPECT_DEATH(writer.add_term("a", blob.data(), blob.size(), 2, 1, 2), "sorted");
  EXPECT_DEATH(writer.add_term("m", blob.data(), blob.size(), 2, 1, 2), "sorted");
  EXPECT_DEATH(writer.add_term("z", blob.data(), 0, 0, 0, 0), "postings");
}

// ------------------------------------------------ fold equivalence

/// Corpus across several container files → several run files, with shared
/// vocabulary so the segment fold concatenates partial lists across runs.
class SegmentEquivalenceFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dir_ = new TempDir("equiv");
    index_dir_ = dir_->path() + "/index";
    std::vector<std::string> files;
    std::uint32_t doc_id = 0;
    for (int f = 0; f < 3; ++f) {
      std::vector<Document> docs;
      for (int d = 0; d < 12; ++d) {
        std::string body = "shared common everywhere";
        body += " file" + std::to_string(f) + "only";
        if (d % 2 == 0) body += " evens alternating";
        if (d % 3 == 0) body += " thirds";
        body += " doc" + std::to_string(doc_id) + "unique";
        docs.push_back({doc_id, "http://x/" + std::to_string(doc_id), body});
        ++doc_id;
      }
      const auto file = dir_->path() + "/c" + std::to_string(f) + ".hdc";
      container_write(file, docs);
      files.push_back(file);
    }
    IndexBuilder builder;
    builder.parsers(1).cpu_indexers(1).gpus(1);
    builder.config().parser.record_positions = true;
    builder.build(files, index_dir_);
    stats_ = compact_index(index_dir_).value();
  }
  static void TearDownTestSuite() {
    delete dir_;
    dir_ = nullptr;
  }

  static inline TempDir* dir_ = nullptr;
  static inline std::string index_dir_;
  static inline SegmentBuildStats stats_;
};

TEST_F(SegmentEquivalenceFixture, CompactionFoldsAllRuns) {
  EXPECT_EQ(stats_.runs, 3u);
  EXPECT_GT(stats_.terms, 0u);
  EXPECT_GT(stats_.postings, stats_.terms);  // shared terms span many docs
  EXPECT_TRUE(file_exists(IndexLayout::segment_path(index_dir_)));
  EXPECT_GT(stats_.output_bytes, 0u);
}

/// The answers the run files themselves give, read without InvertedIndex:
/// the dictionary's terms, each term's list fetched from every run in
/// run-id order (the §III.F concatenation), then filtered by doc range or
/// term prefix. The oracle every segment answer is judged against.
class RunReference {
 public:
  explicit RunReference(const std::string& dir)
      : entries_(dictionary_read(IndexLayout::dictionary_path(dir))) {
    for (const auto& e : index_directory_read(IndexLayout::directory_path(dir))) {
      runs_.push_back(RunFile::open(dir + "/" + e.file));
    }
    std::sort(runs_.begin(), runs_.end(),
              [](const RunFile& a, const RunFile& b) { return a.run_id() < b.run_id(); });
  }

  [[nodiscard]] const std::vector<DictionaryEntry>& entries() const { return entries_; }

  [[nodiscard]] std::optional<QueryPostings> lookup(std::string_view term,
                                                    bool positional = false) const {
    const auto it = std::lower_bound(
        entries_.begin(), entries_.end(), term,
        [](const DictionaryEntry& e, std::string_view t) { return e.term < t; });
    if (it == entries_.end() || it->term != term) return std::nullopt;
    QueryPostings out;
    for (const auto& run : runs_) {
      run.fetch({it->shard, it->handle}, out.doc_ids, out.tfs,
                positional ? &out.positions : nullptr);
    }
    return out;
  }

  [[nodiscard]] std::optional<QueryPostings> lookup_range(std::string_view term,
                                                          std::uint32_t lo,
                                                          std::uint32_t hi) const {
    const auto all = lookup(term);
    if (!all) return std::nullopt;
    QueryPostings out;
    for (std::size_t i = 0; i < all->doc_ids.size(); ++i) {
      if (all->doc_ids[i] < lo || all->doc_ids[i] > hi) continue;
      out.doc_ids.push_back(all->doc_ids[i]);
      out.tfs.push_back(all->tfs[i]);
    }
    return out;
  }

  [[nodiscard]] std::vector<std::string> terms_with_prefix(std::string_view prefix) const {
    std::vector<std::string> out;
    for (const auto& e : entries_) {
      if (std::string_view(e.term).starts_with(prefix)) out.push_back(e.term);
    }
    return out;
  }

 private:
  std::vector<DictionaryEntry> entries_;
  std::vector<RunFile> runs_;
};

TEST_F(SegmentEquivalenceFixture, OpenServesTheSegment) {
  const auto index = InvertedIndex::open(index_dir_, {}).value();
  ASSERT_NE(index.segment(), nullptr);
  EXPECT_EQ(index.segment()->path(), IndexLayout::segment_path(index_dir_));
  EXPECT_EQ(index.term_count(), RunReference(index_dir_).entries().size());
}

TEST_F(SegmentEquivalenceFixture, LookupsMatchLegacyForEveryTerm) {
  const auto segment = InvertedIndex::open(index_dir_, {}).value();
  const RunReference legacy(index_dir_);
  std::size_t checked = 0;
  for (const auto& entry : legacy.entries()) {
    const std::string_view term = entry.term;
    const auto a = legacy.lookup(term);
    const auto b = segment.lookup(term);
    ASSERT_TRUE(a.has_value() && b.has_value()) << term;
    EXPECT_EQ(a->doc_ids, b->doc_ids) << term;
    EXPECT_EQ(a->tfs, b->tfs) << term;
    const auto ap = legacy.lookup(term, /*positional=*/true);
    const auto bp = segment.lookup_positional(term);
    ASSERT_TRUE(ap.has_value() && bp.has_value()) << term;
    EXPECT_EQ(ap->positions, bp->positions) << term;
    ++checked;
  }
  EXPECT_EQ(checked, segment.term_count());
  EXPECT_FALSE(segment.lookup("zzzznope").has_value());
  EXPECT_FALSE(legacy.lookup("zzzznope").has_value());
}

TEST_F(SegmentEquivalenceFixture, RangeLookupsMatchLegacy) {
  const auto segment = InvertedIndex::open(index_dir_, {}).value();
  const RunReference legacy(index_dir_);
  const std::string shared = normalize_term("shared");
  const struct {
    std::uint32_t lo, hi;
  } ranges[] = {{0, 35}, {0, 11}, {12, 23}, {5, 30}, {30, 35}, {100, 200}};
  for (const auto& r : ranges) {
    const auto a = legacy.lookup_range(shared, r.lo, r.hi);
    const auto b = segment.lookup_range(shared, r.lo, r.hi);
    ASSERT_TRUE(a.has_value() && b.has_value());
    EXPECT_EQ(a->doc_ids, b->doc_ids) << r.lo << ".." << r.hi;
    EXPECT_EQ(a->tfs, b->tfs);
  }
  // Segment-backed narrowing: a non-overlapping range skips the decode and
  // reports zero blobs touched (the term still exists → not nullopt).
  std::size_t touched = 99;
  const auto out = segment.lookup_range(shared, 1000, 2000, &touched);
  ASSERT_TRUE(out.has_value());
  EXPECT_TRUE(out->doc_ids.empty());
  EXPECT_EQ(touched, 0u);
  EXPECT_FALSE(segment.lookup_range("zzzznope", 0, 10, &touched).has_value());
  EXPECT_EQ(touched, 0u);
}

TEST_F(SegmentEquivalenceFixture, PrefixScansMatchLegacy) {
  const auto segment = InvertedIndex::open(index_dir_, {}).value();
  const RunReference legacy(index_dir_);
  for (const std::string prefix : {"", "s", "file", "doc1", "zzz"}) {
    EXPECT_EQ(segment.terms_with_prefix(prefix), legacy.terms_with_prefix(prefix))
        << "prefix '" << prefix << "'";
  }
}

TEST_F(SegmentEquivalenceFixture, ReadMetricsAccumulate) {
  const auto index = InvertedIndex::open(index_dir_, {}).value();
  (void)index.lookup(normalize_term("shared"));
  (void)index.lookup("zzzznope");
  const auto snap = index.metrics().snapshot();
  EXPECT_EQ(snap.counter("query_lookups_total"), 2u);
  EXPECT_EQ(snap.counter("query_lookup_misses_total"), 1u);
  EXPECT_GT(snap.counter("query_postings_decoded_total"), 0u);
  EXPECT_GT(snap.counter("query_bytes_decoded_total"), 0u);
  const auto* mapped = snap.gauge("segment_bytes_mapped");
  ASSERT_NE(mapped, nullptr);
  EXPECT_EQ(static_cast<std::uint64_t>(mapped->value), index.segment()->mapped_bytes());
}

// ------------------------------------------------ corruption

class SegmentCorruptionFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::make_unique<TempDir>("corrupt");
    seg_path_ = dir_->path() + "/c.seg";
    SegmentWriter writer(seg_path_, PostingCodec::kVByte);
    const std::vector<std::string> sorted = {"alpha", "beta", "delta", "gamma", "omega"};
    for (const auto& term : sorted) {
      const auto blob = encode_list({1, 5, 9});
      writer.add_term(term, blob.data(), blob.size(), 3, 1, 9);
    }
    writer.finalize();
  }

  /// XORs one byte at `offset` (negative = from end).
  void flip(std::ptrdiff_t offset) {
    auto data = read_file(seg_path_);
    const std::size_t at = offset >= 0 ? static_cast<std::size_t>(offset)
                                       : data.size() + offset;
    ASSERT_LT(at, data.size());
    data[at] ^= 0x5A;
    write_file(seg_path_, data);
  }

  /// Recomputes the footer CRC so header/section tampering survives the
  /// checksum and exercises the structural checks behind it.
  void fix_crc() {
    auto data = read_file(seg_path_);
    const std::uint32_t crc = crc32(data.data(), data.size() - 16);
    std::memcpy(data.data() + data.size() - 8, &crc, 4);
    write_file(seg_path_, data);
  }

  std::unique_ptr<TempDir> dir_;
  std::string seg_path_;
};

TEST_F(SegmentCorruptionFixture, TruncatedFileDies) {
  auto data = read_file(seg_path_);
  data.resize(data.size() / 2);
  write_file(seg_path_, data);
  EXPECT_DEATH((void)SegmentReader::open(seg_path_), "footer|truncated");
  data.resize(10);
  write_file(seg_path_, data);
  EXPECT_DEATH((void)SegmentReader::open(seg_path_), "too small");
}

TEST_F(SegmentCorruptionFixture, BitFlippedBlobDies) {
  flip(-20);  // inside the blob area, just before the footer
  EXPECT_DEATH((void)SegmentReader::open(seg_path_), "corruption|crc");
}

TEST_F(SegmentCorruptionFixture, BitFlippedHeaderDies) {
  flip(0);
  EXPECT_DEATH((void)SegmentReader::open(seg_path_), "corruption|crc");
}

TEST_F(SegmentCorruptionFixture, BadFooterCrcDies) {
  flip(-6);  // inside the stored CRC field
  EXPECT_DEATH((void)SegmentReader::open(seg_path_), "corruption|crc");
}

TEST_F(SegmentCorruptionFixture, BadFooterMagicDies) {
  flip(-1);
  EXPECT_DEATH((void)SegmentReader::open(seg_path_), "footer magic");
}

TEST_F(SegmentCorruptionFixture, WrongMagicWithValidCrcDies) {
  flip(0);
  fix_crc();
  EXPECT_DEATH((void)SegmentReader::open(seg_path_), "not a hetindex segment");
}

TEST_F(SegmentCorruptionFixture, WrongVersionWithValidCrcDies) {
  flip(4);
  fix_crc();
  EXPECT_DEATH((void)SegmentReader::open(seg_path_), "segment version");
}

TEST_F(SegmentCorruptionFixture, TamperedSectionBoundsDie) {
  // Grow dict_bytes (u64 at offset 40) past the file end; CRC is repaired
  // so only the bounds check can catch it.
  auto data = read_file(seg_path_);
  std::uint64_t dict_bytes = 0;
  std::memcpy(&dict_bytes, data.data() + 40, 8);
  dict_bytes += 1 << 20;
  std::memcpy(data.data() + 40, &dict_bytes, 8);
  write_file(seg_path_, data);
  fix_crc();
  EXPECT_DEATH((void)SegmentReader::open(seg_path_), "section out of bounds");
}

TEST_F(SegmentCorruptionFixture, MissingFileDies) {
  EXPECT_DEATH((void)SegmentReader::open(dir_->path() + "/nope.seg"),
               "cannot open|cannot read");
}

// ------------------------------------------------ parallel fold

/// Hand-built run files and the dictionary over them, shaped to hit the
/// fold's edges: dictionary terms with no flushed postings next to every
/// front-coded block start (so every range boundary of every width sits
/// beside one), parts of several sub-lists (blocked lists past 128 docs,
/// and raw parts led by a header-only sub-list), and optional positions.
/// Each term has a part in about two of every three runs, or, with many
/// `runs`, in about two of them: most (term, run) pairs then hold nothing.
struct FoldInput {
  std::vector<DictionaryEntry> entries;
  std::vector<IndexDirectoryEntry> directory;
};

FoldInput write_fold_runs(const std::string& dir, std::size_t emitted_terms, bool positional,
                          std::uint32_t runs = 3) {
  constexpr std::uint32_t kDocsPerRun = 1000;
  FoldInput in;
  std::vector<RunFileWriter> writers;
  for (std::uint32_t r = 0; r < runs; ++r) {
    // Run ids out of file order: the fold must sort runs by id.
    const std::uint32_t run_id = runs - 1 - r;
    const std::string file = "run_" + std::to_string(run_id) + ".post";
    writers.emplace_back(dir + "/" + file, run_id);
    in.directory.push_back({file, run_id, run_id * kDocsPerRun,
                            run_id * kDocsPerRun + kDocsPerRun - 1});
  }
  Rng rng(positional ? 0xF01D : 0xF0D);
  std::size_t emitted = 0;
  std::uint32_t handle = 1;
  auto add_entry = [&](std::uint32_t shard) {
    char name[16];
    std::snprintf(name, sizeof name, "t%06zu", in.entries.size());
    in.entries.push_back({name, 0, shard, handle++});
    return in.entries.back();
  };
  while (emitted < emitted_terms) {
    // An unflushed dictionary term right before every block start.
    if (emitted % kSegmentTermsPerBlock == 0) (void)add_entry(1);
    const DictionaryEntry e = add_entry(static_cast<std::uint32_t>(emitted % 2));
    bool any = false;
    for (std::uint32_t run_id = 0; run_id < runs; ++run_id) {
      if (rng.below(runs) < runs - 2 && !(run_id == runs - 1 && !any)) continue;
      any = true;
      // Mostly short lists; every 23rd term spans several 128-doc blocks.
      const std::size_t n = emitted % 23 == 0 ? 150 + rng.below(250) : 1 + rng.below(6);
      PostingsList list;
      std::uint32_t doc = run_id * kDocsPerRun + static_cast<std::uint32_t>(rng.below(5));
      for (std::size_t k = 0; k < n && doc < (run_id + 1) * kDocsPerRun; ++k) {
        list.doc_ids.push_back(doc);
        list.tfs.push_back(1 + static_cast<std::uint32_t>(rng.below(4)));
        if (positional) {
          for (std::uint32_t p = 0; p < list.tfs.back(); ++p) list.positions.push_back(p * 3);
        }
        doc += 1 + static_cast<std::uint32_t>(rng.below(3));
      }
      RunFileWriter& w = writers[runs - 1 - run_id];
      const PostingKey key{e.shard, e.handle};
      if (emitted % 7 == 3) {
        // A raw part: an empty (header-only) sub-list, then the list split
        // into two sub-lists — three sub-lists, two block rows.
        const std::vector<std::uint32_t> none;
        auto bytes = encode_postings(PostingCodec::kVByte, none, none);
        const std::size_t half = (list.size() + 1) / 2;
        PostingsList a, b;
        std::size_t pos_at = 0;
        for (std::size_t k = 0; k < list.size(); ++k) {
          PostingsList& dst = k < half ? a : b;
          dst.doc_ids.push_back(list.doc_ids[k]);
          dst.tfs.push_back(list.tfs[k]);
          if (positional) {
            dst.positions.insert(dst.positions.end(), list.positions.begin() + pos_at,
                                 list.positions.begin() + pos_at + list.tfs[k]);
            pos_at += list.tfs[k];
          }
        }
        for (const PostingsList* part : {&a, &b}) {
          if (part->empty()) continue;
          const auto sub = encode_postings(PostingCodec::kVByte, part->doc_ids, part->tfs,
                                           positional ? &part->positions : nullptr);
          bytes.insert(bytes.end(), sub.begin(), sub.end());
        }
        w.add_raw(key, bytes, static_cast<std::uint32_t>(list.size()), list.doc_ids.front(),
                  list.doc_ids.back());
      } else {
        w.add_list(key, list);
      }
    }
    ++emitted;
  }
  (void)add_entry(1);  // a trailing unflushed term
  for (auto& w : writers) w.finalize();
  return in;
}

/// The fold as one serial SegmentWriter pass over the runs — the
/// byte-identity oracle for index.seg.
std::vector<std::uint8_t> serial_fold(const std::string& dir, const FoldInput& in) {
  std::vector<RunFile> runs;
  for (const auto& d : in.directory) runs.push_back(RunFile::open(dir + "/" + d.file));
  std::sort(runs.begin(), runs.end(),
            [](const RunFile& a, const RunFile& b) { return a.run_id() < b.run_id(); });
  SegmentWriter writer(dir + "/unused.seg", PostingCodec::kVByte);
  std::vector<std::uint8_t> blob;
  for (const auto& de : in.entries) {
    blob.clear();
    std::uint32_t count = 0, mn = 0, mx = 0;
    for (const auto& run : runs) {
      const RunTableEntry* e = run.entry({de.shard, de.handle});
      if (e == nullptr) continue;
      const auto [bytes, len] = run.raw_blob(*e);
      blob.insert(blob.end(), bytes, bytes + len);
      if (count == 0) mn = e->min_doc;
      mx = e->max_doc;
      count += e->count;
    }
    if (count > 0) writer.add_term(de.term, blob.data(), blob.size(), count, mn, mx);
  }
  return writer.finish();
}

using SegmentFiles = std::map<std::string, std::vector<std::uint8_t>>;

/// `<dir>/index.seg` and its two sidecars, keyed by suffix.
SegmentFiles read_segment_files(const std::string& dir) {
  const std::string seg = IndexLayout::segment_path(dir);
  SegmentFiles files;
  for (const std::string suffix : {"", ".bmx", ".blm"}) {
    EXPECT_TRUE(std::filesystem::exists(seg + suffix)) << seg + suffix;
    if (std::filesystem::exists(seg + suffix)) files[suffix] = read_file(seg + suffix);
  }
  return files;
}

/// Folds at widths 1, 2, 3 and the hardware width; every width must write
/// the same three files, the segment must equal the serial oracle, and the
/// sidecars must equal the decode-pass recomputes of the re-opened segment.
void expect_fold_identical_across_widths(const std::string& dir, const FoldInput& in,
                                         std::uint64_t expect_terms) {
  const std::size_t hw = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  SegmentFiles reference;
  for (const std::size_t width : {std::size_t{1}, std::size_t{2}, std::size_t{3}, hw}) {
    SCOPED_TRACE("width " + std::to_string(width));
    const auto stats = build_segment_from_runs(dir, in.entries, in.directory, width);
    ASSERT_TRUE(stats.has_value()) << stats.error().to_string();
    EXPECT_EQ(stats.value().terms, expect_terms);
    EXPECT_EQ(stats.value().runs, in.directory.size());
    auto files = read_segment_files(dir);
    EXPECT_EQ(stats.value().output_bytes, files[""].size());
    if (reference.empty()) {
      reference = std::move(files);
    } else {
      EXPECT_TRUE(files == reference) << "fold output depends on the pool width";
    }
  }
  EXPECT_TRUE(reference[""] == serial_fold(dir, in)) << "segment differs from the serial fold";

  // Sidecar oracles, written next to a copy of the segment and compared
  // byte for byte.
  const std::string copy = dir + "/oracle.seg";
  write_file(copy, reference[""]);
  const auto reader = SegmentReader::open(copy);
  EXPECT_EQ(reader.term_count(), expect_terms);
  ASSERT_TRUE(write_block_index_sidecar(copy, compute_block_index(reader)).has_value());
  ASSERT_TRUE(write_bloom_sidecar(copy, compute_blooms(reader)).has_value());
  EXPECT_TRUE(read_file(block_index_sidecar_path(copy)) == reference[".bmx"]);
  EXPECT_TRUE(read_file(bloom_sidecar_path(copy)) == reference[".blm"]);
}

TEST(ParallelFold, ByteIdenticalAcrossWidths) {
  TempDir dir("fold");
  const auto in = write_fold_runs(dir.path(), 300, /*positional=*/false);
  expect_fold_identical_across_widths(dir.path(), in, 300);
  // Many runs, most of them without a part for a given term.
  TempDir sparse("fold_sparse");
  const auto many = write_fold_runs(sparse.path(), 250, /*positional=*/false, /*runs=*/40);
  expect_fold_identical_across_widths(sparse.path(), many, 250);
}

TEST(ParallelFold, PositionalRunsByteIdenticalAcrossWidths) {
  TempDir dir("fold_pos");
  const auto in = write_fold_runs(dir.path(), 200, /*positional=*/true);
  expect_fold_identical_across_widths(dir.path(), in, 200);
  // Positions survive the fold: phrase-capable lookups decode them.
  const auto reader = SegmentReader::open(IndexLayout::segment_path(dir.path()));
  std::vector<std::uint32_t> ids, tfs, positions;
  reader.decode(reader.meta(0), ids, tfs, &positions);
  std::uint64_t tf_sum = 0;
  for (const std::uint32_t tf : tfs) tf_sum += tf;
  EXPECT_EQ(positions.size(), tf_sum);
}

TEST(ParallelFold, FewerTermsThanWorkers) {
  TempDir dir("fold_few");
  const auto in = write_fold_runs(dir.path(), 2, /*positional=*/false);
  expect_fold_identical_across_widths(dir.path(), in, 2);
}

TEST(ParallelFold, EmptyDictionary) {
  TempDir dir("fold_empty");
  const auto runs = write_fold_runs(dir.path(), 5, /*positional=*/false);
  const FoldInput empty{{}, runs.directory};
  expect_fold_identical_across_widths(dir.path(), empty, 0);
  // Only unflushed terms: nothing is emitted either.
  FoldInput unflushed{{}, runs.directory};
  unflushed.entries.push_back({"zz_unflushed", 0, 7, 999999});
  expect_fold_identical_across_widths(dir.path(), unflushed, 0);
}

// ------------------------------------------------ concurrent readers

TEST_F(SegmentEquivalenceFixture, ConcurrentReadersMatchLegacy) {
  // Expected answers collected single-threaded from the run files.
  const RunReference legacy(index_dir_);
  std::vector<std::string> terms;
  for (const auto& e : legacy.entries()) terms.push_back(e.term);
  std::vector<QueryPostings> expected;
  expected.reserve(terms.size());
  for (const auto& t : terms) expected.push_back(*legacy.lookup(t));

  // One shared reader, no locks: lookups, range lookups and prefix scans
  // hammered from many threads must all agree with the run-file answers.
  const auto index = InvertedIndex::open(index_dir_, {}).value();
  constexpr int kThreads = 8;
  constexpr int kIters = 150;
  std::atomic<int> failures{0};
  {
    std::vector<std::jthread> workers;
    workers.reserve(kThreads);
    for (int w = 0; w < kThreads; ++w) {
      workers.emplace_back([&, w] {
        for (int i = 0; i < kIters; ++i) {
          const std::size_t k = static_cast<std::size_t>(w + i) % terms.size();
          const auto got = index.lookup(terms[k]);
          if (!got || got->doc_ids != expected[k].doc_ids ||
              got->tfs != expected[k].tfs) {
            failures.fetch_add(1, std::memory_order_relaxed);
          }
          if (index.lookup("zzzznope").has_value()) {
            failures.fetch_add(1, std::memory_order_relaxed);
          }
          const auto ranged = index.lookup_range(terms[k], 0, 11);
          if (!ranged || ranged->doc_ids.size() > expected[k].doc_ids.size()) {
            failures.fetch_add(1, std::memory_order_relaxed);
          }
          if (i % 25 == 0 &&
              index.terms_with_prefix("doc").empty()) {
            failures.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }
  }
  EXPECT_EQ(failures.load(), 0);
  const auto snap = index.metrics().snapshot();
  EXPECT_EQ(snap.counter("query_lookups_total"),
            static_cast<std::uint64_t>(kThreads) * kIters * 3);
}

}  // namespace
}  // namespace hetindex
