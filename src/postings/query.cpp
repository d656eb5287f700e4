#include "postings/query.hpp"

#include "postings/cursor.hpp"
#include "util/binary_io.hpp"
#include "util/timer.hpp"

namespace hetindex {

/// One reference per read-path instrument, resolved once at open() so the
/// per-lookup cost is an atomic add or two plus a histogram bucket.
struct InvertedIndex::ReadInstruments {
  obs::Counter& lookups;
  obs::Counter& misses;
  obs::Counter& postings_decoded;
  obs::Counter& bytes_decoded;
  obs::Gauge& bytes_mapped;
  obs::Histo& lookup_micros;

  explicit ReadInstruments(obs::MetricsRegistry& m)
      : lookups(m.counter("query_lookups_total")),
        misses(m.counter("query_lookup_misses_total")),
        postings_decoded(m.counter("query_postings_decoded_total")),
        bytes_decoded(m.counter("query_bytes_decoded_total")),
        bytes_mapped(m.gauge("segment_bytes_mapped")),
        lookup_micros(m.histogram("query_lookup_micros", 0.0, 1024.0, 64)) {}
};

namespace {

/// Feeds the lookup-latency histogram on scope exit (µs).
class LatencyScope {
 public:
  explicit LatencyScope(obs::Histo& hist) : hist_(hist) {}
  LatencyScope(const LatencyScope&) = delete;
  LatencyScope& operator=(const LatencyScope&) = delete;
  ~LatencyScope() { hist_.add(timer_.seconds() * 1e6); }

 private:
  obs::Histo& hist_;
  WallTimer timer_;
};

}  // namespace

InvertedIndex::InvertedIndex()
    : metrics_(std::make_unique<obs::MetricsRegistry>()),
      ins_(std::make_unique<ReadInstruments>(*metrics_)) {}

InvertedIndex::InvertedIndex(InvertedIndex&&) noexcept = default;
InvertedIndex& InvertedIndex::operator=(InvertedIndex&&) noexcept = default;
InvertedIndex::~InvertedIndex() = default;

Expected<InvertedIndex> InvertedIndex::open(const std::string& dir, const OpenOptions&) {
  const std::string seg_path = IndexLayout::segment_path(dir);
  if (!file_exists(seg_path)) {
    if (file_exists(IndexLayout::dictionary_path(dir))) {
      return Error{ErrorCode::kNotFound,
                   dir + " holds run files, a build intermediate; fold them into " +
                       seg_path + " with compact_index(dir) or `hetindex_cli compact " +
                       dir + "` to serve it"};
    }
    return Error{ErrorCode::kNotFound, "no index found under: " + dir + " (no index.seg)"};
  }
  auto segment = open_served_segment(seg_path);
  if (!segment.has_value()) return segment.error();
  InvertedIndex idx;
  idx.segment_ = std::make_unique<ServedSegment>(std::move(segment).value());
  idx.ins_->bytes_mapped.set(static_cast<std::int64_t>(idx.segment_->reader.mapped_bytes()));
  return idx;
}

std::optional<std::uint32_t> InvertedIndex::max_tf(std::string_view term) const {
  const auto ordinal = segment_->reader.find(term);
  if (!ordinal) return std::nullopt;
  return segment_->blocks.term_max_tf(*ordinal);
}

std::vector<std::string> InvertedIndex::terms_with_prefix(std::string_view prefix) const {
  return segment_->reader.terms_with_prefix(prefix);
}

void InvertedIndex::for_each_term(const std::function<void(std::string_view)>& fn) const {
  segment_->reader.for_each_term([&](std::string_view term, std::uint64_t) {
    fn(term);
    return true;
  });
}

std::optional<QueryPostings> InvertedIndex::lookup_impl(std::string_view term,
                                                        bool positional) const {
  ins_->lookups.add();
  const LatencyScope latency(ins_->lookup_micros);
  const SegmentReader& reader = segment_->reader;
  const auto ordinal = reader.find(term);
  if (!ordinal) {
    ins_->misses.add();
    return std::nullopt;
  }
  QueryPostings out;
  const auto m = reader.meta(*ordinal);
  reader.decode(m, out.doc_ids, out.tfs, positional ? &out.positions : nullptr);
  ins_->postings_decoded.add(m.count);
  ins_->bytes_decoded.add(m.bytes);
  return out;
}

std::optional<QueryPostings> InvertedIndex::lookup(std::string_view term) const {
  return lookup_impl(term, /*positional=*/false);
}

std::unique_ptr<PostingsCursor> InvertedIndex::open_cursor(std::string_view term,
                                                           bool /*with_positions*/) const {
  ins_->lookups.add();
  const LatencyScope latency(ins_->lookup_micros);
  const SegmentReader& reader = segment_->reader;
  const auto ordinal = reader.find(term);
  if (!ordinal) {
    ins_->misses.add();
    return nullptr;
  }
  const auto m = reader.meta(*ordinal);
  if (m.count == 0) return nullptr;
  const auto blob = reader.raw_blob(m);
  const auto rows = segment_->blocks.blocks(*ordinal);
  // Zero-copy: decode cost accrues only for the blocks the cursor enters,
  // so nothing is added to the decode counters here.
  return make_segment_cursor(blob.first, blob.second, rows.first, rows.second,
                             /*pin=*/nullptr);
}

std::optional<QueryPostings> InvertedIndex::lookup_positional(std::string_view term) const {
  return lookup_impl(term, /*positional=*/true);
}

BloomChain InvertedIndex::bloom_chain(std::string_view term) const {
  BloomChain chain;
  if (!segment_->blooms.has_value()) return chain;
  const auto ordinal = segment_->reader.find(term);
  if (!ordinal) return chain;
  // One segment owns every doc of a batch index, so the single link covers
  // the whole doc-id space — the filter was built over the full list and
  // can answer for any candidate.
  chain.add_link({0, 0xFFFFFFFFu, &*segment_->blooms, *ordinal});
  return chain;
}

std::optional<QueryPostings> InvertedIndex::lookup_range(std::string_view term,
                                                         std::uint32_t min_doc,
                                                         std::uint32_t max_doc,
                                                         std::size_t* runs_touched) const {
  ins_->lookups.add();
  const LatencyScope latency(ins_->lookup_micros);
  if (runs_touched) *runs_touched = 0;
  const SegmentReader& reader = segment_->reader;
  const auto ordinal = reader.find(term);
  if (!ordinal) {
    ins_->misses.add();
    return std::nullopt;
  }
  QueryPostings out;
  const auto m = reader.meta(*ordinal);
  // Per-term range narrowing: the table row carries the blob's doc range,
  // so a non-overlapping query skips the decode entirely.
  if (m.max_doc < min_doc || m.min_doc > max_doc) return out;
  if (runs_touched) *runs_touched = 1;
  QueryPostings raw;
  reader.decode(m, raw.doc_ids, raw.tfs);
  ins_->postings_decoded.add(m.count);
  ins_->bytes_decoded.add(m.bytes);
  for (std::size_t i = 0; i < raw.doc_ids.size(); ++i) {
    if (raw.doc_ids[i] >= min_doc && raw.doc_ids[i] <= max_doc) {
      out.doc_ids.push_back(raw.doc_ids[i]);
      out.tfs.push_back(raw.tfs[i]);
    }
  }
  return out;
}

}  // namespace hetindex
