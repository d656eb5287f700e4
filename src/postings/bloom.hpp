#pragma once
/// \file bloom.hpp
/// Per-postings-list Bloom filters — the `.blm` sidecar — used to reject
/// AND/PHRASE/NEAR candidates before any postings decode (Zambezi's
/// `-bloom` trick). Each term of a segment gets one filter over the
/// absolute doc ids of its list; a conjunctive driver tests a candidate
/// doc against every other term's filter and skips the follower seeks
/// (and their block decodes) when any filter says "definitely absent".
///
/// Filters are probabilistic one way only: may_contain() == false is
/// exact, true may be a false positive, so Bloom chains can never change
/// results — only the amount of decode work (the
/// `search_blooms_rejected_total` metric counts what they saved).
///
/// Sidecar lifecycle mirrors `.bmx`: written next to every
/// freshly-encoded segment (batch build, memtable flush, rewrite merge),
/// CRC-guarded, and *absent* after a §III.F byte-concatenation merge —
/// concatenation cannot merge filters sized to each input's list, so
/// merged segments degrade (no rejection) until a rewrite rebuilds the
/// sidecar. Readers treat a missing sidecar as "never reject".

#include <cstdint>
#include <string>
#include <vector>

#include "util/error.hpp"

namespace hetindex {

class SegmentReader;

/// Sizing knobs, recorded in the sidecar header. The defaults (10 bits
/// per posting, 7 probes) give ~1% false positives.
struct BloomOptions {
  std::uint32_t bits_per_element = 10;
  std::uint32_t hashes = 7;
};

/// One segment's per-term filters, ordinal-indexed like the dictionary.
/// Build-side: construct with options and add_term() each list in ordinal
/// order. Read-side: read_bloom_sidecar() reconstructs it.
class BloomSidecar {
 public:
  BloomSidecar() = default;
  explicit BloomSidecar(BloomOptions options) : options_(options) {}

  /// Appends the filter for the next term's doc ids.
  void add_term(const std::uint32_t* doc_ids, std::size_t count);

  /// Appends an all-clear filter sized for a `count`-posting list, to be
  /// filled by insert() — for builders that know every list's length
  /// before they see its doc ids.
  void add_empty_term(std::size_t count);

  /// Sets `doc_ids`' bits in term `ordinal`'s filter. Each term owns its
  /// own words, so inserts into distinct terms may run concurrently.
  void insert(std::uint64_t ordinal, const std::uint32_t* doc_ids, std::size_t count);

  /// False ⇒ `doc` is definitely not in term `ordinal`'s list.
  [[nodiscard]] bool may_contain(std::uint64_t ordinal, std::uint32_t doc) const;

  [[nodiscard]] std::uint64_t term_count() const { return bits_.size(); }
  [[nodiscard]] const BloomOptions& options() const { return options_; }

 private:
  friend Status write_bloom_sidecar(const std::string&, const BloomSidecar&);
  friend Expected<BloomSidecar> read_bloom_sidecar(const std::string&, std::uint64_t);

  BloomOptions options_;
  std::vector<std::uint64_t> bits_;        ///< filter size in bits, per term
  std::vector<std::uint64_t> word_begin_{0};  ///< per-term start into words_
  std::vector<std::uint64_t> words_;       ///< all filters, back to back
};

/// `<segment path>.blm`.
std::string bloom_sidecar_path(const std::string& segment_path);

/// Writes the sidecar durably (CRC-guarded, like `.bmx`).
Status write_bloom_sidecar(const std::string& segment_path, const BloomSidecar& sidecar);

/// Loads and validates the sidecar. kNotFound when absent (the caller
/// degrades to no rejection), kCorrupt on CRC/structure mismatch,
/// kUnsupported on a newer version.
Expected<BloomSidecar> read_bloom_sidecar(const std::string& segment_path,
                                          std::uint64_t expected_terms);

/// Rebuilds the filters from a finished segment (one decode pass) — the
/// rebuild-on-rewrite path for segments whose sidecar a concat merge
/// dropped.
BloomSidecar compute_blooms(const SegmentReader& reader, BloomOptions options = {});

/// One segment's filter for one term, bound to the doc-id range that
/// segment owns. Candidates outside every link's range can never be
/// rejected (conservative).
struct BloomChainLink {
  std::uint32_t min_doc = 0;
  std::uint32_t max_doc = 0;
  const BloomSidecar* sidecar = nullptr;  ///< borrowed; the snapshot pin keeps it alive
  std::uint64_t ordinal = 0;
};

/// A term's rejection chain across a snapshot's segments (links in
/// ascending disjoint doc order; ranges without a filter — the memtable,
/// a merged segment with no sidecar — are simply not linked and pass).
class BloomChain {
 public:
  void add_link(BloomChainLink link) { links_.push_back(link); }
  [[nodiscard]] bool empty() const { return links_.empty(); }

  /// False ⇒ `doc` is definitely absent from the term's postings.
  [[nodiscard]] bool may_contain(std::uint32_t doc) const {
    for (const auto& link : links_) {
      if (doc < link.min_doc) return true;  // links ascend: uncovered gap
      if (doc <= link.max_doc) return link.sidecar->may_contain(link.ordinal, doc);
    }
    return true;
  }

 private:
  std::vector<BloomChainLink> links_;
};

}  // namespace hetindex
