#include "postings/boolean_ops.hpp"

#include <algorithm>

namespace hetindex {

QueryPostings postings_and(const QueryPostings& a, const QueryPostings& b) {
  QueryPostings out;
  std::size_t i = 0, j = 0;
  while (i < a.doc_ids.size() && j < b.doc_ids.size()) {
    if (a.doc_ids[i] < b.doc_ids[j]) {
      ++i;
    } else if (a.doc_ids[i] > b.doc_ids[j]) {
      ++j;
    } else {
      out.doc_ids.push_back(a.doc_ids[i]);
      out.tfs.push_back(a.tfs[i] + b.tfs[j]);
      ++i;
      ++j;
    }
  }
  return out;
}

QueryPostings postings_or(const QueryPostings& a, const QueryPostings& b) {
  QueryPostings out;
  out.doc_ids.reserve(a.doc_ids.size() + b.doc_ids.size());
  std::size_t i = 0, j = 0;
  while (i < a.doc_ids.size() || j < b.doc_ids.size()) {
    if (j >= b.doc_ids.size() || (i < a.doc_ids.size() && a.doc_ids[i] < b.doc_ids[j])) {
      out.doc_ids.push_back(a.doc_ids[i]);
      out.tfs.push_back(a.tfs[i]);
      ++i;
    } else if (i >= a.doc_ids.size() || b.doc_ids[j] < a.doc_ids[i]) {
      out.doc_ids.push_back(b.doc_ids[j]);
      out.tfs.push_back(b.tfs[j]);
      ++j;
    } else {
      out.doc_ids.push_back(a.doc_ids[i]);
      out.tfs.push_back(a.tfs[i] + b.tfs[j]);
      ++i;
      ++j;
    }
  }
  return out;
}

QueryPostings postings_and_not(const QueryPostings& a, const QueryPostings& b) {
  QueryPostings out;
  std::size_t j = 0;
  for (std::size_t i = 0; i < a.doc_ids.size(); ++i) {
    while (j < b.doc_ids.size() && b.doc_ids[j] < a.doc_ids[i]) ++j;
    if (j < b.doc_ids.size() && b.doc_ids[j] == a.doc_ids[i]) continue;
    out.doc_ids.push_back(a.doc_ids[i]);
    out.tfs.push_back(a.tfs[i]);
  }
  return out;
}

QueryPostings postings_and_galloping(const QueryPostings& a, const QueryPostings& b) {
  // Iterate the shorter list, gallop in the longer one.
  const QueryPostings& small = a.doc_ids.size() <= b.doc_ids.size() ? a : b;
  const QueryPostings& large = a.doc_ids.size() <= b.doc_ids.size() ? b : a;
  QueryPostings out;
  std::size_t lo = 0;
  for (std::size_t i = 0; i < small.doc_ids.size(); ++i) {
    const std::uint32_t target = small.doc_ids[i];
    // Exponential probe from lo.
    std::size_t step = 1, hi = lo;
    while (hi < large.doc_ids.size() && large.doc_ids[hi] < target) {
      lo = hi;
      hi += step;
      step <<= 1;
    }
    hi = std::min(hi + 1, large.doc_ids.size());
    const auto it = std::lower_bound(large.doc_ids.begin() + static_cast<std::ptrdiff_t>(lo),
                                     large.doc_ids.begin() + static_cast<std::ptrdiff_t>(hi),
                                     target);
    lo = static_cast<std::size_t>(it - large.doc_ids.begin());
    if (lo < large.doc_ids.size() && large.doc_ids[lo] == target) {
      out.doc_ids.push_back(target);
      out.tfs.push_back(small.tfs[i] + large.tfs[lo]);
    }
  }
  return out;
}

std::uint32_t phrase_match_count(const DocTermPositions& term_positions) {
  if (term_positions.empty()) return 0;
  std::uint32_t matches = 0;
  for (const std::uint32_t p : term_positions[0]) {
    bool all = true;
    for (std::size_t t = 1; t < term_positions.size() && all; ++t) {
      all = std::binary_search(term_positions[t].begin(), term_positions[t].end(),
                               p + static_cast<std::uint32_t>(t));
    }
    if (all) ++matches;
  }
  return matches;
}

std::uint32_t near_match_count(const DocTermPositions& term_positions,
                               std::uint32_t window) {
  if (term_positions.empty()) return 0;
  std::uint32_t matches = 0;
  for (const std::uint32_t p : term_positions[0]) {
    const std::uint32_t lo = p >= window ? p - window : 0;
    bool all = true;
    for (std::size_t t = 1; t < term_positions.size() && all; ++t) {
      // The nearest candidate at or above lo decides.
      const auto q = std::lower_bound(term_positions[t].begin(), term_positions[t].end(), lo);
      all = q != term_positions[t].end() && *q <= p + window;
    }
    if (all) ++matches;
  }
  return matches;
}

}  // namespace hetindex
