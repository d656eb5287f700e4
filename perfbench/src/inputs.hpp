#pragma once
/// \file inputs.hpp
/// Inputs shared by the serving workloads: in-memory documents from the
/// synthetic generator, and queries. Query terms are drawn Zipf
/// by the corpus's own document-frequency ranking, so popular terms
/// dominate the way they do in real query logs; pools hold distinct
/// queries only, so the result cache's hit rate is set by the pool size.

#include <algorithm>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/hetindex.hpp"
#include "postings/cursor.hpp"
#include "util/rng.hpp"
#include "util/zipf.hpp"

namespace perfbench {

/// Documents of a wikipedia_like collection (plain text), generated in
/// memory from `seed`: about `bytes` of bodies.
inline std::vector<hetindex::Document> wiki_documents(std::uint64_t seed, std::uint64_t bytes) {
  hetindex::CollectionSpec spec = hetindex::wikipedia_like();
  spec.seed ^= seed * 0x9E3779B97F4A7C15ull;
  const hetindex::Vocabulary vocab(spec.vocabulary, spec.numeric_fraction,
                                   spec.special_fraction, spec.seed);
  hetindex::Rng rng(spec.seed ^ 0xD0C5);
  return hetindex::generate_documents(spec, vocab, bytes, 0, 1, rng);
}

/// (term, document frequency) for every term of a live snapshot.
inline std::vector<std::pair<std::string, std::uint64_t>> snapshot_dfs(
    const hetindex::LiveSnapshot& snap) {
  std::vector<std::pair<std::string, std::uint64_t>> dfs;
  snap.for_each_term([&](std::string_view term) {
    const auto cursor = snap.open_cursor(term);
    dfs.emplace_back(std::string(term), cursor == nullptr ? 0 : cursor->size());
    return true;
  });
  return dfs;
}

/// Terms ranked by document frequency, sampled Zipf(1) by rank.
class TermDraw {
 public:
  /// `terms` pairs a term with its document frequency.
  explicit TermDraw(std::vector<std::pair<std::string, std::uint64_t>> terms)
      : zipf_(std::max<std::size_t>(terms.size(), 1), 1.0) {
    std::sort(terms.begin(), terms.end(), [](const auto& a, const auto& b) {
      return a.second != b.second ? a.second > b.second : a.first < b.first;
    });
    for (auto& t : terms) ranked_.push_back(std::move(t.first));
  }
  [[nodiscard]] const std::string& draw(hetindex::Rng& rng) const {
    return ranked_[zipf_(rng) - 1];
  }
  [[nodiscard]] std::vector<std::string> draw_distinct(hetindex::Rng& rng, std::size_t n) const {
    std::vector<std::string> out;
    while (out.size() < n) {
      const std::string& t = draw(rng);
      if (std::find(out.begin(), out.end(), t) == out.end()) out.push_back(t);
    }
    return out;
  }

 private:
  std::vector<std::string> ranked_;
  hetindex::ZipfSampler zipf_;
};

/// `count` distinct queries of one class. Ranked bags carry 2-4 terms, AND
/// 2-3, PHRASE and NEAR-3 two.
inline std::vector<hetindex::Query> query_pool(const TermDraw& terms, hetindex::QueryClass cls,
                                               std::size_t count, hetindex::Rng& rng) {
  using hetindex::Query;
  using hetindex::QueryClass;
  std::vector<Query> pool;
  std::set<std::string> seen;
  while (pool.size() < count) {
    Query q;
    switch (cls) {
      case QueryClass::kRanked: q = Query::bag(terms.draw_distinct(rng, 2 + rng.below(3))); break;
      case QueryClass::kConjunctive:
        q = Query::conjunction(terms.draw_distinct(rng, 2 + rng.below(2)));
        break;
      case QueryClass::kPhrase: q = Query::phrase(terms.draw_distinct(rng, 2)); break;
      default: q = Query::near(terms.draw_distinct(rng, 2), 3); break;
    }
    if (seen.insert(q.to_string()).second) pool.push_back(std::move(q));
  }
  return pool;
}

/// Independent reference for an AND answer: intersect the raw postings,
/// rank by summed tf descending then doc id ascending, keep the top k.
inline std::vector<std::pair<std::uint32_t, std::uint32_t>> reference_and(
    const std::vector<hetindex::QueryPostings>& lists, std::size_t k) {
  std::vector<std::pair<std::uint32_t, std::uint32_t>> acc;  // (doc, tf sum)
  if (lists.empty()) return acc;
  for (std::size_t i = 0; i < lists[0].doc_ids.size(); ++i) {
    acc.emplace_back(lists[0].doc_ids[i], lists[0].tfs[i]);
  }
  for (std::size_t l = 1; l < lists.size(); ++l) {
    std::vector<std::pair<std::uint32_t, std::uint32_t>> next;
    const auto& ids = lists[l].doc_ids;
    for (const auto& [doc, tf] : acc) {
      const auto it = std::lower_bound(ids.begin(), ids.end(), doc);
      if (it != ids.end() && *it == doc) {
        next.emplace_back(doc, tf + lists[l].tfs[static_cast<std::size_t>(it - ids.begin())]);
      }
    }
    acc = std::move(next);
  }
  std::sort(acc.begin(), acc.end(), [](const auto& a, const auto& b) {
    return a.second != b.second ? a.second > b.second : a.first < b.first;
  });
  if (acc.size() > k) acc.resize(k);
  return acc;
}

}  // namespace perfbench
