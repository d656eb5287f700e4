// Query AST and operator tests (docs/QUERIES.md): grammar and precedence,
// canonical-form round trips through parse_query/to_string, randomized
// phrase/NEAR equivalence against a naive positional-join oracle and
// random nested AND/OR/bag/PHRASE/NEAR trees against a set-based oracle,
// both over batch and live indexes (memtable-resident docs, deletes, and
// post-compaction state), nested trees skipping postings blocks, and
// Bloom-filter on/off bit-identity with the search_blooms_rejected_total
// counter. The TSan and ASan tier-1 legs both
// run this file.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "core/hetindex.hpp"
#include "search/searcher.hpp"

namespace hetindex {
namespace {

class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    path_ = (std::filesystem::temp_directory_path() /
             ("hetindex_qast_" + tag + "_" + std::to_string(counter_++)))
                .string();
    std::filesystem::create_directories(path_);
  }
  ~TempDir() { std::filesystem::remove_all(path_); }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  static inline int counter_ = 0;
  std::string path_;
};

struct Corpus {
  std::vector<std::string> files;
  std::vector<Document> docs;
};

Corpus make_corpus(const std::string& dir, std::uint64_t bytes, std::uint64_t seed) {
  CollectionSpec spec = wikipedia_like();
  spec.total_bytes = bytes;
  spec.seed = seed;
  const auto coll = generate_collection(spec, dir);
  Corpus corpus;
  corpus.files = coll.paths();
  for (const auto& file : corpus.files) {
    for (auto& doc : container_read(file)) corpus.docs.push_back(std::move(doc));
  }
  return corpus;
}

// ------------------------------------------------------------ grammar

TEST(QueryParse, AdjacencyIsARankedBag) {
  const auto q = parse_query("alpha beta").value();
  EXPECT_EQ(q.query_class(), QueryClass::kRanked);
  EXPECT_EQ(q.collect_terms(),
            (std::vector<std::string>{normalize_term("alpha"), normalize_term("beta")}));
}

TEST(QueryParse, OperatorsAndPrecedence) {
  // OR binds loosest, then AND, then NEAR, then adjacency.
  const auto q = parse_query("alpha beta OR gamma AND delta").value();
  EXPECT_EQ(q.query_class(), QueryClass::kDisjunctive);
  ASSERT_EQ(q.root().op, QueryOp::kOr);
  ASSERT_EQ(q.root().children.size(), 2u);
  EXPECT_EQ(q.root().children[0].op, QueryOp::kBag);
  EXPECT_EQ(q.root().children[1].op, QueryOp::kAnd);

  const auto parens = parse_query("(alpha OR beta) AND gamma").value();
  EXPECT_EQ(parens.query_class(), QueryClass::kConjunctive);
  ASSERT_EQ(parens.root().op, QueryOp::kAnd);
  EXPECT_EQ(parens.root().children[0].op, QueryOp::kOr);
}

TEST(QueryParse, PhraseAndNearForms) {
  const auto phrase = parse_query("\"alpha beta gamma\"").value();
  EXPECT_EQ(phrase.query_class(), QueryClass::kPhrase);
  ASSERT_EQ(phrase.root().op, QueryOp::kPhrase);
  EXPECT_EQ(phrase.root().terms.size(), 3u);

  const auto near = parse_query("alpha NEAR/4 beta").value();
  EXPECT_EQ(near.query_class(), QueryClass::kProximity);
  ASSERT_EQ(near.root().op, QueryOp::kNear);
  EXPECT_EQ(near.root().window, 4u);

  // A phrase inside an AND keeps the whole query in the phrase class.
  const auto mixed = parse_query("alpha AND \"beta gamma\"").value();
  EXPECT_EQ(mixed.query_class(), QueryClass::kPhrase);
}

TEST(QueryParse, TermsAreNormalizedAtParse) {
  const auto q = parse_query("Running COMPUTERS").value();
  EXPECT_EQ(q.collect_terms(),
            (std::vector<std::string>{normalize_term("Running"),
                                      normalize_term("COMPUTERS")}));
}

TEST(QueryParse, MalformedQueriesAreInvalidArgument) {
  for (const char* bad : {"", "   ", "(alpha", "alpha)", "\"alpha",
                          "alpha NEAR/0 beta", "alpha AND", "OR beta",
                          "\"\"", "alpha NEAR/2 (beta OR gamma)"}) {
    const auto r = parse_query(bad);
    ASSERT_FALSE(r.has_value()) << "accepted: '" << bad << "'";
    EXPECT_EQ(r.error().code, ErrorCode::kInvalidArgument) << bad;
  }
}

TEST(QueryFactories, EmptyInputsYieldTheEmptyQuery) {
  EXPECT_TRUE(Query().empty());
  EXPECT_TRUE(Query::bag({}).empty());
  EXPECT_TRUE(Query::conjunction({}).empty());
  EXPECT_TRUE(Query::disjunction({}).empty());
  EXPECT_TRUE(Query::and_of({}).empty());
  EXPECT_TRUE(Query::or_of({}).empty());
}

TEST(QueryFactories, SingleTermBooleanKeepsItsClass) {
  // One-term AND and OR queries rank by summed tf without a DocMap, so
  // they must not collapse into the BM25-ranked class.
  EXPECT_EQ(Query::conjunction({"alpha"}).query_class(), QueryClass::kConjunctive);
  EXPECT_EQ(Query::disjunction({"alpha"}).query_class(), QueryClass::kDisjunctive);
  EXPECT_EQ(Query::bag({"alpha"}).query_class(), QueryClass::kRanked);
}

// ------------------------------------------------- canonical round trip

/// Random AST over a normalized vocabulary. Group factories flatten and
/// canonicalize at construction, so to_string() is already the canonical
/// form the parser reproduces. Single-child groups are never generated —
/// their printed form is the bare child, which legitimately reparses as a
/// different (equivalent-scoring) shape.
Query random_query(std::mt19937& rng, const std::vector<std::string>& vocab,
                   int depth) {
  const auto pick_terms = [&](std::size_t n) {
    std::vector<std::string> terms;
    for (std::size_t i = 0; i < n; ++i) terms.push_back(vocab[rng() % vocab.size()]);
    return terms;
  };
  const std::uint32_t choice = rng() % (depth > 0 ? 6 : 4);
  switch (choice) {
    case 0: return Query::term(vocab[rng() % vocab.size()]);
    case 1: return Query::bag(pick_terms(2 + rng() % 2));
    case 2: return Query::phrase(pick_terms(2 + rng() % 2));
    case 3: return Query::near(pick_terms(2 + rng() % 2), 1 + rng() % 5);
    default: {
      std::vector<Query> children;
      const std::size_t n = 2 + rng() % 2;
      for (std::size_t i = 0; i < n; ++i) {
        children.push_back(random_query(rng, vocab, depth - 1));
      }
      return choice == 4 ? Query::and_of(std::move(children))
                         : Query::or_of(std::move(children));
    }
  }
}

TEST(QueryRoundTrip, ParseOfToStringReproducesTheAst) {
  std::vector<std::string> vocab;
  for (const char* w : {"alpha", "beta", "gamma", "delta", "epsilon", "zeta"}) {
    vocab.push_back(normalize_term(w));
  }
  std::mt19937 rng(1234);
  for (int trial = 0; trial < 300; ++trial) {
    const Query q = random_query(rng, vocab, 2);
    const std::string text = q.to_string();
    const auto reparsed = parse_query(text);
    ASSERT_TRUE(reparsed.has_value()) << "trial " << trial << ": '" << text << "'";
    EXPECT_EQ(reparsed.value().to_string(), text) << "trial " << trial;
    EXPECT_EQ(reparsed.value().query_class(), q.query_class()) << text;
    EXPECT_EQ(reparsed.value().collect_terms(), q.collect_terms()) << text;
  }
}

// -------------------------------------------- naive positional oracle

/// Per-doc position vectors of one decoded list: posting i owns the next
/// tfs[i] entries of the flat positions vector.
std::map<std::uint32_t, std::vector<std::uint32_t>> positions_by_doc(
    const QueryPostings& p) {
  std::map<std::uint32_t, std::vector<std::uint32_t>> out;
  std::size_t cursor = 0;
  for (std::size_t i = 0; i < p.doc_ids.size(); ++i) {
    auto& dst = out[p.doc_ids[i]];
    for (std::uint32_t t = 0; t < p.tfs[i]; ++t) dst.push_back(p.positions[cursor++]);
  }
  return out;
}

/// Per-document tf of a query node, as the oracles below compute it.
using DocTfs = std::map<std::uint32_t, std::uint32_t>;

/// The reference implementation: an O(docs × positions²) scan that shares
/// no code with phrase_match_count/near_match_count or the cursor engine.
/// `lists` in term order; a missing term empties the result. tf = phrase
/// start count, or NEAR anchor count over the FIRST term's occurrences.
DocTfs naive_positional_tfs(const std::vector<std::optional<QueryPostings>>& lists,
                            bool phrase, std::uint32_t window) {
  DocTfs out;
  for (const auto& list : lists) {
    if (!list.has_value()) return out;
  }
  std::vector<std::map<std::uint32_t, std::vector<std::uint32_t>>> by_doc;
  by_doc.reserve(lists.size());
  for (const auto& list : lists) by_doc.push_back(positions_by_doc(*list));
  for (const auto& [doc, anchors] : by_doc[0]) {
    bool everywhere = true;
    for (std::size_t t = 1; t < by_doc.size() && everywhere; ++t) {
      everywhere = by_doc[t].count(doc) != 0;
    }
    if (!everywhere) continue;
    std::uint32_t tf = 0;
    for (const std::uint32_t p : anchors) {
      bool match = true;
      for (std::size_t t = 1; t < by_doc.size() && match; ++t) {
        const auto& pos = by_doc[t].at(doc);
        if (phrase) {
          match = std::find(pos.begin(), pos.end(),
                            p + static_cast<std::uint32_t>(t)) != pos.end();
        } else {
          match = false;
          for (const std::uint32_t q : pos) {
            const std::uint32_t dist = q > p ? q - p : p - q;
            if (dist <= window) {
              match = true;
              break;
            }
          }
        }
      }
      if (match) ++tf;
    }
    if (tf > 0) out[doc] = tf;
  }
  return out;
}

/// Live docs ranked by (tf desc, doc id asc), cut to k.
std::vector<ScoredDoc> rank_naive(const DocTfs& tfs, std::size_t k,
                                  const TombstoneSet* dead) {
  std::vector<ScoredDoc> hits;
  for (const auto& [doc, tf] : tfs) {
    if (dead != nullptr && dead->contains(doc)) continue;
    hits.push_back({doc, static_cast<double>(tf)});
  }
  std::sort(hits.begin(), hits.end(), [](const ScoredDoc& a, const ScoredDoc& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.doc_id < b.doc_id;
  });
  if (hits.size() > k) hits.resize(k);
  return hits;
}

std::vector<ScoredDoc> naive_positional(
    const std::vector<std::optional<QueryPostings>>& lists, bool phrase,
    std::uint32_t window, std::size_t k, const TombstoneSet* dead) {
  return rank_naive(naive_positional_tfs(lists, phrase, window), k, dead);
}

/// Set-based evaluation of any tree under query_ast.hpp's tf rules: AND
/// keeps docs in every child and sums their tfs, OR/bag keep docs in any
/// child and sum the tfs of the children holding them, PHRASE/NEAR count
/// matches. Every node is evaluated in full over decoded lists, so it
/// shares nothing with the cursor operators.
template <typename Fetch>
DocTfs naive_tree(const QueryNode& node, Fetch& fetch) {
  switch (node.op) {
    case QueryOp::kTerm: {
      DocTfs out;
      const std::optional<QueryPostings> list = fetch(node.term);
      if (list.has_value()) {
        for (std::size_t i = 0; i < list->doc_ids.size(); ++i) {
          out[list->doc_ids[i]] = list->tfs[i];
        }
      }
      return out;
    }
    case QueryOp::kPhrase:
    case QueryOp::kNear: {
      std::vector<std::optional<QueryPostings>> lists;
      for (const auto& term : node.terms) lists.push_back(fetch(term));
      return naive_positional_tfs(lists, node.op == QueryOp::kPhrase, node.window);
    }
    case QueryOp::kAnd: {
      DocTfs acc = naive_tree(node.children.front(), fetch);
      for (std::size_t c = 1; c < node.children.size(); ++c) {
        const DocTfs part = naive_tree(node.children[c], fetch);
        DocTfs both;
        for (const auto& [doc, tf] : acc) {
          const auto it = part.find(doc);
          if (it != part.end()) both[doc] = tf + it->second;
        }
        acc = std::move(both);
      }
      return acc;
    }
    default: {  // kBag, kOr
      DocTfs acc;
      for (const auto& child : node.children) {
        for (const auto& [doc, tf] : naive_tree(child, fetch)) acc[doc] += tf;
      }
      return acc;
    }
  }
}

void expect_hits_equal(const std::vector<ScoredDoc>& got,
                       const std::vector<ScoredDoc>& want, const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].doc_id, want[i].doc_id) << label << " rank " << i;
    EXPECT_EQ(got[i].score, want[i].score) << label << " rank " << i;
  }
}

/// Mixed phrase/NEAR workload: half the operand groups come from adjacent
/// tokens of real documents (likely to match), half from random vocabulary
/// draws (mostly Bloom-rejected misses).
std::vector<Query> positional_workload(std::mt19937& rng,
                                       const std::vector<Document>& docs,
                                       const std::vector<std::string>& vocab,
                                       std::size_t count) {
  const auto adjacent_pair = [&]() -> std::vector<std::string> {
    for (int attempt = 0; attempt < 64; ++attempt) {
      const auto& body = docs[rng() % docs.size()].body;
      std::vector<std::string> tokens;
      std::string token;
      for (const char c : body) {
        if (c == ' ' || c == '\n' || c == '\t') {
          if (!token.empty()) tokens.push_back(std::move(token));
          token.clear();
        } else {
          token += c;
        }
      }
      if (!token.empty()) tokens.push_back(std::move(token));
      if (tokens.size() < 2) continue;
      const std::size_t at = rng() % (tokens.size() - 1);
      const auto a = normalize_term(tokens[at]);
      const auto b = normalize_term(tokens[at + 1]);
      if (!a.empty() && !b.empty()) return {a, b};
    }
    return {vocab[rng() % vocab.size()], vocab[rng() % vocab.size()]};
  };
  std::vector<Query> queries;
  for (std::size_t i = 0; i < count; ++i) {
    std::vector<std::string> terms =
        i % 2 == 0 ? adjacent_pair()
                   : std::vector<std::string>{vocab[rng() % vocab.size()],
                                              vocab[rng() % vocab.size()]};
    if (i % 5 == 4) terms.push_back(vocab[rng() % vocab.size()]);
    queries.push_back(i % 3 == 2 ? Query::near(std::move(terms), 1 + i % 4)
                                 : Query::phrase(std::move(terms)));
  }
  return queries;
}

/// Runs every query through `searcher` and diffs against the oracle fed by
/// `fetch` (raw positional lists) + `dead` (tombstones). `total_hits`
/// accumulates matches so callers can assert the workload was not all
/// misses.
template <typename Fetch>
void expect_matches_naive(const SearchBackend& searcher,
                          const std::vector<Query>& queries, Fetch&& fetch,
                          const TombstoneSet* dead, const std::string& label,
                          std::size_t& total_hits) {
  for (const Query& q : queries) {
    QueryRequest request;
    request.query = q;
    request.k = 1000;  // deep k: compare the full result set
    request.use_result_cache = false;
    const auto r = searcher.search(request);
    ASSERT_TRUE(r.has_value()) << label << ": " << r.error().to_string();
    const auto& node = q.root();
    std::vector<std::optional<QueryPostings>> lists;
    for (const auto& term : node.terms) lists.push_back(fetch(term));
    const auto want = naive_positional(lists, node.op == QueryOp::kPhrase,
                                       node.window, request.k, dead);
    expect_hits_equal(r.value().hits, want, label + " '" + q.to_string() + "'");
    if (::testing::Test::HasFatalFailure()) return;
    total_hits += r.value().hits.size();
  }
}

/// Runs `count` random_query(rng, vocab, 2) trees whose root is not ranked
/// (term and bag roots rank by BM25) through every searcher at k = 1000
/// and diffs each against naive_tree over `fetch` + `dead`. `total_hits`
/// accumulates matches so callers can assert the workload was not all
/// misses.
template <typename Fetch>
void expect_trees_match_naive(const std::vector<const SearchBackend*>& searchers,
                              const std::vector<std::string>& vocab, std::uint32_t seed,
                              int count, Fetch&& fetch, const TombstoneSet* dead,
                              const std::string& label, std::size_t& total_hits) {
  std::mt19937 rng(seed);
  int run = 0;
  while (run < count) {
    const Query q = random_query(rng, vocab, 2);
    if (q.root().op == QueryOp::kTerm || q.root().op == QueryOp::kBag) continue;
    ++run;
    QueryRequest request;
    request.query = q;
    request.k = 1000;
    request.use_result_cache = false;
    const auto want = rank_naive(naive_tree(q.root(), fetch), request.k, dead);
    for (std::size_t s = 0; s < searchers.size(); ++s) {
      const auto r = searchers[s]->search(request);
      ASSERT_TRUE(r.has_value()) << label << ": " << r.error().to_string();
      expect_hits_equal(r.value().hits, want,
                        label + "/" + std::to_string(s) + " '" + q.to_string() + "'");
      if (::testing::Test::HasFatalFailure()) return;
    }
    total_hits += want.size();
  }
}

/// The `n` terms with the longest lists, then `n / 2` from further down
/// the df order: random trees over them mix long multi-block lists (which
/// match often) with shorter ones (which drive intersections).
std::vector<std::string> tree_vocabulary(std::vector<std::pair<std::uint64_t, std::string>> by_df,
                                         std::size_t n) {
  std::sort(by_df.begin(), by_df.end(), [](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first > b.first;
    return a.second < b.second;
  });
  std::vector<std::string> vocab;
  for (std::size_t i = 0; i < by_df.size() && vocab.size() < n; ++i) {
    vocab.push_back(by_df[i].second);
  }
  for (std::size_t i = 4 * n; i < by_df.size() && vocab.size() < n + n / 2; ++i) {
    vocab.push_back(by_df[i].second);
  }
  return vocab;
}

// ------------------------------------------------- batch index equivalence

class BatchPositionalFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    corpus_dir_ = new TempDir("bcorpus");
    index_dir_ = new TempDir("bindex");
    corpus_ = new Corpus(make_corpus(corpus_dir_->path(), 128 << 10, 0xA57));
    IndexBuilder builder;
    builder.parsers(1).cpu_indexers(1).emit_segment(true);
    builder.config().parser.record_positions = true;
    builder.build(corpus_->files, index_dir_->path());
  }
  static void TearDownTestSuite() {
    delete corpus_;
    delete index_dir_;
    delete corpus_dir_;
    corpus_ = nullptr;
    index_dir_ = nullptr;
    corpus_dir_ = nullptr;
  }
  static inline TempDir* corpus_dir_ = nullptr;
  static inline TempDir* index_dir_ = nullptr;
  static inline Corpus* corpus_ = nullptr;
};

TEST_F(BatchPositionalFixture, PhraseAndNearMatchNaiveJoin) {
  const auto index = InvertedIndex::open(index_dir_->path(), {}).value();
  std::vector<std::string> vocab;
  index.for_each_term([&vocab](std::string_view t) { vocab.emplace_back(t); });
  ASSERT_FALSE(vocab.empty());
  const auto searcher = Searcher::open(SearchSource::batch(index)).value();

  std::mt19937 rng(0xF00);
  const auto queries = positional_workload(rng, corpus_->docs, vocab, 60);
  std::size_t hits = 0;
  expect_matches_naive(
      *searcher, queries,
      [&index](const std::string& term) { return index.lookup_positional(term); },
      /*dead=*/nullptr, "batch", hits);
  // Half the workload is built from adjacent document tokens -- a zero
  // here means the positional path found nothing at all.
  EXPECT_GT(hits, 0u);
}

TEST_F(BatchPositionalFixture, NonPositionalIndexRejectsPhrase) {
  TempDir plain_dir("plain");
  IndexBuilder builder;
  builder.parsers(1).cpu_indexers(1).emit_segment(true);  // no positions
  builder.build(corpus_->files, plain_dir.path());
  const auto index = InvertedIndex::open(plain_dir.path(), {}).value();
  const auto searcher = Searcher::open(SearchSource::batch(index)).value();

  // Pick a term pair that co-occurs in some document so the intersection
  // survives to the positional verify. Stop words are stripped at indexing
  // but not by normalize_term, so only keep tokens the index knows about —
  // an absent term short-circuits the conjunction before the verify runs.
  std::vector<std::string> tokens;
  std::string token;
  for (const char c : corpus_->docs.front().body) {
    if (c == ' ' || c == '\n') {
      if (!token.empty()) tokens.push_back(std::move(token));
      token.clear();
    } else {
      token += c;
    }
  }
  if (!token.empty()) tokens.push_back(std::move(token));
  ASSERT_GE(tokens.size(), 2u);
  std::vector<std::string> pair;
  for (const auto& t : tokens) {
    const auto n = normalize_term(t);
    if (!n.empty() && (pair.empty() || n != pair.front()) &&
        index.lookup(n).has_value()) {
      pair.push_back(n);
    }
    if (pair.size() == 2) break;
  }
  ASSERT_EQ(pair.size(), 2u);

  QueryRequest request;
  request.query = Query::phrase(pair);
  const auto r = searcher->search(request);
  ASSERT_FALSE(r.has_value());
  EXPECT_EQ(r.error().code, ErrorCode::kInvalidArgument);
}

// ------------------------------------------------- nested trees, batch

/// A batch index large enough that frequent terms span several postings
/// blocks, so nested operators have blocks to skip.
class NestedBatchFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    corpus_dir_ = new TempDir("ncorpus");
    index_dir_ = new TempDir("nindex");
    corpus_ = new Corpus(make_corpus(corpus_dir_->path(), 1 << 20, 0x7EE));
    IndexBuilder builder;
    builder.parsers(1).cpu_indexers(1).emit_segment(true);
    builder.config().parser.record_positions = true;
    builder.build(corpus_->files, index_dir_->path());
  }
  static void TearDownTestSuite() {
    delete corpus_;
    delete index_dir_;
    delete corpus_dir_;
    corpus_ = nullptr;
    index_dir_ = nullptr;
    corpus_dir_ = nullptr;
  }
  static std::vector<std::pair<std::uint64_t, std::string>> terms_by_df(
      const InvertedIndex& index) {
    std::vector<std::pair<std::uint64_t, std::string>> by_df;
    index.for_each_term([&](std::string_view t) {
      const auto cursor = index.open_cursor(t);
      if (cursor != nullptr) by_df.emplace_back(cursor->size(), std::string(t));
    });
    return by_df;
  }
  static inline TempDir* corpus_dir_ = nullptr;
  static inline TempDir* index_dir_ = nullptr;
  static inline Corpus* corpus_ = nullptr;
};

TEST_F(NestedBatchFixture, RandomTreesMatchNaiveWithBloomOnAndOff) {
  const auto index = InvertedIndex::open(index_dir_->path(), {}).value();
  const auto vocab = tree_vocabulary(terms_by_df(index), 12);
  ASSERT_GE(vocab.size(), 12u);
  SearcherOptions without_blooms;
  without_blooms.use_bloom_filters = false;
  const auto filtered = Searcher::open(SearchSource::batch(index)).value();
  const auto unfiltered =
      Searcher::open(SearchSource::batch(index), without_blooms).value();
  std::size_t hits = 0;
  expect_trees_match_naive(
      {filtered.get(), unfiltered.get()}, vocab, 0x7EE5, 150,
      [&index](const std::string& term) { return index.lookup_positional(term); },
      /*dead=*/nullptr, "batch", hits);
  EXPECT_GT(hits, 0u);
}

TEST_F(NestedBatchFixture, NestedTreesSkipBlocks) {
  // A rare term drives an intersection whose other operand is an OR (or a
  // phrase beside an OR) over the two longest lists. Its first document
  // lies beyond both long lists' first block, so seeking the OR to it must
  // pass those blocks without decoding them.
  const auto index = InvertedIndex::open(index_dir_->path(), {}).value();
  auto by_df = terms_by_df(index);
  std::sort(by_df.begin(), by_df.end(), [](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first > b.first;
    return a.second < b.second;
  });
  ASSERT_GE(by_df.size(), 3u);
  const std::string& b = by_df[0].second;
  const std::string& c = by_df[1].second;
  const std::string& d = by_df[2].second;
  ASSERT_GT(by_df[1].first, 2u * kPostingsBlockSize);
  const auto first_block_end = [&index](const std::string& term) {
    return index.open_cursor(term)->block_last_doc();
  };
  const std::uint32_t past = std::max(first_block_end(b), first_block_end(c));
  std::string rare;
  for (auto it = by_df.rbegin(); it != by_df.rend() && rare.empty(); ++it) {
    auto cursor = index.open_cursor(it->second);
    cursor->seek(0);
    if (cursor->docid() > past) rare = it->second;
  }
  ASSERT_FALSE(rare.empty());

  const auto searcher = Searcher::open(SearchSource::batch(index)).value();
  const Query b_or_c = Query::or_of({Query::term(b), Query::term(c)});
  for (const Query& q : {Query::and_of({Query::term(rare), b_or_c}),
                         Query::and_of({b_or_c, Query::phrase({rare, d})})}) {
    const auto before = searcher->metrics().snapshot().counter("search_blocks_skipped_total");
    QueryRequest request;
    request.query = q;
    request.use_result_cache = false;
    const auto r = searcher->search(request);
    ASSERT_TRUE(r.has_value()) << r.error().to_string();
    EXPECT_GT(searcher->metrics().snapshot().counter("search_blocks_skipped_total"), before)
        << q.to_string();
  }
}

// ------------------------------------------------- live tier equivalence

TEST(LivePositional, PhraseAndNearMatchNaiveJoinAcrossMutations) {
  TempDir corpus_dir("lcorpus");
  TempDir live_dir("llive");
  const auto corpus = make_corpus(corpus_dir.path(), 96 << 10, 0x11FE);

  IndexWriterOptions opts;
  opts.flush_threshold_bytes = 0;
  opts.background_compaction = false;
  opts.parser.record_positions = true;
  auto w = IndexWriter::open(live_dir.path(), opts).value();

  // Ingest with random flush points and interleaved deletes; leave a tail
  // of memtable-resident documents so the unflushed path is exercised.
  std::mt19937 rng(0x11FE);
  std::vector<std::uint32_t> live_ids;
  for (std::size_t i = 0; i < corpus.docs.size(); ++i) {
    live_ids.push_back(w.add_document(corpus.docs[i].url, corpus.docs[i].body));
    const auto roll = rng() % 17;
    if (roll == 0 && i + 8 < corpus.docs.size()) {
      ASSERT_TRUE(w.flush().has_value());
    } else if (roll == 1 && !live_ids.empty()) {
      const std::size_t victim = rng() % live_ids.size();
      ASSERT_TRUE(w.delete_document(live_ids[victim]).has_value());
      live_ids.erase(live_ids.begin() + static_cast<std::ptrdiff_t>(victim));
    }
  }

  const auto searcher =
      Searcher::open(SearchSource::live([&w] { return w.snapshot(); })).value();
  std::vector<std::string> vocab;
  w.snapshot()->for_each_term([&vocab](std::string_view t) {
    vocab.emplace_back(t);
    return true;
  });
  ASSERT_FALSE(vocab.empty());

  const auto run = [&](const std::string& label) {
    const auto snap = w.snapshot();
    std::mt19937 qrng(0xBEA7);
    const auto queries = positional_workload(qrng, corpus.docs, vocab, 60);
    std::size_t hits = 0;
    expect_matches_naive(
        *searcher, queries,
        [&snap](const std::string& term) { return snap->lookup(term); },
        snap->tombstones(), label, hits);
    EXPECT_GT(hits, 0u) << label;
  };

  run("live+memtable");  // segments + unflushed tail + tombstones

  ASSERT_TRUE(w.flush().has_value());
  ASSERT_TRUE(w.compact_now().has_value());
  run("post-compaction");  // reclaim rewrote segments and .blm sidecars
}

TEST(LiveNested, RandomTreesMatchNaiveAcrossMutationsWithBloomOnAndOff) {
  TempDir corpus_dir("ntcorpus");
  TempDir live_dir("ntlive");
  const auto corpus = make_corpus(corpus_dir.path(), 96 << 10, 0x7AEE);

  IndexWriterOptions opts;
  opts.flush_threshold_bytes = 0;
  opts.background_compaction = false;
  opts.parser.record_positions = true;
  auto w = IndexWriter::open(live_dir.path(), opts).value();
  std::mt19937 rng(0x7AEE);
  std::vector<std::uint32_t> live_ids;
  for (std::size_t i = 0; i < corpus.docs.size(); ++i) {
    live_ids.push_back(w.add_document(corpus.docs[i].url, corpus.docs[i].body));
    const auto roll = rng() % 13;
    if (roll == 0 && i + 8 < corpus.docs.size()) {
      ASSERT_TRUE(w.flush().has_value());
    } else if (roll == 1 && !live_ids.empty()) {
      const std::size_t victim = rng() % live_ids.size();
      ASSERT_TRUE(w.delete_document(live_ids[victim]).has_value());
      live_ids.erase(live_ids.begin() + static_cast<std::ptrdiff_t>(victim));
    }
  }

  SearcherOptions without_blooms;
  without_blooms.use_bloom_filters = false;
  const auto filtered =
      Searcher::open(SearchSource::live([&w] { return w.snapshot(); })).value();
  const auto unfiltered =
      Searcher::open(SearchSource::live([&w] { return w.snapshot(); }), without_blooms)
          .value();

  const auto run = [&](const std::string& label) {
    const auto snap = w.snapshot();
    std::vector<std::pair<std::uint64_t, std::string>> by_df;
    snap->for_each_term([&](std::string_view t) {
      const auto cursor = snap->open_cursor(t);
      if (cursor != nullptr) by_df.emplace_back(cursor->size(), std::string(t));
      return true;
    });
    std::size_t hits = 0;
    expect_trees_match_naive(
        {filtered.get(), unfiltered.get()}, tree_vocabulary(std::move(by_df), 12), 0x7AE5,
        120, [&snap](const std::string& term) { return snap->lookup(term); },
        snap->tombstones(), label, hits);
    EXPECT_GT(hits, 0u) << label;
  };

  run("live+memtable");  // segments + unflushed tail + tombstones

  ASSERT_TRUE(w.flush().has_value());
  ASSERT_TRUE(w.compact_now().has_value());
  run("post-compaction");
}

// ------------------------------------------------- bloom on/off identity

TEST(BloomIdentity, ConjunctionsBitIdenticalWithFiltersOff) {
  TempDir corpus_dir("blcorpus");
  TempDir live_dir("bllive");
  const auto corpus = make_corpus(corpus_dir.path(), 96 << 10, 0xB100);

  IndexWriterOptions opts;
  opts.flush_threshold_bytes = 0;
  opts.background_compaction = false;
  opts.parser.record_positions = true;
  auto w = IndexWriter::open(live_dir.path(), opts).value();
  for (std::size_t i = 0; i < corpus.docs.size(); ++i) {
    w.add_document(corpus.docs[i].url, corpus.docs[i].body);
    if (i % 40 == 39) {  // several segments, so chains hold several links
      ASSERT_TRUE(w.flush().has_value());
    }
  }
  ASSERT_TRUE(w.flush().has_value());

  SearcherOptions with_blooms;
  with_blooms.use_bloom_filters = true;
  SearcherOptions without_blooms;
  without_blooms.use_bloom_filters = false;
  const auto filtered =
      Searcher::open(SearchSource::live([&w] { return w.snapshot(); }), with_blooms)
          .value();
  const auto unfiltered =
      Searcher::open(SearchSource::live([&w] { return w.snapshot(); }),
                     without_blooms)
          .value();

  std::vector<std::string> vocab;
  w.snapshot()->for_each_term([&vocab](std::string_view t) {
    vocab.emplace_back(t);
    return true;
  });
  ASSERT_GT(vocab.size(), 4u);

  std::mt19937 rng(0xB10F);
  for (int i = 0; i < 80; ++i) {
    std::vector<std::string> terms;
    for (std::size_t t = 0; t < 2 + rng() % 2; ++t) {
      terms.push_back(vocab[rng() % vocab.size()]);
    }
    QueryRequest request;
    request.query = i % 4 == 3 ? Query::phrase(terms) : Query::conjunction(terms);
    request.k = 50;
    request.use_result_cache = false;
    const auto a = filtered->search(request);
    const auto b = unfiltered->search(request);
    ASSERT_TRUE(a.has_value()) << a.error().to_string();
    ASSERT_TRUE(b.has_value()) << b.error().to_string();
    expect_hits_equal(a.value().hits, b.value().hits,
                      "bloom '" + request.query.to_string() + "'");
  }
  // Filters must only move the rejection counter, never the answers above.
  EXPECT_GT(filtered->metrics().snapshot().counter("search_blooms_rejected_total"), 0u);
  EXPECT_EQ(unfiltered->metrics().snapshot().counter("search_blooms_rejected_total"),
            0u);
}

}  // namespace
}  // namespace hetindex
