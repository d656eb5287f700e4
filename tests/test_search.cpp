// Tests for the search-serving layer built on the inverted files: the
// doc map (Fig. 3 Step 1's <doc ID, location> table) and BM25 ranking
// through the Searcher facade (the old bm25_query free function is gone;
// test_search_service.cpp covers the facade's serving behaviour).

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>

#include "core/hetindex.hpp"
#include "corpus/container.hpp"
#include "postings/doc_map.hpp"
#include "postings/ranking.hpp"
#include "search/searcher.hpp"

namespace hetindex {
namespace {

/// Ranked search via the facade, returning just the hits — the shape the
/// old bm25_query helper had, so the ranking assertions read unchanged.
std::vector<ScoredDoc> ranked(const InvertedIndex& index, const DocMap& map,
                              std::vector<std::string> terms, std::size_t k) {
  const auto searcher_ptr = Searcher::open(SearchSource::batch(index, map)).value();
  const Searcher& searcher = *searcher_ptr;
  QueryRequest request;
  request.query = Query::bag(std::move(terms));
  request.k = k;
  auto r = searcher.search(request);
  if (!r.has_value()) return {};
  return std::move(r.value().hits);
}

TEST(DocMapUnit, BuildWriteReadRoundTrip) {
  const auto path =
      (std::filesystem::temp_directory_path() / "hetindex_docmap.bin").string();
  DocMapBuilder builder;
  builder.add_file(0, 0, {"http://a/0", "http://a/1"}, {10, 20});
  builder.add_file(2, 1, {"http://b/0"}, {30});
  EXPECT_EQ(builder.doc_count(), 3u);
  builder.write(path);

  const auto map = DocMap::open(path);
  ASSERT_EQ(map.doc_count(), 3u);
  EXPECT_EQ(map.location(0).url, "http://a/0");
  EXPECT_EQ(map.location(1).url, "http://a/1");
  EXPECT_EQ(map.location(1).local_id, 1u);
  EXPECT_EQ(map.location(2).url, "http://b/0");
  EXPECT_EQ(map.location(2).file_seq, 1u);
  EXPECT_EQ(map.location(2).token_count, 30u);
  EXPECT_DOUBLE_EQ(map.average_doc_tokens(), 20.0);
  EXPECT_DEATH((void)map.location(3), "range");
  std::filesystem::remove(path);
}

TEST(DocMapUnit, OutOfOrderSpansAreSortedOnWrite) {
  const auto path =
      (std::filesystem::temp_directory_path() / "hetindex_docmap2.bin").string();
  DocMapBuilder builder;
  builder.add_file(1, 1, {"http://later"}, {5});
  builder.add_file(0, 0, {"http://first"}, {5});
  builder.write(path);
  const auto map = DocMap::open(path);
  EXPECT_EQ(map.location(0).url, "http://first");
  EXPECT_EQ(map.location(1).url, "http://later");
  std::filesystem::remove(path);
}

TEST(DocMapUnit, GappySpansDie) {
  const auto path =
      (std::filesystem::temp_directory_path() / "hetindex_docmap3.bin").string();
  DocMapBuilder builder;
  builder.add_file(0, 0, {"a"}, {1});
  builder.add_file(5, 1, {"b"}, {1});  // gap 1..4
  EXPECT_DEATH(builder.write(path), "dense");
}

TEST(Bm25Unit, IdfDecreasesWithDocumentFrequency) {
  EXPECT_GT(bm25_idf(1, 1000), bm25_idf(10, 1000));
  EXPECT_GT(bm25_idf(10, 1000), bm25_idf(500, 1000));
  EXPECT_GE(bm25_idf(1000, 1000), 0.0);  // non-negative even for ubiquitous terms
}

class SearchFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dir_ = (std::filesystem::temp_directory_path() / "hetindex_search").string();
    std::filesystem::create_directories(dir_);
    std::vector<Document> docs = {
        {0, "http://site/short-relevant", "gpu index gpu index"},
        {1, "http://site/long-diluted",
         "gpu index scattered among many many many other unrelated words that "
         "make this document much longer than the short one so length "
         "normalization should punish it relative to the focused document"},
        {2, "http://site/one-term", "gpu only here"},
        {3, "http://site/unrelated", "completely different content entirely"},
    };
    const auto corpus = dir_ + "/c.hdc";
    container_write(corpus, docs);
    IndexBuilder builder;
    builder.parsers(1).cpu_indexers(1).gpus(1).emit_segment(true);
    builder.build({corpus}, dir_ + "/index");
  }
  static void TearDownTestSuite() { std::filesystem::remove_all(dir_); }
  static inline std::string dir_;
};

TEST_F(SearchFixture, PipelineWritesDocMap) {
  const auto map = DocMap::open(doc_map_path(dir_ + "/index"));
  ASSERT_EQ(map.doc_count(), 4u);
  EXPECT_EQ(map.location(0).url, "http://site/short-relevant");
  EXPECT_EQ(map.location(3).url, "http://site/unrelated");
  // Token counts reflect the indexed (post-stop-word) stream.
  EXPECT_EQ(map.location(0).token_count, 4u);
  EXPECT_GT(map.location(1).token_count, map.location(0).token_count);
}

TEST_F(SearchFixture, Bm25RanksFocusedDocFirst) {
  const auto index = InvertedIndex::open(dir_ + "/index", {}).value();
  const auto map = DocMap::open(doc_map_path(dir_ + "/index"));
  const auto hits =
      ranked(index, map, {normalize_term("gpu"), normalize_term("index")}, 10);
  ASSERT_GE(hits.size(), 3u);
  // Doc 0: both terms, tf 2 each, short → top. Doc 3 matches nothing.
  EXPECT_EQ(hits[0].doc_id, 0u);
  EXPECT_GT(hits[0].score, hits[1].score);
  for (const auto& h : hits) EXPECT_NE(h.doc_id, 3u);
  // Docs matching both terms outrank the one-term doc.
  EXPECT_EQ(hits.back().doc_id, 2u);
}

TEST_F(SearchFixture, Bm25LengthNormalizationPunishesDilution) {
  const auto index = InvertedIndex::open(dir_ + "/index", {}).value();
  const auto map = DocMap::open(doc_map_path(dir_ + "/index"));
  const auto hits = ranked(index, map, {normalize_term("gpu")}, 10);
  // All of docs 0,1,2 contain "gpu"; the long diluted doc must not be first.
  ASSERT_EQ(hits.size(), 3u);
  EXPECT_EQ(hits[0].doc_id, 0u);  // tf 2, short doc
  EXPECT_NE(hits[1].doc_id, 1u);  // long doc ranks last
}

TEST_F(SearchFixture, TopKTruncates) {
  const auto index = InvertedIndex::open(dir_ + "/index", {}).value();
  const auto map = DocMap::open(doc_map_path(dir_ + "/index"));
  const auto hits = ranked(index, map, {normalize_term("gpu")}, 1);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].doc_id, 0u);
}

TEST_F(SearchFixture, UnknownTermsScoreNothing) {
  const auto index = InvertedIndex::open(dir_ + "/index", {}).value();
  const auto map = DocMap::open(doc_map_path(dir_ + "/index"));
  EXPECT_TRUE(ranked(index, map, {"zzzznope"}, 10).empty());
  // Termless requests are a caller error now, not a silent empty answer.
  const auto searcher = Searcher::open(SearchSource::batch(index, map)).value();
  QueryRequest empty_request;
  const auto r = searcher->search(empty_request);
  ASSERT_FALSE(r.has_value());
  EXPECT_EQ(r.error().code, ErrorCode::kInvalidArgument);
}

}  // namespace
}  // namespace hetindex
