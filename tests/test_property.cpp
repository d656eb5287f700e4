// Heavier randomized property tests: B-tree differential-fuzzed against
// std::map under mixed workloads, trie-table totality, concurrent index
// readers, and LZ fuzzing over structured random inputs.

#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <thread>

#include "codec/lz.hpp"
#include "core/hetindex.hpp"
#include "corpus/container.hpp"
#include "dict/btree.hpp"
#include "dict/trie_table.hpp"
#include "util/rng.hpp"

namespace hetindex {
namespace {

std::string random_token(Rng& rng, std::size_t max_len, int alphabet) {
  std::string s;
  const std::size_t len = rng.below(max_len + 1);
  for (std::size_t i = 0; i < len; ++i)
    s.push_back(static_cast<char>('a' + rng.below(static_cast<std::uint64_t>(alphabet))));
  return s;
}

class BTreeFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BTreeFuzz, MixedInsertFindMatchesStdMap) {
  // 20k interleaved operations against a model std::map: after every
  // operation the B-tree must agree on membership and stored handles, and
  // at the end on the complete sorted key sequence.
  Rng rng(GetParam());
  Arena arena;
  BTree tree(arena, /*use_cache=*/GetParam() % 2 == 0);
  std::map<std::string, std::uint32_t> model;
  std::uint32_t next_handle = 1;

  for (int op = 0; op < 20000; ++op) {
    const auto key = random_token(rng, 10, 5);  // small alphabet → collisions
    if (rng.below(3) == 0) {
      // find
      const auto* slot = tree.find(key);
      const auto it = model.find(key);
      if (it == model.end()) {
        ASSERT_EQ(slot, nullptr) << "op " << op << " key " << key;
      } else {
        ASSERT_NE(slot, nullptr) << "op " << op << " key " << key;
        ASSERT_EQ(*slot, it->second) << "op " << op << " key " << key;
      }
    } else {
      auto res = tree.find_or_insert(key);
      const auto it = model.find(key);
      if (it == model.end()) {
        ASSERT_TRUE(res.created) << "op " << op;
        *res.postings_slot = next_handle;
        model[key] = next_handle++;
      } else {
        ASSERT_FALSE(res.created) << "op " << op;
        ASSERT_EQ(*res.postings_slot, it->second) << "op " << op;
      }
    }
  }
  ASSERT_EQ(tree.size(), model.size());
  auto it = model.begin();
  tree.for_each([&](std::string_view key, std::uint32_t handle) {
    ASSERT_NE(it, model.end());
    ASSERT_EQ(key, it->first);
    ASSERT_EQ(handle, it->second);
    ++it;
  });
  ASSERT_EQ(it, model.end());
}

INSTANTIATE_TEST_SUITE_P(Seeds, BTreeFuzz, ::testing::Values(1, 2, 3, 4, 5, 6));

TEST(TrieTableProperty, TotalAndConsistentOverRandomTokens) {
  // Every tokenizer-shaped string maps to exactly one collection whose
  // prefix the token actually carries.
  Rng rng(99);
  for (int i = 0; i < 100000; ++i) {
    std::string tok;
    const std::size_t len = 1 + rng.below(12);
    for (std::size_t c = 0; c < len; ++c) {
      const auto kind = rng.below(20);
      if (kind < 16) {
        tok.push_back(static_cast<char>('a' + rng.below(26)));
      } else if (kind < 19) {
        tok.push_back(static_cast<char>('0' + rng.below(10)));
      } else {
        tok.push_back('\xC3');  // UTF-8 lead byte (special letter)
      }
    }
    const auto idx = trie_index(tok);
    ASSERT_LT(idx, kTrieCollections);
    const auto prefix = trie_prefix(idx);
    ASSERT_EQ(tok.substr(0, prefix.size()), prefix) << tok;
    ASSERT_EQ(prefix + std::string(trie_suffix(tok, idx)), tok);
  }
}

TEST(LzFuzz, StructuredRandomRoundTrips) {
  // Mix of runs, repeats-at-distance, and noise — the match-finder's edge
  // cases (overlaps, max-offset boundaries, stored blocks).
  Rng rng(7);
  for (int trial = 0; trial < 15; ++trial) {
    std::vector<std::uint8_t> data;
    const std::size_t target = 1000 + rng.below(200000);
    while (data.size() < target) {
      switch (rng.below(4)) {
        case 0: {  // run
          const std::size_t n = 1 + rng.below(300);
          data.insert(data.end(), n, static_cast<std::uint8_t>(rng()));
          break;
        }
        case 1: {  // copy from earlier (forces matches near kMaxOffset)
          if (data.empty()) break;
          const std::size_t off = 1 + rng.below(std::min<std::size_t>(data.size(), 70000));
          const std::size_t n = 1 + rng.below(100);
          const std::size_t start = data.size() - off;
          for (std::size_t i = 0; i < n; ++i) data.push_back(data[start + i]);
          break;
        }
        default: {  // noise
          const std::size_t n = 1 + rng.below(200);
          for (std::size_t i = 0; i < n; ++i) data.push_back(static_cast<std::uint8_t>(rng()));
        }
      }
    }
    const auto comp = lz_compress(data);
    ASSERT_EQ(lz_decompress(comp), data) << "trial " << trial;
  }
}

TEST(ConcurrentQueries, ManyReadersShareOneIndex) {
  // The query path is const and must be safely shareable across threads —
  // the deployment model for a search node serving an index this library
  // built.
  const auto dir = (std::filesystem::temp_directory_path() / "hetindex_conc").string();
  std::filesystem::create_directories(dir);
  std::vector<Document> docs;
  for (int i = 0; i < 60; ++i) {
    Document d;
    d.local_id = static_cast<std::uint32_t>(i);
    d.body = "shared term" + std::to_string(i % 7) + " filler content";
    docs.push_back(std::move(d));
  }
  const auto corpus = dir + "/c.hdc";
  container_write(corpus, docs);
  IndexBuilder builder;
  builder.parsers(1).cpu_indexers(1).gpus(1).emit_segment(true);
  builder.build({corpus}, dir + "/index");

  const auto index = InvertedIndex::open(dir + "/index", {}).value();
  const auto expected = index.lookup("share");  // stem of "shared"
  ASSERT_TRUE(expected.has_value());
  std::atomic<int> mismatches{0};
  {
    std::vector<std::jthread> readers;
    for (int t = 0; t < 8; ++t) {
      readers.emplace_back([&] {
        for (int i = 0; i < 300; ++i) {
          const auto got = index.lookup("share");
          if (!got || got->doc_ids != expected->doc_ids) ++mismatches;
          const auto ranged = index.lookup_range("share", 10, 40);
          if (!ranged || ranged->doc_ids.empty()) ++mismatches;
        }
      });
    }
  }
  EXPECT_EQ(mismatches.load(), 0);
  std::filesystem::remove_all(dir);
}

TEST(ArenaStress, MillionsOfSmallAllocationsStayAddressable) {
  Arena arena(1 << 16);
  std::vector<std::pair<ArenaOffset, std::uint8_t>> samples;
  Rng rng(13);
  for (std::uint32_t i = 0; i < 2000000; ++i) {
    const std::size_t n = 1 + rng.below(24);
    const ArenaOffset off = arena.allocate(n);
    const auto tag = static_cast<std::uint8_t>(i);
    arena.pointer(off)[0] = tag;
    if (i % 50021 == 0) samples.emplace_back(off, tag);
  }
  for (const auto& [off, tag] : samples) ASSERT_EQ(arena.pointer(off)[0], tag);
}

}  // namespace
}  // namespace hetindex
