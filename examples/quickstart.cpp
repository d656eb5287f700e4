/// \file quickstart.cpp
/// Minimal end-to-end tour of the public API: generate a small synthetic
/// collection, build the inverted files with the heterogeneous pipeline,
/// and run a few queries.
///
///   ./quickstart [work_dir]

#include <cstdio>

#include "core/hetindex.hpp"

int main(int argc, char** argv) {
  const std::string work_dir = argc > 1 ? argv[1] : "/tmp/hetindex_quickstart";

  // 1. A document collection. Normally these are your own container files
  //    (corpus/container.hpp shows the format); here we synthesize one.
  auto spec = hetindex::wikipedia_like();
  spec.total_bytes = 4u << 20;
  const auto collection = hetindex::generate_collection(spec, work_dir + "/corpus");
  std::printf("corpus: %llu documents in %zu files\n",
              static_cast<unsigned long long>(collection.total_docs()),
              collection.files.size());

  // 2. Build the inverted files. Defaults follow the paper's best single-
  //    node configuration; tune parsers/indexers to your machine.
  hetindex::IndexBuilder builder;
  builder.parsers(2).cpu_indexers(2).gpus(2).emit_segment(true);  // + serving segment
  const auto report = builder.build(collection.paths(), work_dir + "/index");
  std::printf("indexed %llu tokens into %llu terms in %.2f s (%.1f MB/s)\n",
              static_cast<unsigned long long>(report.tokens),
              static_cast<unsigned long long>(report.terms), report.total_seconds,
              report.throughput_mb_s());

  // The report embeds a metrics snapshot (docs/OBSERVABILITY.md): stage
  // times, queue depths and back-pressure stalls for diagnosing pipelines.
  std::printf("observability: reorder window peaked at %lld blocks; "
              "parsers stalled %.3f s on back-pressure\n",
              static_cast<long long>(
                  report.metrics.gauge("reorder_buffer_depth")
                      ? report.metrics.gauge("reorder_buffer_depth")->max
                      : 0),
              report.metrics.time_seconds("reorder_buffer_producer_stall_seconds_total"));

  // 3. Query. Terms are normalized (lowercase + Porter stem) the same way
  //    the indexer normalized them. The synthetic vocabulary is random, so
  //    we query terms sampled from the dictionary itself, plus a stop word
  //    to show that those were removed at parse time.
  const auto index = hetindex::InvertedIndex::open(work_dir + "/index", {}).value();
  std::vector<std::string> terms;
  index.for_each_term([&](std::string_view t) { terms.emplace_back(t); });
  std::vector<std::string> queries;
  for (std::size_t i = 0; i < terms.size() && queries.size() < 3; i += terms.size() / 3) {
    queries.push_back(terms[i]);
  }
  queries.emplace_back("the");  // stop word → never indexed
  for (const auto& raw : queries) {
    const auto term = hetindex::normalize_term(raw);
    const auto postings = index.lookup(term);
    if (!postings) {
      std::printf("  %-14s -> (stem %-12s) not in the index\n", raw.c_str(), term.c_str());
      continue;
    }
    std::printf("  %-14s -> (stem %-12s) %zu documents, first doc %u (tf %u)\n",
                raw.c_str(), term.c_str(), postings->doc_ids.size(), postings->doc_ids[0],
                postings->tfs[0]);
  }

  // 4. Serve. The Searcher facade answers ranked (BM25, MaxScore-pruned)
  //    and boolean requests, caching finished results across calls; SearchService would put a thread pool and admission
  //    control in front of it (docs/SERVING.md).
  const hetindex::DocMap docs =
      hetindex::DocMap::open(hetindex::doc_map_path(work_dir + "/index"));
  const auto searcher =
      hetindex::Searcher::open(hetindex::SearchSource::batch(index, docs)).value();
  hetindex::QueryRequest request;
  request.query = hetindex::Query::bag({queries[0], queries[1]});
  request.k = 3;
  const auto response = searcher->search(request);
  if (response.has_value()) {
    std::printf("top-%zu for \"%s %s\" (BM25):\n", request.k, queries[0].c_str(),
                queries[1].c_str());
    for (const auto& hit : response.value().hits) {
      std::printf("  doc %-8u score %.3f  %s\n", hit.doc_id, hit.score,
                  docs.location(hit.doc_id).url.c_str());
    }
  }
  return 0;
}
