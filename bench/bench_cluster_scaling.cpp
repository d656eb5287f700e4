/// \file bench_cluster_scaling.cpp
/// Serving-cluster scaling sweep (docs/CLUSTER.md, not a paper table): QPS
/// and latency percentiles of the ShardRouter versus shard count, for each
/// partition strategy. The interesting comparison is the strategies' cost
/// shapes — document/block pay a stats probe plus full fan-out on every
/// ranked query, term partitioning pays central scoring but touches only
/// the query's owner shards. Writes BENCH_cluster.json (path overridable
/// via HETINDEX_BENCH_JSON) — scripts/tier1.sh archives it next to the
/// build tree.

#include <algorithm>
#include <random>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "obs/json.hpp"
#include "util/timer.hpp"

using namespace hetindex;
using namespace hetindex::bench;

namespace {

struct Row {
  PartitionStrategy strategy = PartitionStrategy::kDocument;
  std::uint32_t shards = 0;
  double ingest_docs_per_s = 0;
  double qps = 0;
  double p50_us = 0, p99_us = 0;
  std::size_t failed = 0;  ///< measured queries that errored or came back partial
};

double pct(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v[std::min(v.size() - 1, static_cast<std::size_t>(q * v.size()))] * 1e6;
}

}  // namespace

int main() {
  banner("Serving cluster: QPS / latency vs shard count per partitioner",
         "scatter-gather serving over the §III inverted files (not a paper table)");

  CollectionSpec spec = wikipedia_like();
  spec.total_bytes = static_cast<std::uint64_t>(4.0 * (1 << 20) * scale());
  const auto coll = cached_collection(spec);
  std::vector<Document> docs;
  for (const auto& path : coll.paths()) {
    for (auto& doc : container_read(path)) docs.push_back(std::move(doc));
  }
  std::printf("corpus: %zu docs, %.1f MB compressed\n\n", docs.size(),
              static_cast<double>(coll.total_compressed()) / (1 << 20));

  std::printf("%-10s %7s %14s %10s %12s %12s %7s\n", "strategy", "shards",
              "ingest dps", "qps", "p50 us", "p99 us", "failed");
  row_sep(80);

  std::vector<Row> rows;
  bool ok = true;
  for (const auto strategy :
       {PartitionStrategy::kDocument, PartitionStrategy::kTerm,
        PartitionStrategy::kBlock}) {
    for (const std::uint32_t shards : {1u, 2u, 4u}) {
      const std::string dir = bench_dir() + "/cluster_" +
                              std::string(partition_strategy_name(strategy)) + "_" +
                              std::to_string(shards);
      std::filesystem::remove_all(dir);
      ClusterOptions copts;
      copts.strategy = strategy;
      copts.shards = shards;
      auto cluster = Cluster::open(dir, copts).value();

      const WallTimer ingest_timer;
      for (const auto& doc : docs) (void)cluster.add_document(doc.url, doc.body);
      if (auto flushed = cluster.flush(); !flushed) {
        std::printf("FAIL: flush: %s\n", flushed.error().to_string().c_str());
        return 1;
      }
      const double ingest_s = ingest_timer.seconds();

      // Query terms from shard 0's committed vocabulary (for document and
      // block partitioning a subset of the union vocabulary — fine: these
      // are representative query terms, not an exhaustive sweep).
      std::vector<std::string> vocab;
      cluster.shard(0).writer().snapshot()->for_each_term(
          [&vocab](std::string_view t) {
            vocab.emplace_back(t);
            return vocab.size() < 4096;
          });
      std::mt19937 rng(17);
      std::uniform_int_distribution<std::size_t> pick(0, vocab.size() - 1);
      std::vector<std::vector<std::string>> queries;
      for (std::size_t q = 0; q < 64; ++q) {
        std::vector<std::string> terms;
        for (std::size_t t = 0; t < 1 + q % 4; ++t) terms.push_back(vocab[pick(rng)]);
        queries.push_back(std::move(terms));
      }

      // Pass 0 warms the caches and is not timed; QPS counts the measured
      // passes' complete answers over their own time only. A degraded or
      // partial answer is a failure, not a fast success.
      const auto router = cluster.make_router();
      std::vector<double> lat;
      std::size_t failed = 0;
      double serve_s = 0;
      for (int pass = 0; pass < 4; ++pass) {
        const WallTimer pass_timer;
        for (const auto& terms : queries) {
          QueryRequest request;
          request.query = Query::bag(terms);
          request.k = 10;
          request.use_result_cache = false;
          const WallTimer t;
          const auto response = router->search(request);
          const double took = t.seconds();
          if (pass == 0) continue;
          if (response.has_value() && !response.value().degraded() &&
              response.value().shards_answered == response.value().shards_total) {
            lat.push_back(took);
          } else {
            ++failed;
          }
        }
        if (pass > 0) serve_s += pass_timer.seconds();
      }

      Row row;
      row.strategy = strategy;
      row.shards = shards;
      row.ingest_docs_per_s = static_cast<double>(docs.size()) / std::max(ingest_s, 1e-9);
      row.qps = static_cast<double>(lat.size()) / std::max(serve_s, 1e-9);
      row.p50_us = pct(lat, 0.50);
      row.p99_us = pct(lat, 0.99);
      row.failed = failed;
      std::printf("%-10s %7u %14.0f %10.0f %12.1f %12.1f %7zu\n",
                  partition_strategy_name(strategy), shards, row.ingest_docs_per_s,
                  row.qps, row.p50_us, row.p99_us, row.failed);
      if (lat.empty() || row.qps <= 0 || failed > 0) {
        std::printf("FAIL: %zu of %zu measured queries failed or came back partial "
                    "(%s, %u shards)\n",
                    failed, failed + lat.size(), partition_strategy_name(strategy), shards);
        ok = false;
      }
      rows.push_back(row);
      std::filesystem::remove_all(dir);
    }
  }

  // Machine-readable summary (consumed by CI trend tooling).
  std::string json = "{\n  \"bench\": \"cluster_scaling\",\n  \"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& r = rows[i];
    json += std::string("    {\"strategy\": \"") + partition_strategy_name(r.strategy) +
            "\", \"shards\": " + std::to_string(r.shards) +
            ", \"ingest_docs_per_s\": " + obs::json_number(r.ingest_docs_per_s) +
            ", \"qps\": " + obs::json_number(r.qps) +
            ", \"p50_us\": " + obs::json_number(r.p50_us) +
            ", \"p99_us\": " + obs::json_number(r.p99_us) +
            ", \"failed\": " + std::to_string(r.failed) + "}";
    json += (i + 1 < rows.size()) ? ",\n" : "\n";
  }
  json += "  ]\n}\n";
  const char* out = std::getenv("HETINDEX_BENCH_JSON");
  const std::string json_path = out != nullptr ? out : "BENCH_cluster.json";
  write_file(json_path, std::vector<std::uint8_t>(json.begin(), json.end()));
  std::printf("\nwrote %s\n", json_path.c_str());
  return ok ? 0 : 1;
}
