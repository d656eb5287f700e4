/// \file cluster_doc4.cpp
/// Workload cluster_doc4: a 4-shard, 1-replica, document-partitioned
/// Cluster loaded in set-up. Ranked and AND queries go through the
/// ShardRouter from a closed loop of 2 client threads. Sampled answers must
/// equal a single-node build of the union corpus, bit for bit. The
/// operation is a routed query; the stored bytes are every shard's
/// directory after the load's flush.
///
/// The traced run times the fan-out's parts directly: the router end to
/// end, each shard's sub-request (result cache off, cluster stats attached,
/// as the router sends it) on a Searcher in place and through the
/// replica's submit hand-off, the stats probe, and the gather left over
/// after the slowest shard.

#include <algorithm>
#include <memory>
#include <optional>
#include <thread>

#include "core/hetindex.hpp"
#include "harness.hpp"
#include "inputs.hpp"

namespace perfbench {
namespace {

using namespace hetindex;

constexpr std::uint64_t kCorpusBytes = 4ull << 20;
constexpr std::uint32_t kShards = 4;
constexpr std::size_t kClients = 2;
constexpr std::size_t kPoolPerClass = 1024;

struct Served {
  std::string dir;
  std::optional<Cluster> cluster;
  std::optional<IndexWriter> unioned;  ///< single-node oracle over the same documents
  std::shared_ptr<ShardRouter> router;
  std::vector<Query> pools[2];  ///< ranked, AND
  std::uint64_t corpus_bytes = 0;
};

std::unique_ptr<Served> set_up(const Args& args) {
  auto s = std::make_unique<Served>();
  IndexWriterOptions writer;
  writer.flush_threshold_bytes = 0;  // one explicit flush after loading
  writer.background_compaction = false;
  ClusterOptions options;
  options.strategy = PartitionStrategy::kDocument;
  options.shards = kShards;
  options.replicas = 1;
  options.writer = writer;
  s->dir = fresh_dir(args, "cluster");
  s->cluster.emplace(Cluster::open(s->dir, options).value());
  s->unioned.emplace(IndexWriter::open(fresh_dir(args, "union"), writer).value());
  for (const auto& doc : wiki_documents(args.seed, kCorpusBytes)) {
    const std::uint32_t id = s->cluster->add_document(doc.url, doc.body);
    HET_CHECK(s->unioned->add_document(doc.url, doc.body) == id);
    s->corpus_bytes += doc.body.size();
  }
  HET_CHECK(s->cluster->flush().has_value());
  HET_CHECK(s->unioned->flush().has_value());
  s->router = s->cluster->make_router();

  const TermDraw terms(snapshot_dfs(*s->unioned->snapshot()));
  Rng rng(args.seed * 15485863 + 5);
  s->pools[0] = query_pool(terms, QueryClass::kRanked, kPoolPerClass, rng);
  s->pools[1] = query_pool(terms, QueryClass::kConjunctive, kPoolPerClass, rng);
  return s;
}

QueryRequest pick(const Served& s, std::uint64_t i, Rng& rng) {
  const auto& pool = s.pools[i % 2];
  QueryRequest request;
  request.query = pool[rng.below(pool.size())];
  return request;
}

bool complete(const Expected<QueryResponse>& r) {
  return r.has_value() && !r.value().degraded() &&
         r.value().shards_answered == r.value().shards_total;
}

/// Sampled router answers must equal the union build's, bit for bit.
void check_answers(const Served& s, std::uint64_t seed, Result& result) {
  const auto oracle =
      Searcher::open(SearchSource::live([w = &*s.unioned] { return w->snapshot(); })).value();
  Rng rng(seed ^ 0xFACE);
  for (std::uint64_t i = 0; i < 64; ++i) {
    QueryRequest request = pick(s, i, rng);
    request.use_result_cache = false;
    const auto got = s.router->search(request);
    const auto want = oracle->search(request);
    bool same = complete(got) && want.has_value() && got.value().shards_total == kShards &&
                got.value().hits.size() == want.value().hits.size();
    for (std::size_t h = 0; same && h < want.value().hits.size(); ++h) {
      same = got.value().hits[h].doc_id == want.value().hits[h].doc_id &&
             got.value().hits[h].score == want.value().hits[h].score;
    }
    result.verify(same, "router answer differs from the union build: " +
                           request.query.to_string());
  }
}

void untraced(const Args& args, Result& result) {
  std::unique_ptr<Served> s;
  SetupTimer setups([&] {
    s.reset();
    s = set_up(args);
  });
  result.env.emplace_back("corpus_bytes", std::to_string(s->corpus_bytes));

  // Closed loop: each client sends its next query when the last returns.
  LatencySet latency[kClients];
  std::vector<std::uint64_t> slice_done[kClients];
  std::vector<double> slice_last[kClients];  ///< seconds from start of a slice's last answer
  const auto start = Clock::now();
  const double slice_s = args.seconds / kWindows;
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Rng rng(args.seed * 31 + c);
      slice_done[c].assign(kWindows, 0);
      slice_last[c].assign(kWindows, 0.0);
      for (std::uint64_t i = c;; i += kClients) {
        const QueryRequest request = pick(*s, i, rng);
        if (seconds_since(start) >= args.seconds) break;
        const auto t0 = Clock::now();
        const auto r = s->router->search(request);
        if (complete(r)) {
          latency[c].ok(elapsed_us(t0));
          const double at = seconds_since(start);
          const auto slice = static_cast<std::size_t>(at / slice_s);
          if (slice < kWindows) {
            ++slice_done[c][slice];
            slice_last[c][slice] = at;
          }
        } else {
          latency[c].failed();
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  LatencySet all;
  std::vector<double> slice_qps;
  for (std::size_t w = 0; w < kWindows; ++w) {
    // Answers over the time from the slice's start to its last answer.
    std::uint64_t done = 0;
    double last = 0;
    for (std::size_t c = 0; c < kClients; ++c) {
      done += slice_done[c][w];
      last = std::max(last, slice_last[c][w]);
    }
    const double span = last - static_cast<double>(w) * slice_s;
    if (span > 0) slice_qps.push_back(static_cast<double>(done) / span);
  }
  for (const auto& l : latency) all.merge(l);
  result.count(all);
  check_answers(*s, args.seed, result);

  result.add("peak_rss_mb", peak_rss_mb(), "MB");
  result.add("ops_per_s", highest(slice_qps), "1/s", all.attempted());
  add_quantile(result, "latency_p50_us", all, 0.50, args.seconds * 1e6);
  add_tail(result, "query", all, args.seconds * 1e6);
  result.add("index_bytes_per_input_byte",
             static_cast<double>(dir_bytes(s->dir)) / static_cast<double>(s->corpus_bytes),
             "ratio");
  setups.finish(result);
}

/// The per-shard sub-request the router sends: the result cache off, and
/// for a ranked query the cluster-wide stats summed from every shard's
/// probe attached. Appends each probe's time to `probe_us`.
QueryRequest shard_request(Served& s, QueryRequest request, std::vector<double>& probe_us,
                           Result& result) {
  request.use_result_cache = false;
  if (request.query.query_class() != QueryClass::kRanked) return request;
  const auto terms = request.query.collect_terms();
  auto stats = std::make_shared<ScatterStats>();
  stats->term_dfs.assign(terms.size(), 0);
  std::uint64_t token_sum = 0;
  std::uint64_t live_docs = 0;
  for (std::uint32_t shard = 0; shard < kShards; ++shard) {
    const auto t0 = Clock::now();
    const auto probe = s.cluster->shard(shard).replica(0).probe_stats(terms);
    probe_us.push_back(elapsed_us(t0));
    result.check(probe.has_value(), "a shard stats probe failed");
    if (!probe.has_value()) continue;
    stats->n_docs += probe->n_docs;
    token_sum += probe->token_sum;
    live_docs += probe->live_docs;
    for (std::size_t t = 0; t < terms.size(); ++t) stats->term_dfs[t] += probe->term_dfs[t];
  }
  stats->avgdl =
      live_docs == 0 ? 0.0 : static_cast<double>(token_sum) / static_cast<double>(live_docs);
  request.scatter = std::move(stats);
  return request;
}

void traced(const Args& args, Result& result) {
  const auto s = set_up(args);
  result.env.emplace_back("corpus_bytes", std::to_string(s->corpus_bytes));
  // "Direct" is a Searcher of each shard's own over the shard writer's
  // snapshot, called on this thread; the replica's submit + get runs the
  // same sub-request through the replica's admission pool, so the two
  // differ by the cross-thread hand-off.
  std::vector<std::shared_ptr<Searcher>> direct_searchers;
  for (std::uint32_t shard = 0; shard < kShards; ++shard) {
    direct_searchers.push_back(
        Searcher::open(SearchSource::live([w = s->cluster->shard(shard).shared_writer()] {
          return w->snapshot();
        })).value());
  }
  std::vector<double> router_us, replica_max_us, submit_us, probe_us, gather_us, straggler;
  LatencySet ops;
  Rng rng(args.seed * 31);
  const auto start = Clock::now();
  for (std::uint64_t i = 0; seconds_since(start) < args.seconds; ++i) {
    const QueryRequest request = pick(*s, i, rng);
    auto t0 = Clock::now();
    const auto routed = s->router->search(request);
    const double routed_us = elapsed_us(t0);
    if (!complete(routed)) {
      ops.failed();
      continue;
    }
    ops.ok(routed_us);
    router_us.push_back(routed_us);

    const QueryRequest sub = shard_request(*s, request, probe_us, result);
    std::vector<double> shard_us;
    for (std::uint32_t shard = 0; shard < kShards; ++shard) {
      t0 = Clock::now();
      const auto direct = direct_searchers[shard]->search(sub);
      shard_us.push_back(elapsed_us(t0));
      t0 = Clock::now();
      const auto handed = s->cluster->shard(shard).replica(0).submit(sub, std::nullopt).get();
      submit_us.push_back(elapsed_us(t0));
      result.check(direct.has_value() && handed.has_value(), "a direct shard call failed");
    }
    const double slowest = *std::max_element(shard_us.begin(), shard_us.end());
    replica_max_us.push_back(slowest);
    gather_us.push_back(routed_us - slowest);
    straggler.push_back(slowest / std::max(median(shard_us), 1e-3));
  }
  result.count(ops);
  check_answers(*s, args.seed, result);
  result.add("cluster.router_us", median(router_us), "us", router_us.size());
  result.add("cluster.replica_search_us", median(replica_max_us), "us", replica_max_us.size());
  result.add("cluster.replica_submit_us", median(submit_us), "us", submit_us.size());
  result.add("cluster.probe_stats_us", median(probe_us), "us", probe_us.size());
  result.add("cluster.gather_us", median(gather_us), "us", gather_us.size());
  result.add("cluster.straggler_ratio", median(straggler), "ratio", straggler.size());
}

}  // namespace

void run_cluster_doc4(const Args& args, Result& result) {
  if (args.trace) {
    traced(args, result);
  } else {
    untraced(args, result);
  }
}

}  // namespace perfbench
