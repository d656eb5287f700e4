#pragma once
/// \file shard.hpp
/// One shard of the serving cluster: the shard's IndexWriter (its slice of
/// the corpus, a normal live directory) plus R ShardReplicas — independent
/// Searchers (own caches) over the shard's data. In this in-process cluster
/// the replicas share the writer's committed state the way real replicas
/// share a replicated log; what is replicated is the failure domain: each
/// replica has its own caches to warm and its own fault switches
/// (set_down / force_shed) for the router's failover machinery to react
/// to. Replicas own no threads and no admission queue: a replica call runs
/// on the caller's thread, and admission belongs to whatever pool sits in
/// front of the router (the CLI's `serve` puts a SearchService there).
///
/// The router talks to a replica through three verbs:
///   run()            a ranked/boolean sub-request with a budget slice
///   probe_stats()    the exact-integer stats ingredients of ScatterStats
///   fetch_postings() raw term postings (term-partitioned central scoring)

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "live/writer.hpp"
#include "search/searcher.hpp"

namespace hetindex {

/// Exact-integer collection stats of one shard, the router's ScatterStats
/// ingredients (summed across shards before any division — see
/// LiveSnapshot::token_stats on why integers and not per-shard doubles).
struct ShardStatsProbe {
  std::uint64_t n_docs = 0;     ///< live docs on this shard
  std::uint64_t token_sum = 0;  ///< live indexed tokens
  std::uint64_t live_docs = 0;  ///< docs carrying token counts (== n_docs)
  std::vector<std::uint64_t> term_dfs;  ///< raw df per probed term
};

class ShardReplica {
 public:
  ShardReplica(std::shared_ptr<IndexWriter> writer, const SearcherOptions& options);

  /// Runs a sub-request on the calling thread: kUnavailable/kOverloaded
  /// when a fault switch is on, otherwise the Searcher's answer (which is
  /// kDeadlineExceeded when `deadline` has already passed).
  [[nodiscard]] Expected<QueryResponse> run(
      const QueryRequest& request,
      std::optional<std::chrono::steady_clock::time_point> deadline) const;

  /// run() handed back as an already-resolved future, for callers written
  /// against a future-returning replica.
  [[nodiscard]] std::future<Expected<QueryResponse>> submit(
      QueryRequest request,
      std::optional<std::chrono::steady_clock::time_point> deadline) const;

  /// Stats phase of the router's two-phase ranked scatter. Synchronous
  /// (reads the committed snapshot, no decode beyond cursor skip data).
  [[nodiscard]] Expected<ShardStatsProbe> probe_stats(
      const std::vector<std::string>& terms) const;

  /// Raw postings of `term` on this shard (term-partitioned serving); a
  /// null value means the term is absent here. Tombstoned docs included —
  /// the router filters, like any Searcher.
  [[nodiscard]] Expected<std::shared_ptr<const QueryPostings>> fetch_postings(
      const std::string& term) const;

  /// The committed snapshot — storage-level access for the router's
  /// term-partitioned document stats (not gated by the fault switches,
  /// which model the serving path, not the disk).
  [[nodiscard]] std::shared_ptr<const LiveSnapshot> snapshot() const {
    return writer_->snapshot();
  }

  /// Fault injection: a down replica answers everything kUnavailable, a
  /// shedding one kOverloaded — what a crashed / saturated process would
  /// look like from the router's side.
  void set_down(bool down) { down_.store(down, std::memory_order_relaxed); }
  void force_shed(bool shed) { shed_.store(shed, std::memory_order_relaxed); }
  [[nodiscard]] bool is_down() const { return down_.load(std::memory_order_relaxed); }

  /// The replica Searcher's search_* instruments.
  [[nodiscard]] const obs::MetricsRegistry& metrics() const { return searcher_->metrics(); }

 private:
  [[nodiscard]] std::optional<Error> fault() const;

  std::shared_ptr<IndexWriter> writer_;
  std::shared_ptr<Searcher> searcher_;
  std::atomic<bool> down_{false};
  std::atomic<bool> shed_{false};
};

/// The shard: its writer plus the replica set.
class Shard {
 public:
  Shard(std::shared_ptr<IndexWriter> writer, std::uint32_t replicas,
        const SearcherOptions& options);

  [[nodiscard]] IndexWriter& writer() { return *writer_; }
  [[nodiscard]] const IndexWriter& writer() const { return *writer_; }
  [[nodiscard]] std::shared_ptr<IndexWriter> shared_writer() const { return writer_; }

  [[nodiscard]] std::size_t replica_count() const { return replicas_.size(); }
  [[nodiscard]] ShardReplica& replica(std::size_t r) { return *replicas_[r]; }
  [[nodiscard]] const ShardReplica& replica(std::size_t r) const { return *replicas_[r]; }

 private:
  std::shared_ptr<IndexWriter> writer_;
  std::vector<std::unique_ptr<ShardReplica>> replicas_;
};

}  // namespace hetindex
