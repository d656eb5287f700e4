#include "cluster/shard.hpp"

#include <utility>

#include "postings/cursor.hpp"
#include "util/check.hpp"

namespace hetindex {

ShardReplica::ShardReplica(std::shared_ptr<IndexWriter> writer,
                           const SearcherOptions& options)
    : writer_(std::move(writer)) {
  HET_CHECK_MSG(writer_ != nullptr, "ShardReplica requires a writer");
  searcher_ = Searcher::open(
                  SearchSource::live([w = writer_] { return w->snapshot(); }), options)
                  .value();
}

std::optional<Error> ShardReplica::fault() const {
  if (down_.load(std::memory_order_relaxed)) {
    return Error{ErrorCode::kUnavailable, "replica down (fault-injected)"};
  }
  if (shed_.load(std::memory_order_relaxed)) {
    return Error{ErrorCode::kOverloaded, "replica shedding (fault-injected)"};
  }
  return std::nullopt;
}

Expected<QueryResponse> ShardReplica::run(
    const QueryRequest& request,
    std::optional<std::chrono::steady_clock::time_point> deadline) const {
  if (auto f = fault()) return *f;
  return searcher_->search(request, deadline);
}

std::future<Expected<QueryResponse>> ShardReplica::submit(
    QueryRequest request,
    std::optional<std::chrono::steady_clock::time_point> deadline) const {
  std::promise<Expected<QueryResponse>> resolved;
  resolved.set_value(run(request, deadline));
  return resolved.get_future();
}

Expected<ShardStatsProbe> ShardReplica::probe_stats(
    const std::vector<std::string>& terms) const {
  if (auto f = fault()) return *f;
  const auto snap = writer_->snapshot();
  ShardStatsProbe probe;
  probe.n_docs = snap->doc_count();
  const auto tokens = snap->token_stats();
  probe.token_sum = tokens.token_sum;
  probe.live_docs = tokens.live_docs;
  probe.term_dfs.reserve(terms.size());
  for (const auto& term : terms) {
    // Raw df from cursor skip data — the exact integer a decoded list's
    // length would give (PR 6 invariant), without decoding anything.
    const auto cursor = snap->open_cursor(term);
    probe.term_dfs.push_back(cursor != nullptr ? cursor->size() : 0);
  }
  return probe;
}

Expected<std::shared_ptr<const QueryPostings>> ShardReplica::fetch_postings(
    const std::string& term) const {
  if (auto f = fault()) return *f;
  auto looked_up = writer_->snapshot()->lookup(term);
  if (!looked_up) return std::shared_ptr<const QueryPostings>{};
  return std::shared_ptr<const QueryPostings>(
      std::make_shared<const QueryPostings>(std::move(*looked_up)));
}

Shard::Shard(std::shared_ptr<IndexWriter> writer, std::uint32_t replicas,
             const SearcherOptions& options)
    : writer_(std::move(writer)) {
  HET_CHECK_MSG(writer_ != nullptr, "Shard requires a writer");
  HET_CHECK_MSG(replicas > 0, "a shard needs at least one replica");
  replicas_.reserve(replicas);
  for (std::uint32_t r = 0; r < replicas; ++r) {
    replicas_.push_back(std::make_unique<ShardReplica>(writer_, options));
  }
}

}  // namespace hetindex
