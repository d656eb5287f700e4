#pragma once
/// \file service.hpp
/// Thread-pooled concurrent query execution with admission control in
/// front of any SearchBackend — one Searcher on a laptop, or a whole
/// ShardRouter. Requests enter a bounded queue (reject-with-kOverloaded
/// when saturated — callers learn about overload immediately instead of
/// piling up latency), workers pop and execute, and a request's deadline
/// starts at submit so time spent queued counts against it: a request that
/// expires while waiting is rejected with kDeadlineExceeded without wasting
/// executor time, and one that expires mid-execution comes back degraded
/// (see Searcher).
///
/// The service is itself a SearchBackend (search() = submit + wait): the
/// CLI `serve` verb runs one service over whichever backend the directory
/// holds, a ShardRouter included (whose fan-out then runs on the service's
/// worker threads).
///
/// The service publishes its admission metrics into the backend's
/// registry, so one snapshot tells the whole serving story: queue depth,
/// in-flight gauge, shed/rejected counters, queue-wait histogram alongside
/// the executor's cache and latency instruments.

#include <chrono>
#include <future>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "search/backend.hpp"
#include "search/searcher.hpp"
#include "util/bounded_queue.hpp"

namespace hetindex {

struct SearchServiceOptions {
  std::size_t threads = 4;         ///< executor pool size
  std::size_t queue_capacity = 64; ///< admission queue; full = shed
};

class SearchService : public SearchBackend {
 public:
  SearchService(std::shared_ptr<SearchBackend> backend, SearchServiceOptions options = {});
  /// Closes the queue and joins the workers; already-queued requests are
  /// drained (their futures resolve) before destruction completes.
  ~SearchService() override;

  SearchService(const SearchService&) = delete;
  SearchService& operator=(const SearchService&) = delete;

  /// Enqueues one request; the deadline (request.timeout > 0) starts now.
  /// The future resolves to the response, or to kOverloaded (queue full —
  /// resolved immediately, the backpressure signal), kDeadlineExceeded, or
  /// any backend error.
  [[nodiscard]] std::future<Expected<QueryResponse>> submit(QueryRequest request);

  /// Like submit(request) but against an absolute deadline that may
  /// predate the call — the ShardRouter enqueues per-shard sub-requests
  /// with its already-carved budget slice. The futures are promise-backed:
  /// abandoning one (router timeout) never blocks.
  [[nodiscard]] std::future<Expected<QueryResponse>> submit(
      QueryRequest request,
      std::optional<std::chrono::steady_clock::time_point> deadline);

  using SearchBackend::search;  // the one-argument convenience entry

  /// Synchronous execution through the queue: submit and wait.
  [[nodiscard]] Expected<QueryResponse> search(
      const QueryRequest& request,
      std::optional<std::chrono::steady_clock::time_point> deadline) const override;

  [[nodiscard]] const SearchBackend& backend() const { return *backend_; }
  /// The shared registry (the backend's, plus this service's admission
  /// instruments).
  [[nodiscard]] const obs::MetricsRegistry& metrics() const override {
    return backend_->metrics();
  }
  [[nodiscard]] obs::MetricsRegistry& metrics() override { return backend_->metrics(); }
  [[nodiscard]] std::size_t threads() const { return workers_.size(); }
  [[nodiscard]] std::size_t queue_capacity() const { return queue_->capacity(); }
  [[nodiscard]] std::size_t queue_depth() const { return queue_->size(); }

 private:
  struct Instruments;
  struct Job {
    QueryRequest request;
    std::optional<std::chrono::steady_clock::time_point> deadline;
    std::chrono::steady_clock::time_point enqueued;
    std::promise<Expected<QueryResponse>> promise;
  };

  [[nodiscard]] std::future<Expected<QueryResponse>> enqueue(
      QueryRequest request,
      std::optional<std::chrono::steady_clock::time_point> deadline) const;
  void worker_loop();

  std::shared_ptr<SearchBackend> backend_;
  std::unique_ptr<Instruments> ins_;
  std::unique_ptr<BoundedQueue<Job>> queue_;
  std::vector<std::jthread> workers_;
};

}  // namespace hetindex
