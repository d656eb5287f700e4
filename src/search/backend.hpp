#pragma once
/// \file backend.hpp
/// SearchBackend — the one serving interface: QueryRequest in,
/// Expected<QueryResponse> out. Everything that can answer a query
/// implements it — a Searcher over one corpus view, a SearchService pooling
/// threads in front of any backend, and the ShardRouter fanning out over a
/// whole cluster — so callers (CLI verbs,
/// benches, tests) compose local and clustered serving through one type:
/// `SearchService(router)` is admission control in front of a cluster with
/// the same five lines that serve a laptop index.
///
/// The interface is two entry points with one contract:
///   search(request)            the deadline (request.timeout > 0) starts now
///   search(request, deadline)  against an absolute deadline that may
///                              predate the call — a service passes the
///                              deadline computed at submit time so queue
///                              wait counts against the budget, a router
///                              passes the per-shard slice of its budget
///
/// Both are const: implementations must be safe to call concurrently from
/// any number of threads (SearchService runs a pool against one backend).

#include <chrono>
#include <optional>

#include "obs/metrics.hpp"
#include "search/types.hpp"
#include "util/error.hpp"

namespace hetindex {

class SearchBackend {
 public:
  virtual ~SearchBackend() = default;

  /// Answers one request. The deadline (when request.timeout > 0) starts
  /// now; see the two-argument overload when the clock started earlier.
  /// Errors: kInvalidArgument (no terms), kDeadlineExceeded (expired on
  /// entry), kOverloaded (admission shed), kUnavailable (backend down).
  [[nodiscard]] Expected<QueryResponse> search(const QueryRequest& request) const {
    std::optional<std::chrono::steady_clock::time_point> deadline;
    if (request.timeout.count() > 0) {
      deadline = std::chrono::steady_clock::now() + request.timeout;
    }
    return search(request, deadline);
  }

  /// Like search(request) but against an absolute deadline that may
  /// predate this call. nullopt means no deadline.
  [[nodiscard]] virtual Expected<QueryResponse> search(
      const QueryRequest& request,
      std::optional<std::chrono::steady_clock::time_point> deadline) const = 0;

  /// The backend's instrument registry (search_* for a Searcher, plus
  /// admission metrics for a service, cluster_* for a router).
  [[nodiscard]] virtual const obs::MetricsRegistry& metrics() const = 0;
  [[nodiscard]] virtual obs::MetricsRegistry& metrics() = 0;
};

}  // namespace hetindex
