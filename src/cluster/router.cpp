#include "cluster/router.hpp"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "search/boolean_eval.hpp"
#include "search/topk.hpp"
#include "util/check.hpp"
#include "util/timer.hpp"

namespace hetindex {

struct ShardRouter::Instruments {
  obs::Counter& queries;
  obs::Counter& shard_timeouts;
  obs::Counter& shard_sheds;
  obs::Counter& shard_down;
  obs::Counter& failovers;
  obs::Counter& demotions;
  obs::Counter& partials;
  obs::Histo& stats_micros;
  obs::Histo& total_micros;

  explicit Instruments(obs::MetricsRegistry& m)
      : queries(m.counter("cluster_queries_total")),
        shard_timeouts(m.counter("cluster_shard_timeouts_total")),
        shard_sheds(m.counter("cluster_shard_sheds_total")),
        shard_down(m.counter("cluster_shard_down_total")),
        failovers(m.counter("cluster_failovers_total")),
        demotions(m.counter("cluster_replica_demotions_total")),
        partials(m.counter("cluster_partial_responses_total")),
        stats_micros(m.histogram("cluster_stats_micros", 0.0, 16384.0, 64)),
        total_micros(m.histogram("cluster_total_micros", 0.0, 16384.0, 64)) {}
};

namespace {

using Clock = std::chrono::steady_clock;
using Deadline = std::optional<Clock::time_point>;

bool past(const Deadline& deadline) {
  return deadline && Clock::now() >= *deadline;
}

/// Sub-deadline: now + fraction of the remaining budget. No deadline stays
/// no deadline.
Deadline carve(const Deadline& deadline, double fraction) {
  if (!deadline) return std::nullopt;
  const auto now = Clock::now();
  if (now >= *deadline) return now;
  const auto remaining =
      std::chrono::duration_cast<std::chrono::nanoseconds>(*deadline - now);
  return now + std::chrono::nanoseconds(
                   static_cast<std::int64_t>(
                       static_cast<double>(remaining.count()) * fraction));
}

/// The union index's exact result order: score desc, global doc id asc.
void merge_hits(std::vector<ScoredDoc>& hits, std::size_t k) {
  std::sort(hits.begin(), hits.end(), [](const ScoredDoc& a, const ScoredDoc& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.doc_id < b.doc_id;
  });
  if (hits.size() > k) hits.resize(k);
}

/// The term-routed tree with every leaf whose owner never answered pruned
/// away: an unavailable leaf drops out of its AND/OR/bag (weakening the
/// intersection, narrowing the union), a PHRASE/NEAR with an unavailable
/// term is unavailable whole (an unverifiable constraint admits nothing),
/// and a group left with no child is unavailable. nullopt: the whole tree
/// is unavailable.
std::optional<QueryNode> prune_unavailable(
    const QueryNode& node,
    const std::unordered_map<std::string, std::shared_ptr<const QueryPostings>>& fetched) {
  switch (node.op) {
    case QueryOp::kTerm:
      if (!fetched.contains(node.term)) return std::nullopt;
      return node;
    case QueryOp::kPhrase:
    case QueryOp::kNear:
      for (const auto& term : node.terms) {
        if (!fetched.contains(term)) return std::nullopt;
      }
      return node;
    default: {
      QueryNode kept;
      kept.op = node.op;
      for (const auto& child : node.children) {
        if (auto c = prune_unavailable(child, fetched)) kept.children.push_back(std::move(*c));
      }
      if (kept.children.empty()) return std::nullopt;
      return kept;
    }
  }
}

}  // namespace

ShardRouter::ShardRouter(std::vector<std::shared_ptr<Shard>> shards,
                         std::shared_ptr<const Partitioner> partitioner,
                         RouterOptions options)
    : shards_(std::move(shards)),
      partitioner_(std::move(partitioner)),
      options_(options),
      metrics_(std::make_unique<obs::MetricsRegistry>()),
      ins_(std::make_unique<Instruments>(*metrics_)) {
  HET_CHECK_MSG(!shards_.empty(), "ShardRouter requires at least one shard");
  HET_CHECK_MSG(partitioner_ != nullptr, "ShardRouter requires a partitioner");
  HET_CHECK_MSG(partitioner_->shards() == shards_.size(),
                "partitioner shard count must match the shard set");
  health_.resize(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    health_[s].resize(shards_[s]->replica_count());
  }
}

ShardRouter::~ShardRouter() = default;

std::vector<std::size_t> ShardRouter::replica_order(std::uint32_t shard) const {
  const auto now = Clock::now();
  std::vector<std::size_t> healthy;
  std::vector<std::size_t> demoted;
  {
    std::lock_guard lock(health_mu_);
    for (std::size_t r = 0; r < health_[shard].size(); ++r) {
      (health_[shard][r].demoted_until <= now ? healthy : demoted).push_back(r);
    }
    std::sort(demoted.begin(), demoted.end(), [&](std::size_t a, std::size_t b) {
      return health_[shard][a].demoted_until < health_[shard][b].demoted_until;
    });
  }
  healthy.insert(healthy.end(), demoted.begin(), demoted.end());
  return healthy;
}

void ShardRouter::record_failure(std::uint32_t shard, std::size_t replica) const {
  const auto now = Clock::now();
  std::lock_guard lock(health_mu_);
  auto& h = health_[shard][replica];
  h.failures.push_back(now);
  while (!h.failures.empty() && h.failures.front() < now - options_.failure_window) {
    h.failures.pop_front();
  }
  if (h.failures.size() >= options_.demote_after_failures) {
    h.demoted_until = now + options_.demotion_backoff;
    h.failures.clear();
    ins_->demotions.add();
  }
}

void ShardRouter::record_success(std::uint32_t shard, std::size_t replica) const {
  std::lock_guard lock(health_mu_);
  auto& h = health_[shard][replica];
  h.failures.clear();
  h.demoted_until = {};  // an answer IS the health check
}

ShardRouter::FailureKind ShardRouter::classify(const Error& error) {
  switch (error.code) {
    case ErrorCode::kOverloaded: return FailureKind::kShed;
    case ErrorCode::kDeadlineExceeded: return FailureKind::kTimeout;
    default: return FailureKind::kDown;
  }
}

void ShardRouter::count_failure(const Error& error) const {
  switch (classify(error)) {
    case FailureKind::kShed: ins_->shard_sheds.add(); break;
    case FailureKind::kTimeout: ins_->shard_timeouts.add(); break;
    case FailureKind::kDown: ins_->shard_down.add(); break;
  }
}

template <typename Call>
auto ShardRouter::with_failover(std::uint32_t shard, const Deadline deadline,
                                const Call& call) const {
  const auto order = replica_order(shard);
  decltype(call(shards_[shard]->replica(0))) result =
      Error{ErrorCode::kUnavailable, "no replica tried"};
  for (std::size_t i = 0; i < order.size(); ++i) {
    if (past(deadline)) {
      ins_->shard_timeouts.add();
      result = Error{ErrorCode::kDeadlineExceeded, "budget slice spent before this shard's turn"};
      break;
    }
    if (i > 0) ins_->failovers.add();
    result = call(shards_[shard]->replica(order[i]));
    if (result) {
      record_success(shard, order[i]);
      break;
    }
    count_failure(result.error());
    record_failure(shard, order[i]);
  }
  return result;
}

Expected<QueryResponse> ShardRouter::search(const QueryRequest& request,
                                            const Deadline deadline) const {
  if (request.query.empty()) {
    return Error{ErrorCode::kInvalidArgument, "query has no terms"};
  }
  if (request.scatter != nullptr) {
    return Error{ErrorCode::kInvalidArgument,
                 "scatter stats are router-internal; do not set them on a "
                 "cluster request"};
  }
  if (past(deadline)) {
    return Error{ErrorCode::kDeadlineExceeded, "deadline expired before fan-out"};
  }
  ins_->queries.add();
  return partitioner_->strategy() == PartitionStrategy::kTerm
             ? term_routed_search(request, deadline)
             : scatter_search(request, deadline);
}

Expected<QueryResponse> ShardRouter::scatter_search(const QueryRequest& request,
                                                    const Deadline deadline) const {
  const Query& query = request.query;
  const WallTimer total_timer;
  const auto shard_count = static_cast<std::uint32_t>(shards_.size());
  std::vector<ShardState> state(shard_count);
  const QueryClass qclass = query.query_class();

  // Phase 1 (ranked only): aggregate the union corpus's collection stats
  // from exact per-shard integers. A shard that cannot even answer the
  // probe is excluded from the fan-out — its documents are what the
  // partial response is missing. Boolean/positional classes rank by tf,
  // which needs no global stats, so they skip straight to the fan-out.
  std::shared_ptr<ScatterStats> scatter;
  std::vector<bool> eligible(shard_count, true);
  const WallTimer stats_timer;
  if (qclass == QueryClass::kRanked) {
    const std::vector<std::string> terms = query.collect_terms();
    const Deadline stats_deadline = carve(deadline, options_.stats_budget_fraction);
    auto stats = std::make_shared<ScatterStats>();
    stats->term_dfs.assign(terms.size(), 0);
    std::uint64_t token_sum = 0;
    std::uint64_t live_docs = 0;
    for (std::uint32_t s = 0; s < shard_count; ++s) {
      auto probe = with_failover(s, stats_deadline, [&terms](const ShardReplica& r) {
        return r.probe_stats(terms);
      });
      if (!probe) {
        eligible[s] = false;
        state[s].failure = classify(probe.error());
        continue;
      }
      stats->n_docs += probe->n_docs;
      token_sum += probe->token_sum;
      live_docs += probe->live_docs;
      for (std::size_t t = 0; t < terms.size(); ++t) {
        stats->term_dfs[t] += probe->term_dfs[t];
      }
    }
    stats->avgdl = live_docs == 0 ? 0.0
                                  : static_cast<double>(token_sum) /
                                        static_cast<double>(live_docs);
    scatter = std::move(stats);
  }
  ins_->stats_micros.add(stats_timer.seconds() * 1e6);

  // Phase 2: fan out on this thread, shard after shard, every shard's
  // replicas in health order within the one exec slice. Sub-requests carry
  // the resolved AST: each shard executes the full tree (phrase/NEAR
  // verification included) over its own documents — doc/block partitions
  // hold every doc's postings and positions whole.
  const Deadline exec_deadline = carve(deadline, options_.shard_budget_fraction);
  QueryRequest sub = request;
  sub.timeout = std::chrono::microseconds{0};  // the absolute deadline rules
  sub.use_result_cache = false;  // scatter stats are not in the cache key
  sub.scatter = scatter;
  for (std::uint32_t s = 0; s < shard_count; ++s) {
    if (!eligible[s]) continue;
    auto result = with_failover(s, exec_deadline, [&](const ShardReplica& r) {
      return r.run(sub, exec_deadline);
    });
    if (!result) {
      state[s].failure = classify(result.error());
      continue;
    }
    state[s].answered = true;
    state[s].response = std::move(*result);
  }

  // Gather: translate shard-local ids through the partitioner's closed
  // form and merge into the union order.
  QueryResponse response;
  response.classified = qclass;
  response.shards_total = shard_count;
  bool sub_degraded = false;
  bool all_failures_shed = true;
  for (std::uint32_t s = 0; s < shard_count; ++s) {
    if (!state[s].answered) {
      all_failures_shed = all_failures_shed && state[s].failure == FailureKind::kShed;
      continue;
    }
    ++response.shards_answered;
    sub_degraded = sub_degraded || state[s].response.degraded();
    for (const ScoredDoc& hit : state[s].response.hits) {
      response.hits.push_back({partitioner_->global_doc(s, hit.doc_id), hit.score});
    }
  }
  if (response.shards_answered == 0) {
    return Error{ErrorCode::kUnavailable, "no shard answered the fan-out"};
  }
  if (response.shards_answered < shard_count && !options_.allow_partial) {
    return Error{ErrorCode::kUnavailable,
                 "shard unanswered and partial results are disabled"};
  }
  merge_hits(response.hits, request.k);

  if (response.shards_answered < shard_count) {
    ins_->partials.add();
    response.degradation = all_failures_shed ? Degradation::kShedPartial
                                             : Degradation::kShardPartial;
  } else if (sub_degraded) {
    response.degradation = Degradation::kDeadlinePartial;
  }
  response.timings.lookup_seconds = stats_timer.seconds();  // probe phase
  response.timings.total_seconds = total_timer.seconds();
  response.timings.score_seconds =
      response.timings.total_seconds - response.timings.lookup_seconds;
  ins_->total_micros.add(response.timings.total_seconds * 1e6);
  return response;
}

Expected<QueryResponse> ShardRouter::term_routed_search(const QueryRequest& request,
                                                        const Deadline deadline) const {
  const Query& query = request.query;
  const WallTimer total_timer;
  const Deadline exec_deadline = carve(deadline, options_.shard_budget_fraction);
  const std::vector<std::string> terms = query.collect_terms();

  // Fetch each distinct AST leaf's postings from its owner shard.
  // Duplicated leaves score twice (single-node semantics) but fetch once;
  // lists arrive with positions, so phrase/NEAR constraints verify
  // centrally.
  std::unordered_map<std::string, std::shared_ptr<const QueryPostings>> fetched;
  std::vector<bool> owner_consulted(shards_.size(), false);
  std::vector<bool> owner_answered(shards_.size(), false);
  std::vector<bool> term_ok(terms.size(), false);
  bool any_shed_failure = false;
  bool any_nonshed_failure = false;
  const WallTimer fetch_timer;
  for (std::size_t t = 0; t < terms.size(); ++t) {
    const std::string& term = terms[t];
    const auto it = fetched.find(term);
    if (it != fetched.end()) {
      term_ok[t] = true;
      continue;
    }
    const auto owner = partitioner_->term_shard(term);
    HET_CHECK_MSG(owner.has_value(), "term partitioner must own every term");
    owner_consulted[*owner] = true;
    auto postings = with_failover(*owner, exec_deadline, [&term](const ShardReplica& r) {
      return r.fetch_postings(term);
    });
    if (!postings) {
      if (postings.error().code == ErrorCode::kOverloaded) {
        any_shed_failure = true;
      } else {
        any_nonshed_failure = true;
      }
      continue;
    }
    owner_answered[*owner] = true;
    fetched.emplace(term, std::move(*postings));
    term_ok[t] = true;
  }

  QueryResponse response;
  response.classified = query.query_class();
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    if (owner_consulted[s]) ++response.shards_total;
    if (owner_answered[s]) ++response.shards_answered;
  }
  const bool all_terms = std::all_of(term_ok.begin(), term_ok.end(),
                                     [](bool ok) { return ok; });
  if (!all_terms && std::none_of(term_ok.begin(), term_ok.end(),
                                 [](bool ok) { return ok; })) {
    return Error{ErrorCode::kUnavailable, "no term owner answered"};
  }
  if (!all_terms && !options_.allow_partial) {
    return Error{ErrorCode::kUnavailable,
                 "term owner unanswered and partial results are disabled"};
  }
  response.timings.lookup_seconds = fetch_timer.seconds();

  // Documents are replicated everywhere; shard 0's committed snapshot is
  // the canonical doc-stats source (storage-level — fault switches model
  // the serving path, not the disk).
  const auto snap = shards_[0]->shared_writer()->snapshot();
  const TombstoneSet* excluded = snap->tombstones();

  const WallTimer score_timer;
  const QueryNode& root = query.root();
  if (root.op == QueryOp::kTerm || root.op == QueryOp::kBag) {
    // Central exhaustive scoring, leaf order (== legacy request-term
    // order) — the single-node accumulation sequence, so scores are
    // bit-identical to the union index (and to its MaxScore executor,
    // which re-sums canonically).
    const auto tokens = snap->token_stats();
    const std::uint64_t n_docs = snap->doc_count();
    const double avgdl =
        tokens.live_docs == 0
            ? 1e-9
            : std::max(static_cast<double>(tokens.token_sum) /
                           static_cast<double>(tokens.live_docs),
                       1e-9);
    DocLengthIndex lengths;
    for (const auto& seg : snap->segments()) {
      const DocMap* map = seg->doc_map();
      if (map != nullptr) lengths.add_range(map->base(), map->doc_count(), map);
    }
    if (snap->memtable() != nullptr) {
      lengths.add_range(snap->memtable()->doc_base(), snap->memtable()->doc_count(),
                        snap->memtable());
    }
    std::vector<ExhaustiveTermList> lists;
    for (std::size_t t = 0; t < terms.size(); ++t) {
      if (!term_ok[t]) continue;  // owner down: term skipped, kShardPartial
      const auto& postings = fetched[terms[t]];
      if (postings == nullptr || postings->doc_ids.empty()) continue;
      lists.push_back({postings.get(), bm25_idf(postings->doc_ids.size(), n_docs)});
    }
    auto topk = exhaustive_topk(lists, request.k, request.bm25, lengths, avgdl, deadline,
                                excluded);
    response.hits = std::move(topk.hits);
    if (topk.degraded) response.degradation = Degradation::kDeadlinePartial;
  } else if (const auto pruned = prune_unavailable(root, fetched)) {
    // Every other root — AND/OR trees, phrase, NEAR — runs the single-node
    // cursor-tree evaluator over decoded cursors on the fetched lists (they
    // carry positions, so phrase/NEAR verify here) and ranks by (tf desc,
    // doc id asc). An unavailable root has no hits.
    BooleanLeaves leaves;
    leaves.open = [&fetched](const std::string& term,
                             bool /*with_positions*/) -> std::unique_ptr<PostingsCursor> {
      const auto& postings = fetched.at(term);
      return postings != nullptr ? make_decoded_cursor(postings) : nullptr;
    };
    auto matched = evaluate_boolean(*pruned, leaves, excluded, deadline);
    if (!matched.has_value()) return matched.error();
    response.hits = rank_by_tf(matched->matches, request.k);
    if (matched->degraded) response.degradation = Degradation::kDeadlinePartial;
  }
  response.timings.score_seconds = score_timer.seconds();
  response.timings.total_seconds = total_timer.seconds();

  if (!all_terms) {
    ins_->partials.add();
    response.degradation = (any_shed_failure && !any_nonshed_failure)
                               ? Degradation::kShedPartial
                               : Degradation::kShardPartial;
  }
  ins_->total_micros.add(response.timings.total_seconds * 1e6);
  return response;
}

}  // namespace hetindex
