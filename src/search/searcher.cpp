#include "search/searcher.hpp"

#include <algorithm>
#include <cstdio>
#include <unordered_map>
#include <utility>
#include <vector>

#include "live/tombstones.hpp"
#include "postings/boolean_ops.hpp"
#include "postings/cursor.hpp"
#include "util/check.hpp"
#include "util/timer.hpp"

namespace hetindex {

/// Resolved once at construction; the per-query cost is atomic adds and
/// histogram buckets (the ReadInstruments pattern of postings/query.cpp).
struct Searcher::Instruments {
  obs::Counter& queries;
  obs::Counter& degraded;
  obs::Counter& result_hits;
  obs::Counter& result_misses;
  obs::Counter& postings_hits;
  obs::Counter& postings_misses;
  obs::Counter& stats_recomputes;
  obs::Counter& blocks_skipped;
  obs::Counter& blooms_rejected;
  obs::Histo& total_micros;
  obs::Histo& lookup_micros;
  obs::Histo& score_micros;

  explicit Instruments(obs::MetricsRegistry& m)
      : queries(m.counter("search_queries_total")),
        degraded(m.counter("search_degraded_total")),
        result_hits(m.counter("search_result_cache_hits_total")),
        result_misses(m.counter("search_result_cache_misses_total")),
        postings_hits(m.counter("search_postings_cache_hits_total")),
        postings_misses(m.counter("search_postings_cache_misses_total")),
        stats_recomputes(m.counter("search_stats_recomputes_total")),
        blocks_skipped(m.counter("search_blocks_skipped_total")),
        blooms_rejected(m.counter("search_blooms_rejected_total")),
        total_micros(m.histogram("search_total_micros", 0.0, 16384.0, 64)),
        lookup_micros(m.histogram("search_lookup_micros", 0.0, 16384.0, 64)),
        score_micros(m.histogram("search_score_micros", 0.0, 16384.0, 64)) {}
};

namespace {

/// Cache key: snapshot id prefix + payload. \x1e/\x1f are unit separators
/// that cannot appear in normalized terms.
std::string snapshot_key(std::uint64_t snapshot_id, std::string_view payload) {
  std::string key = std::to_string(snapshot_id);
  key += '\x1e';
  key += payload;
  return key;
}

/// Normalized query string: every request field that affects the answer,
/// plus the canonical AST text (Query::to_string preserves operator
/// structure, term order, and multiplicity — duplicates score twice, so
/// they are part of the identity). The root operator is keyed explicitly
/// because a single-child AND/OR prints as its bare child yet ranks by
/// summed tf, not BM25 — the text alone would collide with the ranked form.
std::string normalize_query(const Query& query, const QueryRequest& request) {
  char params[64];
  std::snprintf(params, sizeof(params), "%zu|%.17g|%.17g|%d|%d", request.k,
                request.bm25.k1, request.bm25.b, request.exhaustive ? 1 : 0,
                query.empty() ? -1 : static_cast<int>(query.root().op));
  std::string norm(params);
  norm += '\x1f';
  norm += query.to_string();
  return norm;
}

bool past(const std::optional<std::chrono::steady_clock::time_point>& deadline) {
  return deadline && std::chrono::steady_clock::now() >= *deadline;
}

/// Driver docs between deadline checks in the cursor intersection (a clock
/// read per doc would dominate small lists).
constexpr std::uint64_t kIntersectDeadlineStride = 256;

/// True when `root` executes on the cursor-intersection engine: a bare
/// PHRASE/NEAR, or an AND whose operands are all plain terms or positional
/// groups. Anything nesting OR/bag falls back to the decoded evaluator.
bool flat_conjunction(const QueryNode& root) {
  if (root.op == QueryOp::kPhrase || root.op == QueryOp::kNear) return true;
  if (root.op != QueryOp::kAnd) return false;
  return std::all_of(root.children.begin(), root.children.end(), [](const QueryNode& c) {
    return c.op == QueryOp::kTerm || c.op == QueryOp::kPhrase || c.op == QueryOp::kNear;
  });
}

}  // namespace

SearchSource SearchSource::batch(const InvertedIndex& index, const DocMap& docs) {
  SearchSource source;
  source.index_ = &index;
  source.docs_ = &docs;
  return source;
}

SearchSource SearchSource::batch(const InvertedIndex& index) {
  SearchSource source;
  source.index_ = &index;
  return source;
}

SearchSource SearchSource::snapshot(std::shared_ptr<const LiveSnapshot> snap) {
  SearchSource source;
  if (snap == nullptr) {
    source.null_source_ = true;
    return source;
  }
  source.provider_ = [pinned = std::move(snap)] { return pinned; };
  return source;
}

SearchSource SearchSource::live(SnapshotFn provider) {
  SearchSource source;
  if (provider == nullptr) {
    source.null_source_ = true;
    return source;
  }
  source.provider_ = std::move(provider);
  return source;
}

Expected<std::shared_ptr<Searcher>> Searcher::open(SearchSource source,
                                                   SearcherOptions options) {
  if (source.null_source_) {
    return Error{ErrorCode::kInvalidArgument,
                 "SearchSource requires a non-null snapshot or provider"};
  }
  // The provider is deliberately NOT probed here: live providers may block
  // or become valid only once serving starts (tests gate them on
  // semaphores). A provider resolving null at query time serves nothing.
  // Not make_shared: the binding constructor is private.
  return std::shared_ptr<Searcher>(new Searcher(std::move(source), options));
}

Searcher::Searcher(SearchSource source, SearcherOptions options)
    : options_(options),
      index_(source.index_),
      docs_(source.docs_),
      provider_(std::move(source.provider_)),
      metrics_(std::make_unique<obs::MetricsRegistry>()),
      ins_(std::make_unique<Instruments>(*metrics_)),
      postings_cache_(options.postings_cache_entries, options.cache_shards),
      result_cache_(options.result_cache_entries, options.cache_shards) {
  HET_CHECK_MSG(!source.null_source_, "Searcher requires a non-null snapshot source");
}

Searcher::~Searcher() = default;

std::shared_ptr<const Searcher::Stats> Searcher::stats_for(
    const std::shared_ptr<const LiveSnapshot>& snap, std::uint64_t snapshot_id) const {
  {
    std::shared_lock lock(stats_mu_);
    if (stats_ != nullptr && stats_->snapshot_id == snapshot_id) return stats_;
  }
  std::unique_lock lock(stats_mu_);
  if (stats_ != nullptr && stats_->snapshot_id == snapshot_id) return stats_;

  // First query against this snapshot pays the stats walk; everyone after
  // reads the shared copy. The recompute counter is the regression probe
  // for "stats are per-snapshot, not per-query".
  ins_->stats_recomputes.add();
  auto stats = std::make_shared<Stats>();
  stats->snapshot_id = snapshot_id;
  if (snap != nullptr) {
    // Live collection stats: doc_count() and average_doc_tokens() both
    // exclude tombstoned docs and include the memtable, so BM25 sees the
    // collection exactly as a fresh batch build of the survivors would.
    stats->n_docs = snap->doc_count();
    stats->avgdl = std::max(snap->average_doc_tokens(), 1e-9);
    for (const auto& seg : snap->segments()) {
      const DocMap* map = seg->doc_map();
      if (map != nullptr) stats->lengths.add_range(map->base(), map->doc_count(), map);
    }
    const MemtableView* memtable = snap->memtable();
    if (memtable != nullptr) {
      stats->lengths.add_range(memtable->doc_base(), memtable->doc_count(), memtable);
    }
    stats->pin = snap;
  } else {
    stats->n_docs = docs_->doc_count();
    stats->avgdl = std::max(docs_->average_doc_tokens(), 1e-9);
    stats->lengths.add_range(docs_->base(), docs_->doc_count(), docs_);
  }
  stats_ = std::move(stats);
  return stats_;
}

std::shared_ptr<const QueryPostings> Searcher::fetch_postings(
    const std::shared_ptr<const LiveSnapshot>& snap, std::uint64_t snapshot_id,
    const std::string& term) const {
  const std::string key = snapshot_key(snapshot_id, term);
  if (auto cached = postings_cache_.get(key)) {
    ins_->postings_hits.add();
    return *cached;  // may be null: cached "absent" verdict
  }
  ins_->postings_misses.add();
  auto looked_up = snap != nullptr ? snap->lookup(term) : index_->lookup(term);
  std::shared_ptr<const QueryPostings> postings;
  if (looked_up) {
    postings = std::make_shared<const QueryPostings>(std::move(*looked_up));
  }
  postings_cache_.put(key, postings);
  return postings;
}

std::uint32_t Searcher::term_max_tf(const std::shared_ptr<const LiveSnapshot>& snap,
                                    const std::string& term) const {
  const auto max_tf = snap != nullptr ? snap->max_tf(term) : index_->max_tf(term);
  // Asked only for terms the view opened a cursor over, so it holds them.
  HET_CHECK_MSG(max_tf.has_value(), "max_tf asked for a term the view does not hold");
  return *max_tf;
}

std::unique_ptr<PostingsCursor> Searcher::open_term_cursor(
    const std::shared_ptr<const LiveSnapshot>& snap, const std::string& term,
    bool with_positions) const {
  return snap != nullptr ? snap->open_cursor(term, with_positions)
                         : index_->open_cursor(term, with_positions);
}

BloomChain Searcher::term_bloom_chain(const std::shared_ptr<const LiveSnapshot>& snap,
                                      const std::string& term) const {
  if (!options_.use_bloom_filters) return {};
  return snap != nullptr ? snap->bloom_chain(term) : index_->bloom_chain(term);
}

std::optional<QueryPostings> Searcher::lookup_positional(
    const std::shared_ptr<const LiveSnapshot>& snap, const std::string& term) const {
  // LiveSnapshot::lookup always decodes positions when the parts carry
  // them; the batch index has a dedicated positional entry point.
  return snap != nullptr ? snap->lookup(term) : index_->lookup_positional(term);
}

/// Recursive decoded evaluator for nested trees — the general engine
/// behind any shape the flat cursor path cannot take (OR roots, AND over
/// OR groups, ...). Returns RAW doc/tf lists (tombstones filtered by the
/// caller at ranking). tf semantics match query_ast.hpp: sums across
/// boolean operands, match counts for positional groups.
Expected<QueryPostings> Searcher::eval_node(
    const QueryNode& node, const std::shared_ptr<const LiveSnapshot>& snap,
    std::uint64_t snapshot_id,
    const std::optional<std::chrono::steady_clock::time_point>& deadline,
    bool& degraded) const {
  switch (node.op) {
    case QueryOp::kTerm: {
      QueryPostings out;
      const auto postings = fetch_postings(snap, snapshot_id, node.term);
      if (postings != nullptr) {
        out.doc_ids = postings->doc_ids;
        out.tfs = postings->tfs;
      }
      return out;
    }
    case QueryOp::kBag:
    case QueryOp::kOr: {
      // Union, tfs summed on overlap. A deadline mid-fold leaves a partial
      // union — a valid subset, flagged degraded.
      QueryPostings acc;
      bool first = true;
      for (const auto& child : node.children) {
        if (past(deadline)) {
          degraded = true;
          break;
        }
        auto part = eval_node(child, snap, snapshot_id, deadline, degraded);
        if (!part.has_value()) return part.error();
        if (first) {
          acc = std::move(part).value();
          first = false;
        } else {
          acc = postings_or(acc, part.value());
        }
      }
      return acc;
    }
    case QueryOp::kAnd: {
      QueryPostings acc;
      bool first = true;
      for (const auto& child : node.children) {
        if (past(deadline)) {
          // A prefix intersection is a SUPERSET of the truth — the one
          // degradation shape that would hand out wrong docs. Return
          // nothing instead (the empty set is always a valid subset).
          acc.doc_ids.clear();
          acc.tfs.clear();
          degraded = true;
          break;
        }
        auto part = eval_node(child, snap, snapshot_id, deadline, degraded);
        if (!part.has_value()) return part.error();
        if (first) {
          acc = std::move(part).value();
          first = false;
        } else {
          acc = postings_and(acc, part.value());
        }
        if (acc.doc_ids.empty()) break;  // settled: no doc can re-enter
      }
      return acc;
    }
    case QueryOp::kPhrase:
    case QueryOp::kNear: {
      std::vector<QueryPostings> lists(node.terms.size());
      std::vector<const QueryPostings*> refs;
      refs.reserve(node.terms.size());
      for (std::size_t t = 0; t < node.terms.size(); ++t) {
        auto looked_up = lookup_positional(snap, node.terms[t]);
        if (!looked_up) return QueryPostings{};  // absent term: no matches
        if (looked_up->positions.empty() && !looked_up->doc_ids.empty()) {
          return Error{ErrorCode::kInvalidArgument,
                       "phrase/NEAR query requires a positional index"};
        }
        lists[t] = std::move(*looked_up);
        refs.push_back(&lists[t]);
      }
      return node.op == QueryOp::kPhrase ? phrase_join(refs)
                                         : near_join(refs, node.window);
    }
  }
  return QueryPostings{};
}

/// The conjunctive cursor engine: document-level intersection over every
/// leaf term (rarest list drives, Bloom chains reject candidates before
/// any follower seek), then positional verification of each PHRASE/NEAR
/// constraint on the survivors only. Returns tombstone-filtered doc/tf
/// pairs; tf = Σ plain-term tfs + Σ positional match counts.
Expected<QueryPostings> Searcher::eval_conjunction(
    const QueryNode& root, const std::shared_ptr<const LiveSnapshot>& snap,
    const std::optional<std::chrono::steady_clock::time_point>& deadline,
    const TombstoneSet* excluded, bool& degraded) const {
  // Constraints: the AND's direct children, or the bare PHRASE/NEAR root.
  std::vector<const QueryNode*> constraints;
  if (root.op == QueryOp::kAnd) {
    for (const auto& child : root.children) constraints.push_back(&child);
  } else {
    constraints.push_back(&root);
  }
  // Flat leaf terms (collect_terms() order) + each constraint's span.
  struct Span {
    std::size_t begin = 0;
    std::size_t count = 0;
  };
  std::vector<std::string> terms;
  std::vector<Span> spans(constraints.size());
  bool positional = false;
  for (std::size_t c = 0; c < constraints.size(); ++c) {
    spans[c].begin = terms.size();
    if (constraints[c]->op == QueryOp::kTerm) {
      terms.push_back(constraints[c]->term);
    } else {
      positional = true;
      terms.insert(terms.end(), constraints[c]->terms.begin(),
                   constraints[c]->terms.end());
    }
    spans[c].count = terms.size() - spans[c].begin;
  }

  QueryPostings acc;
  std::vector<std::unique_ptr<PostingsCursor>> cursors;
  cursors.reserve(terms.size());
  bool all_present = true;
  for (const auto& term : terms) {
    cursors.push_back(open_term_cursor(snap, term, positional));
    if (cursors.back() == nullptr) all_present = false;
  }
  // Any absent term empties the whole conjunction outright (a null cursor
  // covers both an unknown term and an empty list).
  if (!all_present || cursors.empty()) return acc;

  // Rarest list drives; followers answer seeks rarest-first so the
  // cheapest refutation runs before the expensive common lists.
  std::size_t driver_idx = 0;
  for (std::size_t i = 1; i < cursors.size(); ++i) {
    if (cursors[i]->size() < cursors[driver_idx]->size()) driver_idx = i;
  }
  std::vector<std::size_t> followers;
  followers.reserve(cursors.size() - 1);
  for (std::size_t i = 0; i < cursors.size(); ++i) {
    if (i != driver_idx) followers.push_back(i);
  }
  std::sort(followers.begin(), followers.end(), [&](std::size_t a, std::size_t b) {
    return cursors[a]->size() < cursors[b]->size();
  });

  // Bloom chains of the follower terms. The driver enumerates its own
  // list, so its filter could never reject anything. Chains can only turn
  // a would-be miss into a skipped seek (no false negatives), so results
  // are bit-identical with filters off — only the rejected counter moves.
  std::vector<BloomChain> chains(cursors.size());
  for (const std::size_t i : followers) chains[i] = term_bloom_chain(snap, terms[i]);

  PostingsCursor& driver = *cursors[driver_idx];
  bool dead_end = false;  // some follower exhausted: no more matches
  std::uint64_t steps = 0;
  std::uint64_t rejected = 0;
  DocTermPositions tp;
  for (driver.seek(0); driver.valid() && !dead_end; driver.next()) {
    if (++steps % kIntersectDeadlineStride == 0 && past(deadline)) {
      // Prefix of the true result: a valid subset, flagged.
      degraded = true;
      break;
    }
    const std::uint32_t d = driver.docid();
    if (excluded != nullptr && excluded->contains(d)) continue;
    // Bloom rejection BEFORE any follower seek: one definite "absent"
    // saves every remaining seek and the block decodes behind them.
    bool maybe = true;
    for (const std::size_t i : followers) {
      if (!chains[i].may_contain(d)) {
        maybe = false;
        ++rejected;
        break;
      }
    }
    if (!maybe) continue;
    bool all = true;
    for (const std::size_t i : followers) {
      cursors[i]->seek(d);
      if (!cursors[i]->valid()) {
        all = false;
        dead_end = true;
        break;
      }
      if (cursors[i]->docid() != d) {
        all = false;
        break;
      }
    }
    if (!all) continue;
    // Document-level intersection survived; verify the positional
    // constraints on this candidate only and assemble the doc's tf.
    std::uint32_t tf_sum = 0;
    bool ok = true;
    for (std::size_t c = 0; c < constraints.size() && ok; ++c) {
      const Span span = spans[c];
      if (constraints[c]->op == QueryOp::kTerm) {
        tf_sum += cursors[span.begin]->tf();
        continue;
      }
      tp.assign(span.count, {});
      for (std::size_t j = 0; j < span.count; ++j) {
        if (!cursors[span.begin + j]->current_positions(tp[j])) {
          return Error{ErrorCode::kInvalidArgument,
                       "phrase/NEAR query requires a positional index"};
        }
      }
      const std::uint32_t count = constraints[c]->op == QueryOp::kPhrase
                                      ? phrase_match_count(tp)
                                      : near_match_count(tp, constraints[c]->window);
      if (count == 0) ok = false;
      tf_sum += count;
    }
    if (ok) {
      acc.doc_ids.push_back(d);
      acc.tfs.push_back(tf_sum);
    }
  }
  std::uint64_t skipped = 0;
  for (const auto& c : cursors) skipped += c->blocks_skipped();
  ins_->blocks_skipped.add(skipped);
  if (rejected != 0) ins_->blooms_rejected.add(rejected);
  return acc;
}

Expected<QueryResponse> Searcher::search(
    const QueryRequest& request,
    std::optional<std::chrono::steady_clock::time_point> deadline) const {
  const WallTimer total_timer;
  const Query& query = request.query;
  if (query.empty()) {
    return Error{ErrorCode::kInvalidArgument, "query has no terms"};
  }
  if (past(deadline)) {
    return Error{ErrorCode::kDeadlineExceeded, "deadline expired before execution"};
  }
  ins_->queries.add();

  const auto snap = provider_ ? provider_() : nullptr;
  const std::uint64_t snapshot_id = snap != nullptr ? snap->snapshot_id() : 0;
  // The live tier's delete filter: lookups and cursors stay raw (stable
  // df), every candidate-producing path below drops tombstoned docs. The
  // result cache needs no special handling — every delete publishes a new
  // snapshot_id, which is part of every cache key.
  const TombstoneSet* excluded = snap != nullptr ? snap->tombstones() : nullptr;

  QueryResponse response;
  response.snapshot_id = snapshot_id;
  response.classified = query.query_class();

  // Scatter-stat sub-requests bypass the result cache entirely: the
  // injected global stats are not part of the cache key, so a cached
  // local-stats answer (or caching a global-stats one) would alias wrong
  // results across the two worlds.
  const bool cacheable = request.use_result_cache && request.scatter == nullptr;
  const std::string norm = normalize_query(query, request);
  const std::string result_key = snapshot_key(snapshot_id, norm);
  if (cacheable) {
    if (auto cached = result_cache_.get(result_key)) {
      ins_->result_hits.add();
      response.hits = **cached;
      response.from_cache = true;
      response.timings.total_seconds = total_timer.seconds();
      ins_->total_micros.add(response.timings.total_seconds * 1e6);
      return response;
    }
    ins_->result_misses.add();
  }

  const QueryNode& root = query.root();
  if (root.op == QueryOp::kTerm || root.op == QueryOp::kBag) {
    // Ranked bag-of-words: BM25 top-k over the leaf terms (a kBag root
    // only ever holds kTerm children).
    const std::vector<std::string> terms = query.collect_terms();
    if (snap == nullptr && docs_ == nullptr) {
      return Error{ErrorCode::kInvalidArgument,
                   "ranked queries require a DocMap (BM25 needs document lengths)"};
    }
    // Router-injected global stats (ScatterStats) override the local
    // collection view wherever N, df, or avgdl enters a score — document
    // lengths stay local (each shard owns its docs). A term absent
    // locally simply contributes nothing, exactly as in the union index.
    const ScatterStats* scatter = request.scatter.get();
    if (scatter != nullptr && scatter->term_dfs.size() != terms.size()) {
      return Error{ErrorCode::kInvalidArgument,
                   "scatter stats must carry one df per query term"};
    }
    const auto stats = stats_for(snap, snapshot_id);
    const std::uint64_t n_docs = scatter != nullptr ? scatter->n_docs : stats->n_docs;
    const double avgdl =
        scatter != nullptr ? std::max(scatter->avgdl, 1e-9) : stats->avgdl;
    if (request.exhaustive) {
      // Baseline engine: full decode cache-first, hash-map accumulation in
      // query term order — the historical bm25_query.
      const WallTimer lookup_timer;
      std::vector<std::shared_ptr<const QueryPostings>> lists;
      lists.reserve(terms.size());
      for (const auto& term : terms) {
        lists.push_back(fetch_postings(snap, snapshot_id, term));
      }
      response.timings.lookup_seconds = lookup_timer.seconds();
      const WallTimer score_timer;
      std::unordered_map<std::uint32_t, double> scores;
      for (std::size_t t = 0; t < terms.size(); ++t) {
        if (past(deadline)) {  // degrade between terms: coarse but exact
          response.degradation = Degradation::kDeadlinePartial;
          break;
        }
        const auto& postings = lists[t];
        if (postings == nullptr || postings->doc_ids.empty()) continue;
        const double idf = bm25_idf(
            scatter != nullptr ? scatter->term_dfs[t] : postings->doc_ids.size(),
            n_docs);
        for (std::size_t i = 0; i < postings->doc_ids.size(); ++i) {
          const std::uint32_t doc = postings->doc_ids[i];
          if (excluded != nullptr && excluded->contains(doc)) continue;
          const double tf = postings->tfs[i];
          const double dl = stats->lengths.token_count(doc);
          scores[doc] += bm25_contribution(idf, tf, dl, avgdl, request.bm25);
        }
      }
      std::vector<ScoredDoc> ranked;
      ranked.reserve(scores.size());
      for (const auto& [doc, score] : scores) ranked.push_back({doc, score});
      std::sort(ranked.begin(), ranked.end(), [](const ScoredDoc& a, const ScoredDoc& b) {
        if (a.score != b.score) return a.score > b.score;
        return a.doc_id < b.doc_id;
      });
      if (ranked.size() > request.k) ranked.resize(request.k);
      response.hits = std::move(ranked);
      response.timings.score_seconds = score_timer.seconds();
    } else {
      // Pruned engine: lazy block cursors (outside the postings cache —
      // caching a decoded list is exactly the work block-max skipping
      // avoids) driving MaxScore.
      const WallTimer lookup_timer;
      std::vector<std::unique_ptr<PostingsCursor>> cursors;
      cursors.reserve(terms.size());
      for (const auto& term : terms) {
        cursors.push_back(open_term_cursor(snap, term));
      }
      response.timings.lookup_seconds = lookup_timer.seconds();
      const WallTimer score_timer;
      std::vector<TopkTermInput> inputs;
      inputs.reserve(terms.size());
      for (std::size_t t = 0; t < terms.size(); ++t) {
        if (cursors[t] == nullptr) continue;
        TopkTermInput input;
        input.term_index = t;
        // df from the cursor's skip data — the same integer the decoded
        // list's length would give, so idf matches exhaustive exactly.
        input.idf = bm25_idf(
            scatter != nullptr ? scatter->term_dfs[t] : cursors[t]->size(), n_docs);
        // The bound pairs the (possibly global) idf with the local
        // max_tf: contributions below use the same idf, so the bound
        // still over-covers and pruning stays exact.
        input.upper_bound =
            bm25_upper_bound(input.idf, term_max_tf(snap, terms[t]), request.bm25);
        input.cursor = std::move(cursors[t]);
        inputs.push_back(std::move(input));
      }
      auto topk = maxscore_topk(std::move(inputs), request.k, request.bm25,
                                stats->lengths, avgdl, deadline, excluded);
      response.hits = std::move(topk.hits);
      if (topk.degraded) response.degradation = Degradation::kDeadlinePartial;
      ins_->blocks_skipped.add(topk.blocks_skipped);
      response.timings.score_seconds = score_timer.seconds();
    }
  } else if (flat_conjunction(root)) {
    // AND / PHRASE / NEAR over plain terms and positional groups: the
    // cursor-intersection engine with Bloom rejection and per-candidate
    // positional verification. Tombstones filtered at the driver.
    const WallTimer score_timer;
    bool degraded = false;
    auto acc = eval_conjunction(root, snap, deadline, excluded, degraded);
    if (!acc.has_value()) return acc.error();
    if (degraded) response.degradation = Degradation::kDeadlinePartial;
    response.hits = rank_by_tf(acc.value(), request.k, /*excluded=*/nullptr);
    response.timings.score_seconds = score_timer.seconds();
  } else {
    // General nested trees (OR roots, AND over OR groups, ...): the
    // recursive decoded evaluator, ranked by (tf desc, doc id asc).
    const WallTimer score_timer;
    bool degraded = false;
    auto acc = eval_node(root, snap, snapshot_id, deadline, degraded);
    if (!acc.has_value()) return acc.error();
    if (degraded) response.degradation = Degradation::kDeadlinePartial;
    response.hits = rank_by_tf(acc.value(), request.k, excluded);
    response.timings.score_seconds = score_timer.seconds();
  }
  response.timings.total_seconds = total_timer.seconds();

  if (response.degraded()) ins_->degraded.add();
  ins_->lookup_micros.add(response.timings.lookup_seconds * 1e6);
  ins_->score_micros.add(response.timings.score_seconds * 1e6);
  ins_->total_micros.add(response.timings.total_seconds * 1e6);

  // Degraded answers are timing accidents, not the query's answer — they
  // must never be replayed from the cache.
  if (cacheable && !response.degraded()) {
    result_cache_.put(result_key,
                      std::make_shared<const std::vector<ScoredDoc>>(response.hits));
  }
  return response;
}

}  // namespace hetindex
