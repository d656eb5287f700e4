/// \file live_mixed.cpp
/// The live pass of a traced run: writes beside reads on one live index.
/// It is not a benchmark workload of its own: the writer's closed-loop
/// ingest rate, the figure it would report, spread 0.25-0.39 (IQR/median
/// over 5-10 seeds) on a shared 4-vCPU VM against the 0.25 cap, at 10-25
/// s of writing per run.
///
/// A writer thread drives IndexWriter closed-loop — adds, with deletes and
/// updates at fixed ratios, auto-flush and background compaction — while
/// a reader thread sends ranked and AND queries at a fixed open-loop rate
/// through a Searcher following the writer's snapshots. Documents are
/// parsed one at a time and queries read the memtable plus small
/// segments, unlike the batch workloads.
///
/// After the run the writer flushes and compacts, then the directory is
/// reopened: the live document count and sampled query answers must equal
/// what was acknowledged before the reopen.

#include <atomic>
#include <cmath>
#include <filesystem>
#include <optional>
#include <thread>

#include "core/hetindex.hpp"
#include "harness.hpp"
#include "inputs.hpp"

namespace perfbench {
namespace {

using namespace hetindex;

constexpr std::uint64_t kBaseBytes = 4ull << 20;  // flushed in set-up
constexpr std::uint64_t kFeedBytes = 4ull << 20;  // cycled by the writer
constexpr double kReadQps = 600;
/// Body bytes acknowledged per second of --seconds: the pass's fixed
/// write volume, under the 3.2-7 MB/s (950-2000 documents/s) one writer
/// sustained beside the reader on a shared 4-vCPU VM, so the writer
/// mostly finishes within --seconds and always within 1.5 times that.
constexpr double kNominalBytesPerS = 3e6;

/// The write volume of a run: whole auto-flushes plus half of one. The
/// number of flushes, and with it the segment layout compaction ends
/// with, is then the same on every seed; a volume ending near a flush
/// boundary gave two layouts 17% apart in stored bytes.
std::uint64_t write_volume(double seconds) {
  const double flush = static_cast<double>(IndexWriterOptions{}.flush_threshold_bytes);
  const double flushes = std::floor(seconds * kNominalBytesPerS / flush);
  return static_cast<std::uint64_t>((flushes + 0.5) * flush);
}

constexpr std::size_t kPoolPerClass = 1024;
constexpr std::uint64_t kOpsPerCycle = 50;  // 1 delete, 4 updates, 45 adds
constexpr std::uint64_t kUpdatesPerCycle = 4;

struct Live {
  std::string dir;
  std::vector<Document> feed;
  std::optional<IndexWriter> writer;
  std::vector<std::uint32_t> live_ids;  ///< acknowledged and not deleted
  std::vector<std::uint32_t> deleted;
  std::uint64_t acked_bytes = 0;
  std::vector<Query> pools[2];  ///< ranked, AND
};

std::unique_ptr<Live> set_up(const Args& args) {
  auto s = std::make_unique<Live>();
  s->dir = fresh_dir(args, "live");
  // Production defaults: auto-flush at 4 MB, background tiered compaction.
  s->writer.emplace(IndexWriter::open(s->dir).value());
  for (const auto& doc : wiki_documents(args.seed, kBaseBytes)) {
    s->live_ids.push_back(s->writer->add_document(doc.url, doc.body));
    s->acked_bytes += doc.body.size();
  }
  HET_CHECK(s->writer->flush().has_value());
  s->feed = wiki_documents(args.seed + 1, kFeedBytes);

  const TermDraw terms(snapshot_dfs(*s->writer->snapshot()));
  Rng rng(args.seed * 104729 + 3);
  s->pools[0] = query_pool(terms, QueryClass::kRanked, kPoolPerClass, rng);
  s->pools[1] = query_pool(terms, QueryClass::kConjunctive, kPoolPerClass, rng);
  return s;
}

std::shared_ptr<Searcher> follow(const IndexWriter& writer) {
  return Searcher::open(SearchSource::live([w = &writer] { return w->snapshot(); })).value();
}

struct WriterOutcome {
  LatencySet adds, deletes, updates;
  double docs_s = 0;  ///< acknowledged adds and updates per second
};

/// The writer loop: acknowledges `target` body bytes of added or updated
/// documents (or stops at `max_seconds`), then raises `done`. A fixed
/// volume per run keeps the merge work, the index size and the memory a
/// run ends with the same from run to run.
WriterOutcome write_loop(Live& s, std::uint64_t seed, std::uint64_t target,
                         double max_seconds, std::atomic<bool>& done) {
  WriterOutcome out;
  Rng rng(seed);
  const auto start = Clock::now();
  const auto take_live = [&]() {
    const std::size_t at = rng.below(s.live_ids.size());
    const std::uint32_t id = s.live_ids[at];
    s.live_ids[at] = s.live_ids.back();
    s.live_ids.pop_back();
    return id;
  };
  std::uint64_t acked = 0, acked_bytes = 0;
  for (std::uint64_t op = 0; acked_bytes < target && seconds_since(start) < max_seconds; ++op) {
    const Document& doc = s.feed[op % s.feed.size()];
    const std::string url = doc.url + "#" + std::to_string(op);
    const std::uint64_t slot = op % kOpsPerCycle;
    const auto t0 = Clock::now();
    bool acked_doc = false;
    if (slot == 0) {
      const std::uint32_t id = take_live();
      const auto status = s.writer->delete_document(id);
      if (status.has_value()) {
        out.deletes.ok(elapsed_us(t0));
        s.deleted.push_back(id);
      } else {
        out.deletes.failed();
        s.live_ids.push_back(id);
      }
    } else if (slot <= kUpdatesPerCycle) {
      const std::uint32_t id = take_live();
      const auto fresh = s.writer->update_document(id, url, doc.body);
      if (fresh.has_value()) {
        out.updates.ok(elapsed_us(t0));
        s.deleted.push_back(id);
        s.live_ids.push_back(fresh.value());
        acked_doc = true;
      } else {
        out.updates.failed();
        s.live_ids.push_back(id);
      }
    } else {
      s.live_ids.push_back(s.writer->add_document(url, doc.body));
      out.adds.ok(elapsed_us(t0));
      acked_doc = true;
    }
    if (acked_doc) {
      s.acked_bytes += doc.body.size();
      acked_bytes += doc.body.size();
      ++acked;
    }
  }
  out.docs_s = static_cast<double>(acked) / seconds_since(start);
  done.store(true);
  return out;
}

struct ReaderOutcome {
  LatencySet scheduled;  ///< from each request's due time
  LatencySet direct;     ///< Searcher::search alone
  std::vector<double> snapshot_us;
  std::size_t segments_max = 0;
};

/// Ranked and AND queries alternating, sent open-loop at kReadQps until
/// the writer is done and the stream holds enough samples for its p99.
ReaderOutcome read_loop(const Live& s, const Searcher& searcher, std::uint64_t seed,
                        const std::atomic<bool>& done) {
  ReaderOutcome out;
  Rng rng(seed);
  const OpenLoopSchedule schedule(Clock::now() + std::chrono::milliseconds(5), kReadQps);
  for (std::uint64_t i = 0; !done.load() || !tail_ok(out.scheduled.attempted(), 0.99); ++i) {
    const auto& pool = s.pools[i % 2];
    QueryRequest request;
    request.query = pool[rng.below(pool.size())];
    std::this_thread::sleep_until(schedule.due(i));
    const auto sent = Clock::now();
    const auto snap = s.writer->snapshot();
    out.snapshot_us.push_back(elapsed_us(sent));
    out.segments_max = std::max(out.segments_max, snap->segment_count());
    const auto t0 = Clock::now();
    const auto r = searcher.search(request);
    const auto finished = Clock::now();
    if (r.has_value() && !r.value().degraded()) {
      out.scheduled.ok(schedule.latency_us(i, finished));
      out.direct.ok(std::chrono::duration<double, std::micro>(finished - t0).count());
    } else {
      out.scheduled.failed();
      out.direct.failed();
    }
  }
  return out;
}

using Answers = std::vector<std::vector<ScoredDoc>>;

Answers sample_answers(const Live& s, const Searcher& searcher, Result& result) {
  Answers answers;
  for (std::size_t c = 0; c < 2; ++c) {
    for (std::size_t i = 0; i < 32; ++i) {
      QueryRequest request;
      request.query = s.pools[c][(i * 31) % s.pools[c].size()];
      request.use_result_cache = false;
      const auto r = searcher.search(request);
      result.check(r.has_value(), "sample query failed: " + request.query.to_string());
      answers.push_back(r.has_value() ? r.value().hits : std::vector<ScoredDoc>{});
    }
  }
  return answers;
}

bool same_answers(const Answers& a, const Answers& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t q = 0; q < a.size(); ++q) {
    if (a[q].size() != b[q].size()) return false;
    for (std::size_t i = 0; i < a[q].size(); ++i) {
      if (a[q][i].doc_id != b[q][i].doc_id || a[q][i].score != b[q][i].score) return false;
    }
  }
  return true;
}

}  // namespace

void trace_live_mixed(const Args& args, Result& result) {
  const auto s = set_up(args);

  WriterOutcome writes;
  ReaderOutcome reads;
  {
    const auto searcher = follow(*s->writer);
    std::atomic<bool> done{false};
    const std::uint64_t target = write_volume(args.seconds);
    std::thread writer([&] {
      writes = write_loop(*s, args.seed + 5, target, 1.5 * args.seconds, done);
    });
    reads = read_loop(*s, *searcher, args.seed + 6, done);
    writer.join();
  }
  result.count(writes.adds);
  result.count(writes.deletes);
  result.count(writes.updates);
  result.count(reads.scheduled);

  HET_CHECK(s->writer->flush().has_value());
  const auto t0 = Clock::now();
  const auto compacted = s->writer->compact_now();
  const double compact_s = seconds_since(t0);
  result.check(compacted.has_value(), "compact_now failed");

  // Acknowledged state, then the same after a reopen.
  const std::uint64_t expected_live = s->live_ids.size();
  Answers before;
  {
    const auto searcher = follow(*s->writer);
    before = sample_answers(*s, *searcher, result);
  }
  result.verify(s->writer->snapshot()->doc_count() == expected_live,
                "live doc count differs from the acknowledged count before reopen");
  std::sort(s->deleted.begin(), s->deleted.end());
  for (const auto& hits : before) {
    const bool none_deleted = std::none_of(hits.begin(), hits.end(), [&](const ScoredDoc& hit) {
      return std::binary_search(s->deleted.begin(), s->deleted.end(), hit.doc_id);
    });
    result.verify(none_deleted, "a query returned a deleted document");
  }
  const auto metrics = s->writer->metrics().snapshot();
  s->writer.reset();
  s->writer.emplace(IndexWriter::open(s->dir).value());
  result.verify(s->writer->snapshot()->doc_count() == expected_live,
                "live doc count after reopen differs from the acknowledged count");
  {
    const auto searcher = follow(*s->writer);
    result.verify(same_answers(before, sample_answers(*s, *searcher, result)),
                  "query answers after reopen differ from before");
  }
  result.env.emplace_back("live_docs", std::to_string(expected_live));
  result.env.emplace_back("corpus_bytes", std::to_string(s->acked_bytes));

  const double miss_us = args.seconds * 1e6;
  // Printed: what the pass's end-to-end figures would be.
  result.note("ingest_docs_s", writes.docs_s, "1/s",
              writes.adds.attempted() + writes.updates.attempted());
  add_quantile(result, "query_p50_us", reads.scheduled, 0.50, miss_us, 1, false);
  add_quantile(result, "live.add_document_p50_us", writes.adds, 0.50, miss_us, 1);
  add_quantile(result, "live.add_document_p99_us", writes.adds, 0.99, miss_us, 1);
  result.add("live.flushes", static_cast<double>(metrics.counter("live_flushes_total")), "count");
  result.add("live.flush_s", metrics.time_seconds("live_flush_seconds_total"), "s");
  result.add("live.delete_us", writes.deletes.quantile(0.5, miss_us), "us",
             writes.deletes.attempted());
  result.add("live.compact_s", compact_s, "s");
  result.add("live.snapshot_us", median(reads.snapshot_us), "us", reads.snapshot_us.size());
  result.add("live.segments_max", static_cast<double>(reads.segments_max), "count");
  add_quantile(result, "search.live_searcher_p99_us", reads.direct, 0.99, miss_us, 1);
}

}  // namespace perfbench
