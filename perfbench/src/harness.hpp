#pragma once
/// \file harness.hpp
/// Plumbing shared by the workloads and traced passes: command-line
/// arguments, the result being assembled (metrics with units and sample
/// counts, the correctness verdict, attempted/failed operation counts),
/// set-up repetition, and small filesystem and process probes.

#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <string>
#include <vector>

#include "postings/query.hpp"
#include "stats.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;  ///< scratch space inside the checkout; wiped after the run
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::size_t samples = 0;  ///< operations behind the figure (0 = not a sample statistic)
  bool reported = true;     ///< false: printed for reading, left out of the result object
};

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Extra environment facts ("corpus_bytes", ...), as raw JSON values.
  std::vector<std::pair<std::string, std::string>> env;

  void add(std::string name, double value, std::string unit, std::size_t samples = 0) {
    metrics.push_back({std::move(name), value, std::move(unit), samples, true});
  }
  /// A figure printed beside the metrics but not part of the result object.
  void note(std::string name, double value, std::string unit, std::size_t samples = 0) {
    metrics.push_back({std::move(name), value, std::move(unit), samples, false});
  }
  /// Records a correctness check; a failed one fails the whole run.
  void check(bool ok, const std::string& what) {
    if (ok) return;
    correct = false;
    std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  }
  /// A sampled answer compared against its reference: one more operation
  /// attempted, and a wrong answer is both a failure and a failed check.
  void verify(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) ++failed;
    check(ok, what);
  }
  void count(const LatencySet& ops) {
    attempted += ops.attempted();
    failed += ops.failures();
  }
};

inline double seconds_since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

inline double elapsed_us(Clock::time_point t) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t).count();
}

/// Peak resident set of this process so far, in MB.
inline double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

inline std::uint64_t dir_bytes(const std::string& dir) {
  std::uint64_t total = 0;
  for (const auto& entry : std::filesystem::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) total += entry.file_size();
  }
  return total;
}

/// Bytes a batch index directory stores to serve queries: the segment and
/// every sidecar written beside it (`index.seg*`: Bloom filters, block-max
/// and max-tf tables) plus the dictionary.
inline std::uint64_t index_bytes(const std::string& dir) {
  std::uint64_t total = std::filesystem::file_size(hetindex::IndexLayout::dictionary_path(dir));
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().filename().string().rfind("index.seg", 0) == 0) {
      total += entry.file_size();
    }
  }
  return total;
}

inline std::string fresh_dir(const Args& args, const std::string& name) {
  const std::string dir = args.work_dir + "/" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// Number of times a run repeats its set-up; setup_s is their median, so
/// one slow set-up does not decide the figure.
inline constexpr int kSetupRepeats = 3;

/// Times a workload's set-up (`setup` must leave the workload ready). The
/// constructor runs the set-up the measurement uses; finish() runs the
/// other repeats after the measurement and records setup_s. Repeating
/// before the measurement would add to peak_rss_mb the memory the
/// allocator keeps from discarded set-ups: 82-115 MB against 62 MB for
/// one set-up on query_mixed.
class SetupTimer {
 public:
  explicit SetupTimer(std::function<void()> setup) : setup_(std::move(setup)) { time_one(); }
  void finish(Result& result) {
    while (times_.size() < kSetupRepeats) time_one();
    result.add("setup_s", median(times_), "s", times_.size());
  }

 private:
  void time_one() {
    const auto t0 = Clock::now();
    setup_();
    times_.push_back(seconds_since(t0));
  }
  std::function<void()> setup_;
  std::vector<double> times_;
};

/// Slices a run's measurement is cut into. Every time-based figure is
/// taken per slice and the run reports its best slice — the lowest
/// latency quantile, the highest throughput — the way bench_common.hpp
/// keeps per-run minima: on a shared 4-vCPU VM a lone thread sleeping
/// 333 us wakes over 1 ms late on 0.3-1.4% of wakeups (up to 13 ms), at a
/// rate that changes 5x between 10 s stretches, and that only ever adds
/// time.
inline constexpr std::size_t kWindows = 10;

/// Adds a latency quantile in microseconds: the best of up to `windows`
/// slices of the stream, failures counted as misses at `miss_us`. Fails
/// the run when the quantile lacks kTailSamples samples beyond it.
/// `reported` = false prints it without putting it in the result.
inline void add_quantile(Result& result, const std::string& name, const LatencySet& set,
                         double q, double miss_us, std::size_t max_windows = kWindows,
                         bool reported = true) {
  result.check(tail_ok(set.attempted(), q),
               name + ": only " + std::to_string(set.attempted()) +
                   " samples, too few for this percentile");
  const std::size_t windows = windows_for(set.attempted(), q, max_windows);
  const double value = set.best_window_quantile(q, miss_us, windows);
  if (reported) {
    result.add(name, value, "us", set.attempted());
  } else {
    result.note(name, value, "us", set.attempted());
  }
}

/// Prints the p95 and p99 of a serving stream beside the metrics. Tails
/// are not gated: with the host stalls above landing on about 1% of
/// requests, the tail of sub-millisecond queries measures the host.
inline void add_tail(Result& result, const std::string& stem, const LatencySet& set,
                     double miss_us, std::size_t max_windows = kWindows) {
  add_quantile(result, stem + "_p95_us", set, 0.95, miss_us, max_windows, false);
  add_quantile(result, stem + "_p99_us", set, 0.99, miss_us, max_windows, false);
}

/// Each workload reports the same end-to-end metrics (BENCHMARK.json),
/// each in its own terms: setup_s, peak_rss_mb, ops_per_s (its operation
/// completed per second), latency_p50_us (the median wait for one) and
/// index_bytes_per_input_byte (bytes stored per byte of user data). With
/// `args.trace` set, a workload runs its traced pass instead.
void run_build_clueweb(const Args& args, Result& result);
void run_query_mixed(const Args& args, Result& result);
void run_cluster_doc4(const Args& args, Result& result);
/// The live layer's traced pass; there is no untraced live workload.
void trace_live_mixed(const Args& args, Result& result);

}  // namespace perfbench
