#pragma once
/// \file stats.hpp
/// The benchmark's own arithmetic: percentile selection with the
/// "at least ten samples beyond" rule, failures counted as misses, the
/// open-loop schedule with lateness accounting, and the build-layer
/// serial-sum-over-wall ratio. Header-only and free of library
/// dependencies so perfbench_selftest can check it in isolation.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// A percentile is only reported when at least this many samples lie
/// strictly beyond it; p99 therefore needs 1000 samples.
inline constexpr std::size_t kTailSamples = 10;

/// 1-based nearest rank of quantile q (0 < q <= 1) among n samples.
inline std::size_t nearest_rank(std::size_t n, double q) {
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n) - 1e-9));
  return std::clamp<std::size_t>(rank, 1, n);
}

/// Samples strictly beyond the nearest-rank q-quantile.
inline std::size_t samples_beyond(std::size_t n, double q) {
  return n == 0 ? 0 : n - nearest_rank(n, q);
}

/// True when quantile q of n samples has kTailSamples or more beyond it.
inline bool tail_ok(std::size_t n, double q) { return samples_beyond(n, q) >= kTailSamples; }

/// Nearest-rank quantile of an already sorted sample; 0 for an empty one.
inline double quantile_sorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  return sorted[nearest_rank(sorted.size(), q) - 1];
}

inline double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  if (v.empty()) return 0.0;
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// Largest value (a throughput's best slice); 0 for none.
inline double highest(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::max_element(v.begin(), v.end());
}

/// Samples a window must keep beyond its quantile. Ten make a quantile
/// reportable at all; a window's estimate is only as steady as the samples
/// beyond it, so windows are cut no finer than this.
inline constexpr std::size_t kWindowTailSamples = 100;

/// Most windows (up to `max_windows`) into which n samples split with
/// kWindowTailSamples beyond quantile q in each; at least 1.
inline std::size_t windows_for(std::size_t n, double q, std::size_t max_windows) {
  for (std::size_t k = max_windows; k > 1; --k) {
    if (samples_beyond(n / k, q) >= kWindowTailSamples) return k;
  }
  return 1;
}

/// Latencies of one operation stream. A failed operation is recorded as a
/// miss: it takes the `miss_value` latency, which the caller sets above
/// any limit a percentile is judged against (the measured window length),
/// so failures push percentiles up instead of silently vanishing.
class LatencySet {
 public:
  void ok(double us) { values_.push_back(us); }
  void failed() {
    ++failed_;
    values_.push_back(-1.0);  // resolved to miss_value on read
  }
  [[nodiscard]] std::size_t attempted() const { return values_.size(); }
  [[nodiscard]] std::size_t failures() const { return failed_; }
  void merge(const LatencySet& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
    failed_ += other.failed_;
  }

  /// Sorted latencies with every failure replaced by `miss_value`.
  [[nodiscard]] std::vector<double> sorted(double miss_value) const {
    std::vector<double> out = values_;
    for (double& v : out) {
      if (v < 0) v = miss_value;
    }
    std::sort(out.begin(), out.end());
    return out;
  }
  [[nodiscard]] double quantile(double q, double miss_value) const {
    return quantile_sorted(sorted(miss_value), q);
  }

  /// Splits the stream, in recording order, into `windows` equal slices
  /// and returns the lowest of the slices' q-quantiles: the run's best
  /// stretch. Host interference only ever adds time, so the best stretch
  /// is the steadiest estimate of what the program itself costs.
  [[nodiscard]] double best_window_quantile(double q, double miss_value,
                                            std::size_t windows) const {
    windows = std::clamp<std::size_t>(windows, 1, std::max<std::size_t>(values_.size(), 1));
    const std::size_t per = values_.size() / windows;
    std::vector<double> per_window;
    for (std::size_t w = 0; w < windows; ++w) {
      LatencySet slice;
      const std::size_t end = w + 1 == windows ? values_.size() : (w + 1) * per;
      slice.values_.assign(values_.begin() + static_cast<std::ptrdiff_t>(w * per),
                           values_.begin() + static_cast<std::ptrdiff_t>(end));
      per_window.push_back(slice.quantile(q, miss_value));
    }
    return *std::min_element(per_window.begin(), per_window.end());
  }

 private:
  std::vector<double> values_;
  std::size_t failed_ = 0;
};

/// Open-loop send schedule: request i is due at start + i / rate. Latency
/// runs from the due time, not from the actual send, so a stall that
/// delays later sends is charged to them; lateness (send minus due) is
/// the generator's own health figure.
class OpenLoopSchedule {
 public:
  using Clock = std::chrono::steady_clock;

  OpenLoopSchedule(Clock::time_point start, double rate_per_s)
      : start_(start), interval_ns_(1e9 / rate_per_s) {}

  [[nodiscard]] Clock::time_point due(std::uint64_t i) const {
    return start_ + std::chrono::nanoseconds(
                        static_cast<std::int64_t>(static_cast<double>(i) * interval_ns_));
  }
  /// Microseconds from request i's due time to `done`.
  [[nodiscard]] double latency_us(std::uint64_t i, Clock::time_point done) const {
    return std::chrono::duration<double, std::micro>(done - due(i)).count();
  }
  /// How late request i left when sent at `sent`; an early send is on time.
  [[nodiscard]] double lateness_ms(std::uint64_t i, Clock::time_point sent) const {
    return std::max(0.0, std::chrono::duration<double, std::milli>(sent - due(i)).count());
  }

 private:
  Clock::time_point start_;
  double interval_ns_;
};

/// Sum of the layer times measured one by one over the threaded
/// pipeline's wall time. Above 1 the pipeline overlaps layers; the excess
/// is how much it hides.
inline double serial_sum_over_wall(const std::vector<double>& layer_seconds,
                                   double wall_seconds) {
  double sum = 0;
  for (const double s : layer_seconds) sum += s;
  return wall_seconds > 0 ? sum / wall_seconds : 0.0;
}

}  // namespace perfbench
