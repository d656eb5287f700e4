/// \file selftest.cpp
/// Self-tests of the harness's own arithmetic (stats.hpp): percentile
/// selection and the ten-samples-beyond rule, windowed quantiles, failures
/// counted as misses, open-loop timing from the scheduled send time with
/// lateness accounting, and serial_sum_over_wall. Prints one line per
/// failed expectation and exits non-zero if any failed.

#include <cmath>
#include <cstdio>

#include "stats.hpp"

namespace {

using namespace perfbench;

int failures = 0;

void expect(bool ok, const char* what, int line) {
  if (ok) return;
  ++failures;
  std::printf("FAIL line %d: %s\n", line, what);
}
#define EXPECT(cond) expect((cond), #cond, __LINE__)

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void percentile_selection() {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  EXPECT(nearest_rank(100, 0.5) == 50);
  EXPECT(nearest_rank(100, 0.99) == 99);
  EXPECT(nearest_rank(1, 0.99) == 1);
  EXPECT(near(quantile_sorted(v, 0.5), 50));
  EXPECT(near(quantile_sorted(v, 0.99), 99));
  EXPECT(near(quantile_sorted(v, 1.0), 100));
  EXPECT(near(quantile_sorted({}, 0.5), 0));
  EXPECT(near(median({3, 1, 2}), 2));
  EXPECT(near(median({4, 1, 2, 3}), 2.5));
  EXPECT(near(highest({4, 9, 2}), 9));
  EXPECT(near(highest({}), 0));
}

void ten_beyond_rule() {
  // p99 of n samples leaves n - ceil(0.99 n) beyond it: 10 needs n = 1000.
  EXPECT(samples_beyond(1000, 0.99) == 10);
  EXPECT(tail_ok(1000, 0.99));
  EXPECT(!tail_ok(999, 0.99));
  EXPECT(tail_ok(20, 0.5));
  EXPECT(!tail_ok(19, 0.5));
  EXPECT(samples_beyond(0, 0.99) == 0);
  // Windows shrink until each keeps 100 beyond: 50000 -> 5 x 10000 at
  // p99, 49999 -> 4; 2000 at p95 -> 1 (only 100 beyond in all).
  EXPECT(windows_for(50000, 0.99, 5) == 5);
  EXPECT(windows_for(49999, 0.99, 5) == 4);
  EXPECT(windows_for(4000, 0.95, 10) == 2);
  EXPECT(windows_for(2000, 0.95, 10) == 1);
}

void best_window_quantile() {
  // Five windows of 100, window w offset by 10 w, window 2 slow: the best
  // window's median is window 0's.
  LatencySet set;
  for (int w = 0; w < 5; ++w) {
    for (int i = 1; i <= 100; ++i) set.ok(w == 2 ? 1000.0 + i : 10.0 * w + i);
  }
  EXPECT(near(set.best_window_quantile(0.5, 1e9, 5), 50));
  EXPECT(near(set.best_window_quantile(0.5, 1e9, 1), 83));  // whole stream
  // A window full of failures is judged at the miss value, not skipped.
  LatencySet failing;
  for (int i = 0; i < 10; ++i) failing.failed();
  EXPECT(near(failing.best_window_quantile(0.5, 777, 2), 777));
}

void failure_as_miss() {
  LatencySet set;
  for (int i = 1; i <= 98; ++i) set.ok(i);
  set.failed();
  set.failed();
  EXPECT(set.attempted() == 100);
  EXPECT(set.failures() == 2);
  // The two failures sort above every success: p99 lands on a miss.
  EXPECT(near(set.quantile(0.99, 5000), 5000));
  EXPECT(near(set.quantile(0.98, 5000), 98));
  EXPECT(near(set.quantile(0.5, 5000), 50));
  LatencySet other;
  other.failed();
  set.merge(other);
  EXPECT(set.failures() == 3 && set.attempted() == 101);
}

void open_loop_timing() {
  using namespace std::chrono;
  const auto t0 = OpenLoopSchedule::Clock::time_point{} + seconds(100);
  const OpenLoopSchedule schedule(t0, 1000.0);  // one request per millisecond
  EXPECT(schedule.due(0) == t0);
  EXPECT(schedule.due(5) == t0 + milliseconds(5));
  // Request 5 sent 2 ms late and done 3 ms after sending: its latency is
  // 5 ms, counted from when it was due, and the generator was 2 ms late.
  const auto sent = t0 + milliseconds(7);
  EXPECT(near(schedule.latency_us(5, sent + milliseconds(3)), 5000));
  EXPECT(near(schedule.lateness_ms(5, sent), 2));
  // An early send is not negative lateness.
  EXPECT(near(schedule.lateness_ms(6, t0 + milliseconds(5)), 0));
}

void serial_sum() {
  EXPECT(near(serial_sum_over_wall({0.5, 0.25, 0.25}, 0.5), 2.0));
  EXPECT(near(serial_sum_over_wall({1.0}, 2.0), 0.5));
  EXPECT(near(serial_sum_over_wall({1.0}, 0.0), 0.0));
}

}  // namespace

int main() {
  percentile_selection();
  ten_beyond_rule();
  best_window_quantile();
  failure_as_miss();
  open_loop_timing();
  serial_sum();
  std::printf("perfbench_selftest: %s\n", failures == 0 ? "ok" : "FAILED");
  return failures == 0 ? 0 : 1;
}
