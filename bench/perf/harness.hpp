// Shared machinery of chenfd_bench: the timer, order statistics, the
// seeded input hash, the in-memory span recorder and the report that
// prints every metric and writes BENCH_perf.json.

#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"

namespace chenfd::perf {

/// Monotonic integer nanoseconds.  Sub-millisecond timings must not come
/// from rt::MonotonicClock: its epoch-based double seconds have a ULP of
/// ~0.24 us near 1.7e9 s, which quantizes short intervals.
[[nodiscard]] inline std::int64_t now_ns() {
  // detlint: allow(R1) measuring wall-clock time is this benchmark's job
  const auto now = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             now.time_since_epoch())
      .count();
}

/// Seconds elapsed since `start_ns`.
[[nodiscard]] inline double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

/// Linearly interpolated quantile q in [0, 1] (the "R-7" definition);
/// 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

/// Stateless input draw keyed by (seed, a, b, purpose): inputs are a pure
/// function of their coordinates, never of generation order.
[[nodiscard]] inline std::uint64_t draw(std::uint64_t seed, std::uint64_t a,
                                        std::uint64_t b,
                                        std::uint64_t purpose) {
  SplitMix64 sm(seed ^ (a * 0x9E3779B97F4A7C15ULL) ^
                (b * 0xC2B2AE3D27D4EB4FULL) ^
                (purpose * 0x165667B19E3779F9ULL));
  return sm.next();
}

/// Uniform double in [0, 1) from 53 bits of a draw.
[[nodiscard]] inline double unit(std::uint64_t bits) {
  return static_cast<double>(bits >> 11) * 0x1.0p-53;
}

/// Spans recorded in memory and written at exit as Chrome trace-event
/// JSON.  Single-threaded: the benchmark opens spans only on its own
/// driving thread, around calls into the layers.  A disabled trace records
/// nothing and costs one branch per call.
class Trace {
 public:
  static constexpr std::size_t kNone = ~std::size_t{0};

  explicit Trace(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const { return enabled_; }
  /// Opens a span; `id` groups the spans of one heartbeat (process << 32 |
  /// seq) or is 0.  Returns a handle for end().
  std::size_t begin(const char* name, std::uint64_t id = 0);
  void end(std::size_t handle);

  struct SelfTime {
    std::string name;
    std::uint64_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;  ///< total minus the time covered by child spans
  };
  /// Per span name, sorted by name.
  [[nodiscard]] std::vector<SelfTime> self_times() const;
  /// Sum of the durations of spans called `name`, and their count.
  [[nodiscard]] SelfTime totals(const std::string& name) const;
  [[nodiscard]] std::size_t size() const { return spans_.size(); }
  void write_chrome(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    std::int64_t start;
    std::int64_t end;
    std::size_t parent;
    std::uint64_t id;
  };
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

/// RAII span; a no-op on a disabled trace.
class ScopedSpan {
 public:
  ScopedSpan(Trace& trace, const char* name, std::uint64_t id = 0)
      : trace_(trace),
        handle_(trace.enabled() ? trace.begin(name, id) : Trace::kNone) {}
  ~ScopedSpan() {
    if (handle_ != Trace::kNone) trace_.end(handle_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Trace& trace_;
  std::size_t handle_;
};

/// One reported number.  `samples` is the sample count behind a
/// percentile or median (0 when not applicable).
struct Row {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::uint64_t samples = 0;
};

/// Collects rows and output checks, prints each row as `name value unit`
/// and writes BENCH_perf.json.
class Report {
 public:
  void e2e(const std::string& name, double value, const std::string& unit,
           std::uint64_t samples = 0);
  void layer(const std::string& name, double value, const std::string& unit,
             std::uint64_t samples = 0);
  /// Records an output check; a failed one makes the run incorrect.
  void check(const std::string& name, bool ok, const std::string& detail);
  /// Operations the workload attempted, and those that failed or were
  /// refused.
  void count_ops(std::uint64_t attempted, std::uint64_t failed);

  [[nodiscard]] bool correct() const;
  [[nodiscard]] const std::vector<Row>& e2e_rows() const { return e2e_; }

  void write_json(const std::string& path, const std::string& workload,
                  std::uint64_t seed, double seconds, bool traced) const;

 private:
  struct Check {
    std::string name;
    bool ok;
    std::string detail;
  };
  std::vector<Row> e2e_;
  std::vector<Row> layer_;
  std::vector<Check> checks_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Peak resident set size of this process, in MB.
[[nodiscard]] double peak_rss_mb();

}  // namespace chenfd::perf
