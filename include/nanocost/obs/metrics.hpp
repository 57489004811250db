// Thread-safe metrics registry: named counters, gauges, and histograms
// that all share one bucket layout.
//
// The engine's long campaigns (fabsim lots, risk sweeps, anneals) are
// invisible without instrumentation, but instrumentation must be free
// when nobody is looking.  The contract mirrors robust's fault
// injection: every site first checks `metrics_enabled()` -- one relaxed
// atomic load plus a predictable branch when metrics are off -- and
// only then touches a metric.  Hot-path updates on enabled metrics are
// lock-free relaxed atomics; registration takes a mutex once per
// module, when its metric table (metrics_table) is first used.
//
// Metrics are observational only: no engine output may depend on a
// metric value, so enabling them cannot perturb results (enforced by
// tests/obs_test.cpp bitwise-determinism checks).
//
// Every histogram uses the same log-linear layout (bucket_index below):
// a bucket per value below 16, then 8 equal sub-buckets per power of
// two, 496 buckets over all of u64.  A bucket is narrower than 1/8 of
// its lower value, which is what bounds the quantile estimates of
// obs/stats.hpp; no site picks bounds of its own.
//
// Enable via code (`set_metrics_enabled(true)`) or the environment
// (`NANOCOST_METRICS=1`).  A malformed NANOCOST_METRICS value prints
// one diagnostic to stderr and leaves metrics disabled.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace nanocost::obs {

/// Buckets in the layout: 16 exact values, then 8 per power of two
/// from 2^4 to 2^63.
inline constexpr std::size_t kHistogramBuckets = 496;

/// The bucket holding `v`, in O(1): below 16 the value itself, above it
/// the power of two (from the bit width) and the next 3 bits below the
/// leading one.
[[nodiscard]] constexpr std::size_t bucket_index(std::uint64_t v) noexcept {
  const int bits = static_cast<int>(std::bit_width(v));
  const int shift = bits > 4 ? bits - 4 : 0;
  return (static_cast<std::size_t>(shift) << 3) + static_cast<std::size_t>(v >> shift);
}

/// Smallest value in bucket `i` (< kHistogramBuckets).
[[nodiscard]] constexpr std::uint64_t bucket_lower(std::size_t i) noexcept {
  if (i < 16) return i;
  return std::uint64_t{(i & 7) | 8} << ((i >> 3) - 1);
}

/// Largest value in bucket `i`, inclusive: the buckets partition
/// [0, 2^64 - 1] and the last one ends at UINT64_MAX.
[[nodiscard]] constexpr std::uint64_t bucket_upper(std::size_t i) noexcept {
  if (i < 16) return i;
  return bucket_lower(i) + ((std::uint64_t{1} << ((i >> 3) - 1)) - 1);
}

/// Monotone event count.  add() is a relaxed fetch_add: lock-free, and
/// safe from any thread.
class Counter final {
 public:
  explicit Counter(std::string name) : name_(std::move(name)) {}
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void add(std::uint64_t delta = 1) noexcept {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::string name_;
  std::atomic<std::uint64_t> value_{0};
};

/// Last-written value (a level, not a count).  Stores a double via
/// relaxed atomic store; add() is a CAS loop (rare path, still
/// lock-free).
class Gauge final {
 public:
  explicit Gauge(std::string name) : name_(std::move(name)) {}
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void set(double v) noexcept { value_.store(v, std::memory_order_relaxed); }
  void add(double delta) noexcept {
    double cur = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(cur, cur + delta, std::memory_order_relaxed)) {
    }
  }
  [[nodiscard]] double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  void reset() noexcept { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::string name_;
  std::atomic<double> value_{0.0};
};

/// Histogram over non-negative integer samples (durations in
/// microseconds, byte counts, ...), bucketed by bucket_index.  All
/// updates are relaxed atomics; record() is wait-free except the
/// min/max CAS loops (which converge in a handful of steps).
class Histogram final {
 public:
  explicit Histogram(std::string name) : name_(std::move(name)) {}
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void record(std::uint64_t v) noexcept;

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  /// Count in layout bucket i (< kHistogramBuckets).
  [[nodiscard]] std::uint64_t bucket_count(std::size_t i) const noexcept {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t min() const noexcept;  ///< 0 when empty
  [[nodiscard]] std::uint64_t max() const noexcept;  ///< 0 when empty
  [[nodiscard]] double mean() const noexcept {
    const std::uint64_t n = count();
    return n > 0 ? static_cast<double>(sum()) / static_cast<double>(n) : 0.0;
  }
  void reset() noexcept;

 private:
  std::string name_;
  std::array<std::atomic<std::uint64_t>, kHistogramBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> min_{~0ULL};
  std::atomic<std::uint64_t> max_{0};
};

/// Looks up (or registers) a metric by name.  References stay valid for
/// the process lifetime.  Sites do not call these: each module declares
/// its metrics once, as reference members of a table that
/// metrics_table() below registers (see its comment).
[[nodiscard]] Counter& counter(std::string_view name);
[[nodiscard]] Gauge& gauge(std::string_view name);
[[nodiscard]] Histogram& histogram(std::string_view name);

/// Value of a registered counter, or 0 when no such counter exists --
/// for report surfaces that must not create metrics as a side effect.
[[nodiscard]] std::uint64_t counter_value(std::string_view name);
/// The registered histogram, or nullptr.
[[nodiscard]] const Histogram* find_histogram(std::string_view name);

/// Forces metrics on or off, overriding (and settling) the environment.
void set_metrics_enabled(bool enabled);

/// Zeroes every registered metric.  Not atomic with respect to
/// concurrent updates; call between runs (tests, benches), not during.
void reset_metrics();

/// Point-in-time copy of every registered metric, sorted by name.
struct HistogramSnapshot final {
  std::string name;
  std::vector<std::uint64_t> buckets;  ///< kHistogramBuckets counts, by layout index
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t min = 0;
  std::uint64_t max = 0;
};
struct MetricsSnapshot final {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<HistogramSnapshot> histograms;
};
[[nodiscard]] MetricsSnapshot snapshot_metrics();

/// Human-readable snapshot block (one metric per line).  The snapshot
/// overloads render a caller-held copy (e.g. one decoded from NCSTAT01,
/// obs/stats.hpp); the zero-arg forms snapshot the live registry.
[[nodiscard]] std::string render_metrics_text(const MetricsSnapshot& snap);
[[nodiscard]] std::string render_metrics_text();
/// The same snapshot as a JSON object:
///   {"counters": {...}, "gauges": {...}, "histograms": {name: {...}}}
/// A histogram lists its non-empty buckets as "buckets": [[le, count],
/// ...], `le` being the bucket's inclusive upper value.
[[nodiscard]] std::string render_metrics_json(const MetricsSnapshot& snap);
[[nodiscard]] std::string render_metrics_json();

namespace detail {

/// 0 = not yet initialised (env not read), 1 = disabled, 2 = enabled.
extern std::atomic<int> g_metrics_state;

/// Reads NANOCOST_METRICS once and settles g_metrics_state.  A value
/// that is not a recognised boolean prints one stderr diagnostic and
/// disables metrics.
bool init_metrics_state_from_env();

}  // namespace detail

/// True when metrics collection is on.  The off path is a single
/// relaxed load plus compare -- cheap enough for every hot-path site.
[[nodiscard]] inline bool metrics_enabled() noexcept {
  const int s = detail::g_metrics_state.load(std::memory_order_relaxed);
  if (s == 0) [[unlikely]] {
    return detail::init_metrics_state_from_env();
  }
  return s == 2;
}

/// A module's metric table, or nullptr while metrics are off (the off
/// path is one relaxed load).  `Table` declares each metric once, as a
/// reference member initialised by counter/gauge/histogram, and the
/// whole table registers together on first use:
///   if (auto* m = obs::metrics_table<FabsimMetrics>()) m->wafers.add();
template <class Table>
[[nodiscard]] Table* metrics_table() {
  if (!metrics_enabled()) return nullptr;
  static Table table;
  return &table;
}

}  // namespace nanocost::obs
