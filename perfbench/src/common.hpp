// Shared plumbing of the benchmark driver: command line, clocks, the
// seeded input RNG, order statistics, the result record and its JSON
// line, and the run stamp.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Args final {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// Parses `--workload W --seed N --seconds S --trace 0|1`; throws
/// std::invalid_argument on anything else.
[[nodiscard]] Args parse_args(int argc, char** argv);

[[nodiscard]] std::int64_t now_ns() noexcept;
[[nodiscard]] inline double ns_to_us(std::int64_t ns) noexcept { return static_cast<double>(ns) / 1e3; }
[[nodiscard]] inline double ns_to_ms(std::int64_t ns) noexcept { return static_cast<double>(ns) / 1e6; }

/// SplitMix64 over the workload seed.  The benchmark derives every input
/// from this generator, not from the library's RNG family, so inputs stay
/// the same when the library's streams change.
class InputRng final {
 public:
  explicit InputRng(std::uint64_t seed) noexcept : state_(seed) {}
  std::uint64_t next() noexcept;
  /// Uniform in [0, 1).
  double uniform() noexcept;
  /// Uniform in [lo, hi).
  double range(double lo, double hi) noexcept { return lo + (hi - lo) * uniform(); }

 private:
  std::uint64_t state_;
};

/// Mixes a seed with a stream label, so each input family draws its own
/// stream from one workload seed.
[[nodiscard]] std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t label) noexcept;

/// Order statistic at `q` in [0, 1] by linear interpolation between
/// closest ranks (0 for an empty sample).  Sorts a copy.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] double median(std::vector<double> values);
[[nodiscard]] double mean(const std::vector<double>& values);

/// One workload run's verdict and metrics, printed as the final JSON line.
struct Result final {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, std::pair<double, std::string>> metrics;  ///< name -> (value, unit)

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  /// Records a failed correctness check: the run is not correct, and the
  /// check's operation counts as failed.
  void mismatch(const std::string& what);
  [[nodiscard]] std::string json() const;
};

/// cpu model, nproc, SIMD dispatch level, compiler and build type, as one
/// JSON object.
[[nodiscard]] std::string stamp_json();
[[nodiscard]] bool release_build() noexcept;

/// Peak resident set of this process in MiB (VmHWM).
[[nodiscard]] double peak_rss_mb();

/// Per-run scratch directory under the checkout (".bench_out/run-<pid>"),
/// created on first use and removed by remove_scratch_dir().
[[nodiscard]] const std::string& scratch_dir();
void remove_scratch_dir();

/// A directory under .bench_out/kept/ that outlives the run, for blob
/// files.  Deleting ~10^4 small files slows later file creation on ext4
/// with online discard for minutes, so one run's clean-up would become the
/// next run's measurement; delete .bench_out/ when done benchmarking.
[[nodiscard]] std::string kept_dir(const std::string& name);

/// Runs `set_up(i)` `repeats` times, calling `tear_down()` untimed between
/// them, and returns the median set-up time in seconds.  The last set-up
/// stays in place for the measurement.
template <typename TearDown, typename SetUp>
double median_setup_s(int repeats, TearDown&& tear_down, SetUp&& set_up) {
  std::vector<double> seconds;
  for (int i = 0; i < repeats; ++i) {
    if (i > 0) tear_down();
    const std::int64_t t0 = now_ns();
    set_up(i);
    seconds.push_back(ns_to_ms(now_ns() - t0) / 1e3);
  }
  return median(seconds);
}

/// p50 and p90 of one operation's latencies, ms.
struct Tail final {
  double p50 = 0.0;
  double p90 = 0.0;
};

/// Quantiles over every sample.
[[nodiscard]] Tail pooled(const std::vector<double>& ms);

/// A latency sample stamped with when its operation was due.
struct TimedSample final {
  std::int64_t at_ns = 0;
  double ms = 0.0;
};

/// Quantiles per window of `window_ns` (by due time), then the median
/// across windows, so a host hiccup in one window does not move the run's
/// figure.  Windows with fewer than 20 samples are skipped; with no full
/// window it falls back to pooled().
[[nodiscard]] Tail windowed(const std::vector<TimedSample>& samples, std::int64_t window_ns);

/// The end-to-end metric set every workload reports (BENCHMARK.json);
/// each workload maps its two timed operations onto A and B.
struct EndToEnd final {
  double setup_s = 0.0;
  Tail op_a;
  Tail op_b;
  double throughput_per_s = 0.0;
};

void report_end_to_end(const EndToEnd& e2e, Result& result);

}  // namespace perfbench
