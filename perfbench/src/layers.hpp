// Workload entry points and per-layer helpers of the benchmark driver.
#pragma once

#include <string>

#include "common.hpp"
#include "nanocost/obs/metrics.hpp"

namespace perfbench {

/// Each workload runs its set-up, measured phase and correctness checks.
/// Untraced, it reports the end-to-end metrics; traced, it measures its
/// phase once untraced and once traced and reports the per-layer metrics
/// its own traffic produces, plus the tracing overhead.
void run_serve_light(const Args& args, Result& result);
void run_serve_campaign(const Args& args, Result& result);
void run_design_flow(const Args& args, Result& result);

/// Direct calls into each layer on fixed, seeded inputs (codec, eq4,
/// risk, pool fan-out, fabsim, artifact store, checkpoint, cache).  Run in
/// every traced run so each per-layer unit cost is reported everywhere.
void run_layer_probes(std::uint64_t seed, Result& result);

/// Change of the program's own metrics registry across a phase: counters
/// and histogram sum/count (never bucket quantiles).
class MetricsWindow final {
 public:
  MetricsWindow();
  /// Ends the window; later reads use the change up to now.
  void close();
  [[nodiscard]] double counter(const std::string& name) const;
  /// Histogram sum/count over the window (0 when nothing was recorded).
  [[nodiscard]] double histogram_mean(const std::string& name) const;

 private:
  nanocost::obs::MetricsSnapshot before_;
  nanocost::obs::MetricsSnapshot delta_;
};

/// a / b, or 0 when b is 0.
[[nodiscard]] inline double ratio(double a, double b) { return b != 0.0 ? a / b : 0.0; }

/// Relative change of a traced figure over its untraced twin, in percent.
[[nodiscard]] inline double overhead_pct(double traced, double untraced) {
  return untraced > 0.0 ? (traced - untraced) / untraced * 100.0 : 0.0;
}

}  // namespace perfbench
