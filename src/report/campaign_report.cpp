#include "nanocost/report/campaign_report.hpp"

#include <cstdio>

#include "nanocost/robust/metrics.hpp"

namespace nanocost::report {

namespace {

/// Observability footer sourced from the robust metric table.  The
/// registry is process-cumulative, so across several campaigns in one
/// process these totals cover all of them, not just `result` -- the
/// footer says so.  Rendered only when metrics are on.
std::string render_obs_footer() {
  const robust::RobustMetrics* m = obs::metrics_table<robust::RobustMetrics>();
  if (m == nullptr) return {};
  const auto ull = [](std::uint64_t v) { return static_cast<unsigned long long>(v); };
  char line[256];
  std::string out = "  observability (process totals):\n";
  std::snprintf(line, sizeof(line), "    chunks retried: %llu, quarantined: %llu\n",
                ull(m->retries.value()), ull(m->quarantined.value()));
  out += line;
  std::snprintf(line, sizeof(line), "    checkpoint writes: %llu (%llu bytes)\n",
                ull(m->checkpoint_writes.value()), ull(m->checkpoint_bytes.value()));
  out += line;
  if (const obs::Histogram& waves = m->wave_ms; waves.count() > 0) {
    std::snprintf(line, sizeof(line),
                  "    waves: %llu, wall-time per wave: mean %.1f ms (min %llu, max %llu)\n",
                  ull(waves.count()), waves.mean(), ull(waves.min()), ull(waves.max()));
    out += line;
  }
  // Overload/deadline lines appear only once those paths have fired --
  // a process that never expired or abandoned anything keeps a quiet
  // footer.
  const std::uint64_t expired = m->expired.value();
  const std::uint64_t abandoned = m->retry_abandoned.value();
  if (expired > 0 || abandoned > 0) {
    std::snprintf(line, sizeof(line), "    overload: expired %llu, retries abandoned %llu\n",
                  ull(expired), ull(abandoned));
    out += line;
  }
  if (const obs::Histogram& lat = m->cancel_latency_us; lat.count() > 0) {
    std::snprintf(line, sizeof(line),
                  "    cancel latency: %llu observation(s), mean %.0f us (max %llu)\n",
                  ull(lat.count()), lat.mean(), ull(lat.max()));
    out += line;
  }
  return out;
}

}  // namespace

std::string render_campaign(const robust::CampaignResult& result,
                            const std::string& unit_name) {
  char line[256];
  std::string out;
  std::snprintf(line, sizeof(line), "campaign: %lld/%lld chunks (%lld/%lld %ss), completeness %.4f\n",
                static_cast<long long>(result.completed_chunks),
                static_cast<long long>(result.total_chunks),
                static_cast<long long>(result.completed_units),
                static_cast<long long>(result.total_units), unit_name.c_str(),
                result.completeness());
  out += line;
  std::snprintf(line, sizeof(line), "  restored chunks: %lld, retries: %lld%s\n",
                static_cast<long long>(result.artifact_hits),
                static_cast<long long>(result.retries),
                result.expired       ? ", deadline expired (checkpointed, resumable)"
                : result.interrupted ? ", interrupted (checkpointed mid-run)"
                                     : "");
  out += line;
  if (result.quarantined.empty()) {
    out += "  quarantine: empty\n";
    out += render_obs_footer();
    return out;
  }
  std::snprintf(line, sizeof(line), "  quarantine: %zu chunk(s)\n", result.quarantined.size());
  out += line;
  for (const robust::ChunkFailure& f : result.quarantined) {
    std::snprintf(line, sizeof(line), "    chunk %lld (%ss [%lld, %lld)): %.160s\n",
                  static_cast<long long>(f.chunk), unit_name.c_str(),
                  static_cast<long long>(f.unit_begin), static_cast<long long>(f.unit_end),
                  f.error.c_str());
    out += line;
  }
  out += render_obs_footer();
  return out;
}

}  // namespace nanocost::report
