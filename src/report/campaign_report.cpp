#include "nanocost/report/campaign_report.hpp"

#include <cstdio>

#include "nanocost/obs/metrics.hpp"

namespace nanocost::report {

namespace {

/// Observability footer sourced from the metrics registry.  The
/// registry is process-cumulative, so across several campaigns in one
/// process these totals cover all of them, not just `result` -- the
/// footer says so.  Rendered only when metrics are on; counters are
/// looked up without registering them as a side effect.
std::string render_obs_footer() {
  if (!obs::metrics_enabled()) return {};
  char line[256];
  std::string out = "  observability (process totals):\n";
  std::snprintf(line, sizeof(line),
                "    chunks retried: %llu, quarantined: %llu\n",
                static_cast<unsigned long long>(obs::counter_value("robust.retries")),
                static_cast<unsigned long long>(obs::counter_value("robust.quarantined")));
  out += line;
  std::snprintf(line, sizeof(line),
                "    checkpoint writes: %llu (%llu bytes)\n",
                static_cast<unsigned long long>(
                    obs::counter_value("robust.checkpoint_writes")),
                static_cast<unsigned long long>(
                    obs::counter_value("robust.checkpoint_bytes")));
  out += line;
  if (const obs::Histogram* waves = obs::find_histogram("robust.wave_ms")) {
    std::snprintf(line, sizeof(line),
                  "    waves: %llu, wall-time per wave: mean %.1f ms (min %llu, max %llu)\n",
                  static_cast<unsigned long long>(waves->count()), waves->mean(),
                  static_cast<unsigned long long>(waves->min()),
                  static_cast<unsigned long long>(waves->max()));
    out += line;
  }
  // Overload/deadline lines appear only once those paths have fired --
  // a process that never shed or expired anything keeps a quiet footer.
  const std::uint64_t shed = obs::counter_value("robust.shed");
  const std::uint64_t expired = obs::counter_value("robust.expired");
  const std::uint64_t abandoned = obs::counter_value("robust.retry_abandoned");
  if (shed > 0 || expired > 0 || abandoned > 0) {
    std::snprintf(line, sizeof(line),
                  "    overload: shed %llu, expired %llu, retries abandoned %llu\n",
                  static_cast<unsigned long long>(shed),
                  static_cast<unsigned long long>(expired),
                  static_cast<unsigned long long>(abandoned));
    out += line;
  }
  if (const obs::Histogram* lat = obs::find_histogram("robust.cancel_latency_us")) {
    if (lat->count() > 0) {
      std::snprintf(line, sizeof(line),
                    "    cancel latency: %llu observation(s), mean %.0f us (max %llu)\n",
                    static_cast<unsigned long long>(lat->count()), lat->mean(),
                    static_cast<unsigned long long>(lat->max()));
      out += line;
    }
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
