// Prometheus text exposition (format 0.0.4) of a MetricsSnapshot.
//
// Metric names in the registry use dots ("serve.queue_depth"); the
// exposition format allows only [a-zA-Z0-9_:], so names are sanitized
// (every illegal byte becomes '_', a leading digit gets a '_' prefix).
// A name of the form `family{key="value"}` (serve.tenant_shed's
// per-tenant family) renders as a sample of the sanitized family with
// that one label, its value escaped (backslash, quote, newline), and the
// family gets one `# TYPE` line however many labelled samples it has.
// Counters and gauges render as one sample each; histograms render in
// the cumulative `_bucket{le="..."}` / `_sum` / `_count` form Prometheus
// expects, one `le` per non-empty bucket of the layout (its inclusive
// upper value) -- bucket counts accumulate left to right and the "+Inf"
// bucket always equals `_count`.  Each family is preceded by a `# TYPE`
// line; scrapers compute rates themselves (the daemon never resets on
// scrape, DESIGN.md section 15).
#pragma once

#include <string>
#include <string_view>

#include "nanocost/obs/metrics.hpp"

namespace nanocost::obs {

/// "serve.queue_depth" -> "serve_queue_depth"; "9lives" -> "_9lives".
[[nodiscard]] std::string sanitize_metric_name(std::string_view name);

/// Renders `snap` as Prometheus exposition text.
[[nodiscard]] std::string render_metrics_prometheus(const MetricsSnapshot& snap);

/// Convenience: snapshot the live registry and render it.
[[nodiscard]] std::string render_metrics_prometheus();

}  // namespace nanocost::obs
