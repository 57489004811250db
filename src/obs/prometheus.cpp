#include "nanocost/obs/prometheus.hpp"

#include <cstdio>

namespace nanocost::obs {

namespace {

bool legal_name_byte(char c, bool first) {
  const bool alpha = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
  const bool digit = c >= '0' && c <= '9';
  return alpha || c == '_' || c == ':' || (digit && !first);
}

void append_u64_sample(std::string& out, const std::string& name, std::uint64_t v) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), " %llu\n", static_cast<unsigned long long>(v));
  out += name;
  out += buf;
}

}  // namespace

std::string sanitize_metric_name(std::string_view name) {
  std::string out;
  out.reserve(name.size() + 1);
  for (std::size_t i = 0; i < name.size(); ++i) {
    const char c = name[i];
    if (legal_name_byte(c, /*first=*/i == 0)) {
      out.push_back(c);
    } else if (i == 0 && c >= '0' && c <= '9') {
      out.push_back('_');
      out.push_back(c);
    } else {
      out.push_back('_');
    }
  }
  if (out.empty()) out.push_back('_');
  return out;
}

std::string render_metrics_prometheus(const MetricsSnapshot& snap) {
  std::string out;
  char buf[128];
  for (const auto& [name, value] : snap.counters) {
    const std::string n = sanitize_metric_name(name);
    out += "# TYPE " + n + " counter\n";
    append_u64_sample(out, n, value);
  }
  for (const auto& [name, value] : snap.gauges) {
    const std::string n = sanitize_metric_name(name);
    out += "# TYPE " + n + " gauge\n";
    std::snprintf(buf, sizeof(buf), " %.17g\n", value);
    out += n;
    out += buf;
  }
  for (const HistogramSnapshot& h : snap.histograms) {
    if (h.buckets.size() != kHistogramBuckets) continue;  // malformed snapshot
    const std::string n = sanitize_metric_name(h.name);
    out += "# TYPE " + n + " histogram\n";
    // Only non-empty buckets: each is cumulative up to its inclusive
    // upper value, which is exact because samples are integers.
    std::uint64_t cum = 0;
    for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
      if (h.buckets[i] == 0) continue;
      cum += h.buckets[i];
      std::snprintf(buf, sizeof(buf), "{le=\"%llu\"} %llu\n",
                    static_cast<unsigned long long>(bucket_upper(i)),
                    static_cast<unsigned long long>(cum));
      out += n + "_bucket";
      out += buf;
    }
    std::snprintf(buf, sizeof(buf), "{le=\"+Inf\"} %llu\n",
                  static_cast<unsigned long long>(cum));
    out += n + "_bucket";
    out += buf;
    append_u64_sample(out, n + "_sum", h.sum);
    append_u64_sample(out, n + "_count", h.count);
  }
  return out;
}

std::string render_metrics_prometheus() {
  return render_metrics_prometheus(snapshot_metrics());
}

}  // namespace nanocost::obs
