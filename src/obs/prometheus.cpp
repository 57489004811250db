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

/// A registry name as a sample: `family{key="value"}` becomes the
/// sanitized family and its one label, the value escaped as the
/// exposition format requires; any other name is a family alone.
struct Sample final {
  std::string family;
  std::string label;  ///< `key="escaped value"`, or empty
  [[nodiscard]] std::string braced() const { return label.empty() ? "" : "{" + label + "}"; }
};

Sample sample_of(std::string_view name) {
  const std::size_t open = name.find('{');
  const std::size_t eq = name.find("=\"", open);
  if (eq == std::string_view::npos || !name.ends_with("\"}") || name.size() < eq + 4) {
    return {sanitize_metric_name(name), ""};
  }
  std::string label = sanitize_metric_name(name.substr(open + 1, eq - open - 1)) + "=\"";
  for (const char c : name.substr(eq + 2, name.size() - eq - 4)) {
    if (c == '\\' || c == '"') label += '\\';
    label += c == '\n' ? std::string("\\n") : std::string(1, c);
  }
  return {sanitize_metric_name(name.substr(0, open)), label + '"'};
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
  // One # TYPE line per family: a sorted snapshot keeps the labelled
  // samples of one family adjacent.
  std::string typed;
  const auto type_line = [&](const std::string& family, const char* type) {
    if (family == typed) return;
    out += "# TYPE " + family + " " + type + "\n";
    typed = family;
  };
  for (const auto& [name, value] : snap.counters) {
    const Sample s = sample_of(name);
    type_line(s.family, "counter");
    append_u64_sample(out, s.family + s.braced(), value);
  }
  for (const auto& [name, value] : snap.gauges) {
    const Sample s = sample_of(name);
    type_line(s.family, "gauge");
    std::snprintf(buf, sizeof(buf), " %.17g\n", value);
    out += s.family + s.braced();
    out += buf;
  }
  for (const HistogramSnapshot& h : snap.histograms) {
    if (h.buckets.size() != kHistogramBuckets) continue;  // malformed snapshot
    const Sample s = sample_of(h.name);
    const std::string& n = s.family;
    type_line(n, "histogram");
    const std::string bucket = n + "_bucket{" + (s.label.empty() ? "" : s.label + ",");
    // Only non-empty buckets: each is cumulative up to its inclusive
    // upper value, which is exact because samples are integers.
    std::uint64_t cum = 0;
    for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
      if (h.buckets[i] == 0) continue;
      cum += h.buckets[i];
      std::snprintf(buf, sizeof(buf), "le=\"%llu\"} %llu\n",
                    static_cast<unsigned long long>(bucket_upper(i)),
                    static_cast<unsigned long long>(cum));
      out += bucket;
      out += buf;
    }
    std::snprintf(buf, sizeof(buf), "le=\"+Inf\"} %llu\n", static_cast<unsigned long long>(cum));
    out += bucket;
    out += buf;
    append_u64_sample(out, n + "_sum" + s.braced(), h.sum);
    append_u64_sample(out, n + "_count" + s.braced(), h.count);
  }
  return out;
}

std::string render_metrics_prometheus() {
  return render_metrics_prometheus(snapshot_metrics());
}

}  // namespace nanocost::obs
