#include "nanocost/obs/metrics.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>

#include "json_escape.hpp"

namespace nanocost::obs {

namespace {

/// The registry.  Leaked on purpose: worker threads and atexit hooks
/// may touch metrics during static destruction, so the registry must
/// outlive every static.
struct Registry {
  std::mutex mu;
  std::vector<std::unique_ptr<Counter>> counters;
  std::vector<std::unique_ptr<Gauge>> gauges;
  std::vector<std::unique_ptr<Histogram>> histograms;
};

Registry& registry() {
  static Registry* r = new Registry;
  return *r;
}

template <typename T>
T* find_by_name(std::vector<std::unique_ptr<T>>& items, std::string_view name) {
  for (auto& item : items) {
    if (item->name() == name) return item.get();
  }
  return nullptr;
}

}  // namespace

void Histogram::record(std::uint64_t v) noexcept {
  buckets_[bucket_index(v)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);
  std::uint64_t cur = min_.load(std::memory_order_relaxed);
  while (v < cur && !min_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
  cur = max_.load(std::memory_order_relaxed);
  while (v > cur && !max_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

std::uint64_t Histogram::min() const noexcept {
  const std::uint64_t m = min_.load(std::memory_order_relaxed);
  return m == ~0ULL ? 0 : m;
}

std::uint64_t Histogram::max() const noexcept {
  return max_.load(std::memory_order_relaxed);
}

void Histogram::reset() noexcept {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  min_.store(~0ULL, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
}

Counter& counter(std::string_view name) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lk(r.mu);
  if (Counter* c = find_by_name(r.counters, name)) return *c;
  r.counters.push_back(std::make_unique<Counter>(std::string(name)));
  return *r.counters.back();
}

Gauge& gauge(std::string_view name) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lk(r.mu);
  if (Gauge* g = find_by_name(r.gauges, name)) return *g;
  r.gauges.push_back(std::make_unique<Gauge>(std::string(name)));
  return *r.gauges.back();
}

Histogram& histogram(std::string_view name) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lk(r.mu);
  if (Histogram* h = find_by_name(r.histograms, name)) return *h;
  r.histograms.push_back(std::make_unique<Histogram>(std::string(name)));
  return *r.histograms.back();
}

std::uint64_t counter_value(std::string_view name) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lk(r.mu);
  const Counter* c = find_by_name(r.counters, name);
  return c != nullptr ? c->value() : 0;
}

const Histogram* find_histogram(std::string_view name) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lk(r.mu);
  return find_by_name(r.histograms, name);
}

void set_metrics_enabled(bool enabled) {
  detail::g_metrics_state.store(enabled ? 2 : 1, std::memory_order_release);
}

void reset_metrics() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lk(r.mu);
  for (auto& c : r.counters) c->reset();
  for (auto& g : r.gauges) g->reset();
  for (auto& h : r.histograms) h->reset();
}

MetricsSnapshot snapshot_metrics() {
  MetricsSnapshot snap;
  Registry& r = registry();
  std::lock_guard<std::mutex> lk(r.mu);
  for (const auto& c : r.counters) snap.counters.emplace_back(c->name(), c->value());
  for (const auto& g : r.gauges) snap.gauges.emplace_back(g->name(), g->value());
  for (const auto& h : r.histograms) {
    HistogramSnapshot hs;
    hs.name = h->name();
    hs.buckets.resize(kHistogramBuckets);
    for (std::size_t i = 0; i < kHistogramBuckets; ++i) hs.buckets[i] = h->bucket_count(i);
    hs.count = h->count();
    hs.sum = h->sum();
    hs.min = h->min();
    hs.max = h->max();
    snap.histograms.push_back(std::move(hs));
  }
  const auto by_name = [](const auto& a, const auto& b) { return a.first < b.first; };
  std::sort(snap.counters.begin(), snap.counters.end(), by_name);
  std::sort(snap.gauges.begin(), snap.gauges.end(), by_name);
  std::sort(snap.histograms.begin(), snap.histograms.end(),
            [](const HistogramSnapshot& a, const HistogramSnapshot& b) {
              return a.name < b.name;
            });
  return snap;
}

namespace {

/// "  name" padded to 36 columns and a space: the text form's left
/// column.  Appended, not formatted, so no name is cut short.
void append_text_name(std::string& out, const std::string& name) {
  out += "  ";
  out += name;
  out.append(name.size() < 36 ? 37 - name.size() : 1, ' ');
}

/// `"name": ` with the name JSON-escaped, after a ", " unless first.
void append_json_key(std::string& out, const std::string& name, bool first) {
  if (!first) out += ", ";
  out += '"';
  detail::append_json_escaped(out, name);
  out += "\": ";
}

}  // namespace

std::string render_metrics_text() { return render_metrics_text(snapshot_metrics()); }

std::string render_metrics_text(const MetricsSnapshot& snap) {
  std::string out = "metrics snapshot:\n";
  char line[160];
  for (const auto& [name, value] : snap.counters) {
    append_text_name(out, name);
    std::snprintf(line, sizeof(line), "%llu\n", static_cast<unsigned long long>(value));
    out += line;
  }
  for (const auto& [name, value] : snap.gauges) {
    append_text_name(out, name);
    std::snprintf(line, sizeof(line), "%.6g\n", value);
    out += line;
  }
  for (const HistogramSnapshot& h : snap.histograms) {
    append_text_name(out, h.name);
    std::snprintf(line, sizeof(line), "count %llu  sum %llu  mean %.1f  min %llu  max %llu\n",
                  static_cast<unsigned long long>(h.count),
                  static_cast<unsigned long long>(h.sum),
                  h.count > 0 ? static_cast<double>(h.sum) / static_cast<double>(h.count)
                              : 0.0,
                  static_cast<unsigned long long>(h.min),
                  static_cast<unsigned long long>(h.max));
    out += line;
  }
  if (snap.counters.empty() && snap.gauges.empty() && snap.histograms.empty()) {
    out += "  (no metrics registered)\n";
  }
  return out;
}

std::string render_metrics_json() { return render_metrics_json(snapshot_metrics()); }

std::string render_metrics_json(const MetricsSnapshot& snap) {
  std::string out = "{\"counters\": {";
  char buf[128];
  for (std::size_t i = 0; i < snap.counters.size(); ++i) {
    append_json_key(out, snap.counters[i].first, i == 0);
    std::snprintf(buf, sizeof(buf), "%llu",
                  static_cast<unsigned long long>(snap.counters[i].second));
    out += buf;
  }
  out += "}, \"gauges\": {";
  for (std::size_t i = 0; i < snap.gauges.size(); ++i) {
    append_json_key(out, snap.gauges[i].first, i == 0);
    std::snprintf(buf, sizeof(buf), "%.17g", snap.gauges[i].second);
    out += buf;
  }
  out += "}, \"histograms\": {";
  for (std::size_t i = 0; i < snap.histograms.size(); ++i) {
    const HistogramSnapshot& h = snap.histograms[i];
    append_json_key(out, h.name, i == 0);
    out += "{\"buckets\": [";
    const char* sep = "";
    for (std::size_t b = 0; b < std::min(h.buckets.size(), kHistogramBuckets); ++b) {
      if (h.buckets[b] == 0) continue;
      std::snprintf(buf, sizeof(buf), "%s[%llu, %llu]", sep,
                    static_cast<unsigned long long>(bucket_upper(b)),
                    static_cast<unsigned long long>(h.buckets[b]));
      out += buf;
      sep = ", ";
    }
    std::snprintf(buf, sizeof(buf),
                  "], \"count\": %llu, \"sum\": %llu, \"min\": %llu, \"max\": %llu}",
                  static_cast<unsigned long long>(h.count),
                  static_cast<unsigned long long>(h.sum),
                  static_cast<unsigned long long>(h.min),
                  static_cast<unsigned long long>(h.max));
    out += buf;
  }
  out += "}}";
  return out;
}

namespace detail {

std::atomic<int> g_metrics_state{0};

bool init_metrics_state_from_env() {
  // The registry mutex doubles as the init lock, so exactly one thread
  // settles the state (and prints at most one diagnostic).
  Registry& r = registry();
  std::lock_guard<std::mutex> lk(r.mu);
  const int settled = g_metrics_state.load(std::memory_order_acquire);
  if (settled != 0) return settled == 2;

  bool enabled = false;
  if (const char* env = std::getenv("NANOCOST_METRICS")) {
    const std::string_view v(env);
    if (v == "1" || v == "true" || v == "on" || v == "yes") {
      enabled = true;
    } else if (!(v.empty() || v == "0" || v == "false" || v == "off" || v == "no")) {
      std::fprintf(stderr,
                   "nanocost: NANOCOST_METRICS='%s' is not a recognised boolean "
                   "(use 1/0, true/false, on/off); metrics stay disabled\n",
                   env);
    }
  }
  g_metrics_state.store(enabled ? 2 : 1, std::memory_order_release);
  return enabled;
}

}  // namespace detail

}  // namespace nanocost::obs
