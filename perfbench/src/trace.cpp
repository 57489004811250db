#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <mutex>
#include <unordered_map>

#include "common.hpp"

namespace perfbench {

namespace {

std::atomic<bool> g_on{false};
std::atomic<std::uint64_t> g_next_id{1};
std::atomic<std::uint32_t> g_next_tid{1};
std::mutex g_mu;
std::vector<SpanRecord> g_spans;  // guarded by g_mu

thread_local std::uint64_t t_current = 0;

std::uint32_t thread_id() {
  thread_local const std::uint32_t tid = g_next_tid.fetch_add(1, std::memory_order_relaxed);
  return tid;
}

}  // namespace

void set_tracing(bool on) noexcept { g_on.store(on, std::memory_order_relaxed); }
bool tracing() noexcept { return g_on.load(std::memory_order_relaxed); }

void record_span(const char* name, const char* layer, std::int64_t start_ns,
                 std::int64_t end_ns, std::uint64_t parent) {
  if (!tracing()) return;
  SpanRecord r{name, layer, g_next_id.fetch_add(1, std::memory_order_relaxed), parent,
               start_ns, end_ns, thread_id()};
  std::lock_guard<std::mutex> lk(g_mu);
  g_spans.push_back(r);
}

Span::Span(const char* name, const char* layer) : name_(name), layer_(layer) {
  if (!tracing()) return;
  id_ = g_next_id.fetch_add(1, std::memory_order_relaxed);
  parent_ = t_current;
  t_current = id_;
  start_ns_ = now_ns();
}

Span::~Span() {
  if (id_ == 0) return;
  const std::int64_t end = now_ns();
  t_current = parent_;
  SpanRecord r{name_, layer_, id_, parent_, start_ns_, end, thread_id()};
  std::lock_guard<std::mutex> lk(g_mu);
  g_spans.push_back(r);
}

std::vector<SpanRecord> recorded_spans() {
  std::lock_guard<std::mutex> lk(g_mu);
  return g_spans;
}

std::map<std::string, double> self_time_ms(const std::vector<SpanRecord>& spans) {
  std::unordered_map<std::uint64_t, std::vector<std::pair<std::int64_t, std::int64_t>>> children;
  for (const SpanRecord& s : spans) {
    if (s.parent != 0) children[s.parent].emplace_back(s.start_ns, s.end_ns);
  }
  std::map<std::string, double> out;
  for (const SpanRecord& s : spans) {
    std::int64_t covered = 0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      // Union of the child intervals, clipped to the parent.
      auto& iv = it->second;
      std::sort(iv.begin(), iv.end());
      std::int64_t cur_lo = 0;
      std::int64_t cur_hi = -1;
      for (auto [lo, hi] : iv) {
        lo = std::max(lo, s.start_ns);
        hi = std::min(hi, s.end_ns);
        if (hi <= lo) continue;
        if (lo > cur_hi) {
          if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
          cur_lo = lo;
          cur_hi = hi;
        } else {
          cur_hi = std::max(cur_hi, hi);
        }
      }
      if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    }
    out[s.layer] += ns_to_ms(s.end_ns - s.start_ns - covered);
  }
  return out;
}

bool write_chrome_trace(const std::string& path, const std::vector<SpanRecord>& spans,
                        const std::string& stamp_json) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::int64_t t0 = spans.empty() ? 0
                                        : std::min_element(spans.begin(), spans.end(),
                                                           [](const auto& a, const auto& b) {
                                                             return a.start_ns < b.start_ns;
                                                           })->start_ns;
  std::fprintf(f, "{\"otherData\": %s,\n\"traceEvents\": [\n", stamp_json.c_str());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    std::fprintf(f,
                 "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %u, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %llu, \"parent\": %llu}}%s\n",
                 s.name, s.layer, s.tid, ns_to_us(s.start_ns - t0),
                 ns_to_us(s.end_ns - s.start_ns), static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent), i + 1 < spans.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
