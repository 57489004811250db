// Benchmark-side spans.  The driver wraps each of its calls into a
// library layer in a Span (name, layer, start, end, parent); spans stay in
// memory until the run ends, then go out as Chrome trace-event JSON, and
// each layer's self time (its spans' duration minus what their child
// spans cover) becomes a per-layer metric.  Off (the default), a Span is
// one relaxed load.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord final {
  const char* name = "";
  const char* layer = "";
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t tid = 0;
};

void set_tracing(bool on) noexcept;
[[nodiscard]] bool tracing() noexcept;

/// Records a span measured elsewhere (a request that starts on one thread
/// and ends on another).  No-op while tracing is off.
void record_span(const char* name, const char* layer, std::int64_t start_ns,
                 std::int64_t end_ns, std::uint64_t parent = 0);

/// Scoped span; spans opened inside it on the same thread become its
/// children.
class Span final {
 public:
  Span(const char* name, const char* layer);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_;
  const char* layer_;
  std::uint64_t id_ = 0;
  std::uint64_t parent_ = 0;
  std::int64_t start_ns_ = 0;
};

[[nodiscard]] std::vector<SpanRecord> recorded_spans();

/// Layer -> summed self time in ms.
[[nodiscard]] std::map<std::string, double> self_time_ms(const std::vector<SpanRecord>& spans);

/// Writes the spans as Chrome trace-event JSON ("X" events, microseconds),
/// with `stamp_json` as the trace's metadata.  Returns false on I/O error.
bool write_chrome_trace(const std::string& path, const std::vector<SpanRecord>& spans,
                        const std::string& stamp_json);

}  // namespace perfbench
