#include "nanocost/obs/trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <vector>

#include "json_escape.hpp"

namespace nanocost::obs {

namespace {

struct Event final {
  detail::SpanRecord record;
  int tid = 0;
};

/// One buffer per thread.  The per-buffer mutex is uncontended on the
/// hot path (only the owning thread appends); the writer takes every
/// buffer's mutex at flush time, which keeps flush-vs-append race-free
/// without atomics on the event payload.
struct ThreadBuf final {
  std::mutex mu;
  std::vector<Event> events;
  int tid = 0;
};

/// Trace session state.  Leaked on purpose (see metrics.cpp): worker
/// threads and the atexit flush may run during static destruction.
struct TraceState final {
  std::mutex mu;
  std::string path;
  std::vector<std::shared_ptr<ThreadBuf>> bufs;
  int next_tid = 1;
  bool atexit_registered = false;
  /// steady_clock ns at start_trace(); spans are stamped relative to it.
  std::atomic<std::uint64_t> epoch_ns{0};
};

TraceState& trace_state() {
  static TraceState* s = new TraceState;
  return *s;
}

std::uint64_t steady_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

ThreadBuf& this_thread_buf() {
  thread_local std::shared_ptr<ThreadBuf> buf = [] {
    auto b = std::make_shared<ThreadBuf>();
    TraceState& s = trace_state();
    std::lock_guard<std::mutex> lk(s.mu);
    b->tid = s.next_tid++;
    s.bufs.push_back(b);
    return b;
  }();
  return *buf;
}

void flush_at_exit() { (void)stop_trace(); }

}  // namespace

void start_trace(std::string path) {
  TraceState& s = trace_state();
  {
    std::lock_guard<std::mutex> lk(s.mu);
    s.path = std::move(path);
    for (auto& b : s.bufs) {
      std::lock_guard<std::mutex> blk(b->mu);
      b->events.clear();
    }
    s.epoch_ns.store(steady_ns(), std::memory_order_release);
  }
  // Settle the gate last so no span is stamped against a stale epoch.
  detail::g_trace_state.store(2, std::memory_order_release);
}

bool stop_trace() {
  // Disarm first: spans constructed after this point are no-ops, and
  // spans already armed finish into buffers we are about to drain (their
  // events land after the flush and are simply dropped with the next
  // start_trace, never torn).
  const int was = detail::g_trace_state.exchange(1, std::memory_order_acq_rel);
  if (was != 2) return true;

  TraceState& s = trace_state();
  std::lock_guard<std::mutex> lk(s.mu);

  std::vector<Event> events;
  for (auto& b : s.bufs) {
    std::lock_guard<std::mutex> blk(b->mu);
    events.insert(events.end(), b->events.begin(), b->events.end());
    b->events.clear();
  }
  std::stable_sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
    if (a.record.t0_ns != b.record.t0_ns) return a.record.t0_ns < b.record.t0_ns;
    return a.tid < b.tid;
  });

  std::FILE* f = std::fopen(s.path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "nanocost: cannot write trace file '%s'; %zu events dropped\n",
                 s.path.c_str(), events.size());
    return false;
  }

  std::string out;
  out.reserve(128 + events.size() * 120);
  out += "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  char buf[160];
  for (std::size_t i = 0; i < events.size(); ++i) {
    const Event& e = events[i];
    if (i > 0) out += ",";
    out += "\n  {\"name\": \"";
    detail::append_json_escaped(out, e.record.name);
    std::snprintf(buf, sizeof(buf),
                  "\", \"cat\": \"nanocost\", \"ph\": \"X\", \"pid\": 1, \"tid\": %d, "
                  "\"ts\": %.3f, \"dur\": %.3f",
                  e.tid, static_cast<double>(e.record.t0_ns) / 1000.0,
                  static_cast<double>(e.record.dur_ns) / 1000.0);
    out += buf;
    if (e.record.n_args > 0) {
      out += ", \"args\": {";
      for (int a = 0; a < e.record.n_args; ++a) {
        if (a > 0) out += ", ";
        out += "\"";
        detail::append_json_escaped(out, e.record.arg_key[a]);
        std::snprintf(buf, sizeof(buf), "\": %llu",
                      static_cast<unsigned long long>(e.record.arg_val[a]));
        out += buf;
      }
      out += "}";
    }
    out += "}";
  }
  out += "\n]}\n";

  const std::size_t written = std::fwrite(out.data(), 1, out.size(), f);
  const bool ok = written == out.size() && std::fclose(f) == 0;
  if (!ok) {
    std::fprintf(stderr, "nanocost: short write on trace file '%s'\n", s.path.c_str());
  }
  return ok;
}

std::string trace_path() {
  TraceState& s = trace_state();
  std::lock_guard<std::mutex> lk(s.mu);
  return s.path;
}

void ObsSpan::finish() noexcept {
  detail::SpanRecord rec;
  rec.name = name_;
  rec.t0_ns = t0_ns_;
  const std::uint64_t now = detail::trace_now_ns();
  rec.dur_ns = now > t0_ns_ ? now - t0_ns_ : 0;
  rec.n_args = n_args_;
  for (int i = 0; i < n_args_; ++i) {
    rec.arg_key[i] = arg_key_[i];
    rec.arg_val[i] = arg_val_[i];
  }
  detail::record_span(rec);
}

namespace detail {

std::atomic<int> g_trace_state{0};

bool init_trace_state_from_env() {
  TraceState& s = trace_state();
  bool enabled = false;
  {
    std::lock_guard<std::mutex> lk(s.mu);
    const int settled = g_trace_state.load(std::memory_order_acquire);
    if (settled != 0) return settled == 2;

    if (const char* env = std::getenv("NANOCOST_TRACE")) {
      if (env[0] == '\0') {
        std::fprintf(stderr,
                     "nanocost: NANOCOST_TRACE is set but empty (expected an output "
                     "file path); tracing stays disabled\n");
      } else {
        s.path = env;
        s.epoch_ns.store(steady_ns(), std::memory_order_release);
        if (!s.atexit_registered) {
          s.atexit_registered = true;
          std::atexit(flush_at_exit);
        }
        enabled = true;
      }
    }
    g_trace_state.store(enabled ? 2 : 1, std::memory_order_release);
  }
  return enabled;
}

std::uint64_t trace_now_ns() noexcept {
  const std::uint64_t epoch = trace_state().epoch_ns.load(std::memory_order_acquire);
  const std::uint64_t now = steady_ns();
  return now > epoch ? now - epoch : 0;
}

void record_span(const SpanRecord& record) noexcept {
  ThreadBuf& buf = this_thread_buf();
  std::lock_guard<std::mutex> lk(buf.mu);
  Event e;
  e.record = record;
  e.tid = buf.tid;
  buf.events.push_back(e);
}

}  // namespace detail

}  // namespace nanocost::obs
