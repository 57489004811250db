// The nanocost daemon: serve cost/risk/campaign jobs over Unix-domain
// and/or TCP sockets speaking NCWIRE01.
//
//   nanocost_serve --listen unix:/tmp/nanocost.sock [--listen tcp:127.0.0.1:9201]
//                  [--workers N] [--capacity N] [--policy reject|degrade]
//                  [--artifact-dir DIR] [--artifact-cap BYTES]
//                  [--request-budget-ms MS] [--drain-budget-ms MS]
//                  [--idle-timeout-ms MS] [--read-deadline-ms MS]
//                  [--max-conns N] [--tenant-quota N]
//
// --listen repeats; --socket PATH is the legacy spelling of
// --listen unix:PATH.  The daemon runs until SIGINT/SIGTERM, then
// drains gracefully: stops accepting, finishes (or checkpoints)
// in-flight work, answers every admitted request, sweeps the artifact
// tier, and prints the drain report.  Kill -9 it mid-campaign instead
// and the artifact tier still carries the completed chunks: restart +
// resubmit recomputes nothing (scripts/ci uses exactly that to prove
// crash tolerance).
#include <atomic>
#include <charconv>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "nanocost/obs/metrics.hpp"
#include "nanocost/serve/resilient.hpp"
#include "nanocost/serve/server.hpp"

namespace {

std::atomic<bool> g_stop{false};

void handle_signal(int) { g_stop.store(true, std::memory_order_release); }

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --listen unix:PATH|tcp:HOST:PORT [--listen ...]\n"
               "          [--socket PATH] [--workers N] [--capacity N]\n"
               "          [--policy reject|degrade] [--artifact-dir DIR]\n"
               "          [--artifact-cap BYTES] [--request-budget-ms MS]\n"
               "          [--drain-budget-ms MS] [--idle-timeout-ms MS]\n"
               "          [--read-deadline-ms MS] [--max-conns N]\n"
               "          [--tenant-quota N] [--no-metrics]\n",
               argv0);
  return 2;
}

/// Parses `text` as a decimal count of at least `min` that fits `out`'s
/// type; false on a sign, garbage, trailing characters or overflow.
template <typename T>
bool parse_count(const char* text, T& out, std::type_identity_t<T> min) {
  const char* end = text + std::strlen(text);
  T value{};
  const auto [ptr, ec] = std::from_chars(text, end, value);
  if (ec != std::errc{} || ptr != end || value < min) return false;
  out = value;
  return true;
}

/// Parses `text` as a finite decimal number of milliseconds, at least 0;
/// false on garbage, trailing characters, a negative value, nan or inf.
bool parse_ms(const char* text, double& out) {
  const char* end = text + std::strlen(text);
  double value = 0.0;
  const auto [ptr, ec] = std::from_chars(text, end, value);
  if (ec != std::errc{} || ptr != end || !std::isfinite(value) || value < 0.0) return false;
  out = value;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace nanocost;

  std::vector<std::string> listen_specs;
  serve::ServerOptions options;
  bool metrics = true;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--listen" && has_value) {
      listen_specs.emplace_back(argv[++i]);
    } else if (arg == "--socket" && has_value) {
      listen_specs.emplace_back(std::string("unix:") + argv[++i]);
    } else if (arg == "--workers" && has_value) {
      if (!parse_count(argv[++i], options.worker_threads, 1)) return usage(argv[0]);
    } else if (arg == "--capacity" && has_value) {
      if (!parse_count(argv[++i], options.campaign_capacity, 1)) return usage(argv[0]);
    } else if (arg == "--policy" && has_value) {
      const std::string policy = argv[++i];
      if (policy == "reject") {
        options.campaign_policy = serve::ShedPolicy::kRejectNewest;
      } else if (policy == "degrade") {
        options.campaign_policy = serve::ShedPolicy::kDegradeBudgets;
      } else {
        return usage(argv[0]);
      }
    } else if (arg == "--artifact-dir" && has_value) {
      options.artifact_dir = argv[++i];
    } else if (arg == "--artifact-cap" && has_value) {
      if (!parse_count(argv[++i], options.artifact_byte_cap, 0)) return usage(argv[0]);
    } else if (arg == "--request-budget-ms" && has_value) {
      if (!parse_ms(argv[++i], options.request_budget_ms)) return usage(argv[0]);
    } else if (arg == "--drain-budget-ms" && has_value) {
      if (!parse_ms(argv[++i], options.drain_budget_ms)) return usage(argv[0]);
    } else if (arg == "--idle-timeout-ms" && has_value) {
      if (!parse_ms(argv[++i], options.idle_timeout_ms)) return usage(argv[0]);
    } else if (arg == "--read-deadline-ms" && has_value) {
      if (!parse_ms(argv[++i], options.read_deadline_ms)) return usage(argv[0]);
    } else if (arg == "--max-conns" && has_value) {
      if (!parse_count(argv[++i], options.max_connections, 0)) return usage(argv[0]);
    } else if (arg == "--tenant-quota" && has_value) {
      if (!parse_count(argv[++i], options.tenant_campaign_quota, 0)) return usage(argv[0]);
    } else if (arg == "--no-metrics") {
      metrics = false;
    } else {
      return usage(argv[0]);
    }
  }
  if (listen_specs.empty()) return usage(argv[0]);

  // The daemon is the telemetry plane's reason to exist: metrics are on
  // by default so a kStatsRequest always has something to report.
  obs::set_metrics_enabled(metrics);

  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);

  serve::Server server(options);
  for (const std::string& spec : listen_specs) {
    try {
      const serve::Endpoint ep = serve::Endpoint::parse(spec);
      if (ep.is_tcp()) {
        const int port = server.listen_tcp(ep.tcp_host, ep.tcp_port);
        std::printf("nanocost_serve: listening on tcp:%s:%d\n",
                    ep.tcp_host.empty() ? "0.0.0.0" : ep.tcp_host.c_str(), port);
      } else {
        server.listen_unix(ep.unix_path);
        std::printf("nanocost_serve: listening on %s\n", ep.unix_path.c_str());
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "nanocost_serve: %s\n", e.what());
      return 1;
    }
  }
  std::printf("nanocost_serve: ready (workers %d, capacity %zu, %s)\n",
              options.worker_threads, options.campaign_capacity,
              options.campaign_policy == serve::ShedPolicy::kRejectNewest ? "reject"
                                                                          : "degrade");
  std::fflush(stdout);

  while (!g_stop.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }

  std::puts("nanocost_serve: draining...");
  const serve::DrainReport report = server.shutdown();
  std::printf(
      "nanocost_serve: drained. served %llu responses (%llu coalesced, %llu wire "
      "errors); campaigns: %llu completed, %llu stopped resumable, %llu shed (%llu "
      "tenant-quota), %llu simulators built; connections: %llu handshakes rejected, "
      "%llu reaped, %llu evicted, %llu stalled; artifact sweep evicted %llu/%llu files (%llu of %llu "
      "bytes)\n",
      static_cast<unsigned long long>(report.requests_served),
      static_cast<unsigned long long>(report.coalesced),
      static_cast<unsigned long long>(report.wire_errors),
      static_cast<unsigned long long>(report.campaigns_completed),
      static_cast<unsigned long long>(report.campaigns_stopped),
      static_cast<unsigned long long>(report.campaigns_shed),
      static_cast<unsigned long long>(report.tenant_shed),
      static_cast<unsigned long long>(report.simulators_built),
      static_cast<unsigned long long>(report.handshake_rejects),
      static_cast<unsigned long long>(report.connections_reaped),
      static_cast<unsigned long long>(report.connections_evicted),
      static_cast<unsigned long long>(report.connections_stalled),
      static_cast<unsigned long long>(report.artifact_sweep.evicted_blobs),
      static_cast<unsigned long long>(report.artifact_sweep.scanned_blobs),
      static_cast<unsigned long long>(report.artifact_sweep.evicted_bytes),
      static_cast<unsigned long long>(report.artifact_sweep.scanned_bytes));
  return 0;
}
