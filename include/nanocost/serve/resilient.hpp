// ResilientClient: bounded retry/reconnect on top of serve::Client.
//
// The plain Client is fire-once: any transport failure -- a reset, a
// stalled server, a daemon restart -- surfaces as an exception and the
// job is lost to the caller.  ResilientClient turns those into a
// bounded retry loop:
//
//   * exponential backoff with deterministic seeded jitter
//     (robust::BackoffPolicy), abandoning early when the next sleep
//     cannot fit the remaining overall budget;
//   * per-attempt read deadlines (Client::arm_timeouts) so one hung
//     server costs one attempt, not the whole session;
//   * a fresh connection + NCWIRE01 handshake per reconnect, carrying
//     the reconnect ordinal so the server's serve.reconnects_total
//     tells the fleet-health story;
//   * exactly-once *effect*: jobs are content-addressed (job_key), and
//     a served campaign persists its completed chunks in one NCCKPT01
//     record, rewritten after each wave (campaign_record_key names it,
//     ArtifactStore::record_path places it), so a resubmission after a
//     lost connection or a server kill -9 coalesces with in-flight work
//     or replays committed chunks instead of recomputing -- the final
//     bytes are memcmp-identical to an undisturbed run
//     (tests/serve_test.cpp proves it).
//
// Server-side shed responses (kShed / kStopped, and kError responses
// that invite a resubmit) retry through the same loop; semantic
// failures and handshake rejections do not -- retrying cannot fix a
// version mismatch or an invalid job.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "nanocost/robust/backoff.hpp"
#include "nanocost/serve/client.hpp"
#include "nanocost/serve/jobs.hpp"

namespace nanocost::serve {

/// Where a daemon lives: exactly one of a Unix socket path or a TCP
/// host:port.  parse() accepts "unix:PATH", "tcp:HOST:PORT", or a bare
/// path (treated as unix) -- the daemon's --listen grammar.
struct Endpoint final {
  std::string unix_path;
  std::string tcp_host;
  int tcp_port = 0;

  [[nodiscard]] bool is_tcp() const noexcept { return tcp_port != 0; }

  /// Throws std::invalid_argument on a malformed spec (empty, a bad
  /// port, "tcp:" without host:port).
  [[nodiscard]] static Endpoint parse(const std::string& spec);

  /// "unix:/path" or "tcp:host:port", for diagnostics.
  [[nodiscard]] std::string describe() const;
};

struct ResilientOptions final {
  Endpoint endpoint;
  /// Tenant declared in the handshake ("" = anonymous).
  std::string tenant;
  /// Total tries per operation (first attempt included); >= 1.
  int max_attempts = 5;
  /// Read deadline armed on each connection, ms (0 = wait forever).  A
  /// server that accepts a job and then hangs costs this much per
  /// attempt instead of the whole session.
  double attempt_timeout_ms = 0.0;
  /// Overall wall-clock budget across all attempts and backoff sleeps,
  /// ms (0 = unbounded), enforced through a robust::CancelToken deadline.
  double overall_budget_ms = 0.0;
  /// Between-attempt schedule.  The default doubles 50 ms up to a 2 s
  /// cap with 25% deterministic jitter (seed 1).
  robust::BackoffPolicy backoff{50.0, 2000.0, 2.0, 0.25, 1};
};

class ResilientClient final {
 public:
  explicit ResilientClient(ResilientOptions options);

  /// Submits the job and blocks for its final response, reconnecting
  /// and retrying per the options.  Throws std::runtime_error when the
  /// attempts/budget are exhausted (the message carries the last
  /// failure) or when the server rejects the handshake.
  Response submit_and_wait(const Eq4Job& job);
  Response submit_and_wait(const RiskJob& job);
  Response submit_and_wait(const CampaignJob& job);

  /// Scrapes the server's stats through the same retry loop.
  StatsReport stats();

  /// Round-trips a ping on the current (or a fresh) connection; false
  /// when no attempt got through.
  [[nodiscard]] bool ping();

  /// Successful re-connections made so far (first connect excluded).
  [[nodiscard]] std::uint64_t reconnects() const noexcept { return reconnects_; }
  /// Operation attempts beyond each operation's first.
  [[nodiscard]] std::uint64_t retries() const noexcept { return retries_; }

  [[nodiscard]] const ResilientOptions& options() const noexcept { return options_; }

 private:
  ResilientOptions options_;
  std::optional<Client> client_;
  std::uint64_t connects_ = 0;  ///< successful connect+handshake count
  std::uint64_t reconnects_ = 0;
  std::uint64_t retries_ = 0;

  void ensure_connected();
  void drop_connection() noexcept;
  Response run(const char* what, const std::function<Response(Client&)>& op);
};

}  // namespace nanocost::serve
