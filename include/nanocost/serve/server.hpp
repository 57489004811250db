// The nanocost::serve daemon: a crash-tolerant multi-tenant job server.
//
// One long-lived Server accepts NCWIRE01 connections -- a Unix-domain
// socket in production, pipe pairs in tests -- and runs the three job
// families end to end:
//
//   * light jobs (eq4 sweeps, risk Monte-Carlo) dispatch to a small
//     worker pool, each under the per-request budget, a CancelToken
//     deadline passed to the kernel; a slow request returns a typed
//     resumable partial, never a hung connection;
//   * campaigns are admitted or shed by the reader as they arrive, into
//     the server's own FIFO, so overload sheds or degrades
//     deterministically (acceptance depends only on the arrival
//     sequence), and run one at a time through robust::run_campaign on
//     a dedicated runner thread with the artifact tier underneath: kill
//     the server mid-campaign, restart, resubmit, and every chunk of a
//     completed wave replays from the campaign's record instead of
//     being recomputed;
//   * identical in-flight requests coalesce on their canonical cache
//     key: one computation, every waiter gets the same bytes.  Light
//     jobs and campaigns share one waiter table, and the server keeps
//     nothing of a job once it has answered it.
//
// Failure containment: a malformed frame kills its *connection* with a
// diagnostic error frame (WireError naming the offense); a semantically
// invalid job gets an error *response* on a healthy connection; an
// injected fault (serve.accept / serve.read / serve.write /
// serve.dispatch under NANOCOST_FAULTS) exercises each of those paths
// deterministically.  The server itself dies only by shutdown().
//
// shutdown() is a graceful drain: stop accepting, finish (or, past
// drain_budget_ms, checkpoint-and-stop) everything in flight, send a
// final outcome for every admitted request, flush/sweep the artifact
// tier, and report what happened.  A campaign stopped mid-run answers
// kStopped with its checkpointed frontier; one still queued answers
// kStopped without running.  The server never answers a campaign
// kExpired.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "nanocost/robust/artifact_store.hpp"

namespace nanocost::exec {
class ThreadPool;
}

namespace nanocost::serve {

/// What the server does with campaigns past campaign_capacity.
enum class ShedPolicy : std::uint8_t {
  /// Shed a new campaign at admission, with a message naming the
  /// capacity, while campaign_capacity are outstanding (queued plus
  /// running).  A twin of one in flight still coalesces onto it.
  kRejectNewest,
  /// Admit every campaign, but one picked up while more than
  /// campaign_capacity are outstanding runs max(1, chunks * capacity /
  /// outstanding) chunks, capped by its own max_chunks: an honest,
  /// resumable partial.  A campaign running alone keeps its full budget.
  kDegradeBudgets,
};

struct ServerOptions final {
  /// Worker threads for light jobs (eq4/risk).  Campaigns run on their
  /// own runner thread regardless.
  int worker_threads = 2;
  /// Outstanding campaigns (queued plus running) the server is sized
  /// for, and what it does past them.  Must be >= 1: the constructor
  /// throws std::invalid_argument otherwise.
  std::size_t campaign_capacity = 4;
  ShedPolicy campaign_policy = ShedPolicy::kRejectNewest;
  /// Artifact tier root; empty disables persistence.
  std::string artifact_dir;
  /// Byte cap the shutdown sweep enforces on the artifact tier's records
  /// and blobs; 0 = unbounded.
  std::uint64_t artifact_byte_cap = 0;
  /// Per-request wall-clock budget for light jobs, ms; 0 = none.
  double request_budget_ms = 0.0;
  /// Grace period shutdown() gives in-flight campaigns before stopping
  /// them at a chunk boundary (checkpointed, resumable); 0 = wait for
  /// them to finish.
  double drain_budget_ms = 0.0;
  /// Compute pool for kernels (null: the global pool).
  exec::ThreadPool* pool = nullptr;
  /// Reap a connection that starts no frame for this long, ms (0 =
  /// never).  Connections with responses still owed are exempt -- a
  /// quiet client waiting on a long campaign is not idle.
  double idle_timeout_ms = 0.0;
  /// Reap a connection that starts a frame but does not finish it
  /// within this budget, ms (0 = never) -- the slow-loris cutoff.  A
  /// stalled peer delays nobody else, and at most this long itself.
  double read_deadline_ms = 0.0;
  /// Live-connection cap (0 = unlimited).  At the cap, accepting a new
  /// connection deterministically evicts the least-recently-active
  /// existing one (ties: lowest connection id) with a diagnostic error
  /// frame.
  std::size_t max_connections = 0;
  /// Max campaigns one tenant may have in flight (admitted or queued);
  /// 0 = unlimited.  Excess submissions are shed with kShed naming the
  /// tenant and quota.  Tenants declare themselves in the kHello frame;
  /// connections that skip the handshake share the "" tenant.
  std::size_t tenant_campaign_quota = 0;
};

/// What a graceful drain found and did.
struct DrainReport final {
  std::uint64_t requests_served = 0;   ///< responses written (all types)
  std::uint64_t wire_errors = 0;       ///< connections killed by WireError
  std::uint64_t coalesced = 0;         ///< requests served from an in-flight twin
  std::uint64_t campaigns_completed = 0;
  std::uint64_t campaigns_stopped = 0;  ///< checkpointed + resumable at drain
  std::uint64_t campaigns_shed = 0;
  std::uint64_t handshake_rejects = 0;    ///< kHello frames refused (version/decode)
  std::uint64_t connections_reaped = 0;   ///< idle/read-deadline kills
  std::uint64_t connections_evicted = 0;  ///< max-connections oldest-idle kills
  std::uint64_t connections_stalled = 0;  ///< peers that accepted no byte for kWriteStallMs
  std::uint64_t tenant_shed = 0;          ///< campaigns refused by tenant quota
  /// FabSimulator builds: one per campaign configuration first seen (or
  /// seen again after eviction), however many lots reuse it.
  std::uint64_t simulators_built = 0;
  robust::SweepReport artifact_sweep;  ///< the shutdown eviction sweep
};

class Server final {
 public:
  explicit Server(ServerOptions options);
  /// Destruction drains (shutdown() if not already called).
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Adopts an accepted byte stream as one client connection: spawns
  /// its reader.  `read_fd`/`write_fd` may be pipe ends (tests) or one
  /// socket fd.  Thread-safe; throws std::logic_error after shutdown.
  void add_connection(int read_fd, int write_fd);

  /// Binds a Unix-domain socket at `path` (unlinking any stale one) and
  /// accepts connections until shutdown.  Throws std::runtime_error on
  /// bind failure.  May be called alongside listen_tcp (and repeatedly):
  /// the server runs one accept loop per listener.
  void listen_unix(const std::string& path);

  /// Binds a TCP socket on `host`:`port` (IPv4; host "" / "*" /
  /// "0.0.0.0" binds all interfaces; port 0 picks a free port) and
  /// accepts connections until shutdown.  Returns the bound port.
  /// Throws std::runtime_error on bind failure.
  int listen_tcp(const std::string& host, int port);

  /// Graceful drain; idempotent (the second call returns the first
  /// report).  See the header comment for the sequence.
  DrainReport shutdown();

  [[nodiscard]] const ServerOptions& options() const noexcept;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace nanocost::serve
