#include "nanocost/serve/server.hpp"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "nanocost/cache/codec.hpp"
#include "nanocost/cache/hash.hpp"
#include "nanocost/exec/simd.hpp"
#include "nanocost/fabsim/campaign.hpp"
#include "nanocost/obs/metrics.hpp"
#include "nanocost/obs/stats.hpp"
#include "nanocost/obs/trace.hpp"
#include "nanocost/robust/fault_injection.hpp"
#include "nanocost/serve/jobs.hpp"
#include "nanocost/serve/wire.hpp"

namespace nanocost::serve {

namespace {

constexpr robust::FaultSite kAcceptSite{"serve.accept"};
constexpr robust::FaultSite kDispatchSite{"serve.dispatch"};

/// Leading integer of a "major.minor.patch" string; -1 when the string
/// does not start with digits followed by a dot (treated as a mismatch
/// by the handshake, with the raw string in the diagnostic).
int major_version_of(const std::string& v) noexcept {
  int major = 0;
  std::size_t i = 0;
  while (i < v.size() && v[i] >= '0' && v[i] <= '9') {
    major = major * 10 + (v[i] - '0');
    ++i;
  }
  if (i == 0 || i >= v.size() || v[i] != '.') return -1;
  return major;
}

std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::uint64_t now_us() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Shared bucket ladder for request latencies: 100 us .. 10 s.
const std::vector<std::uint64_t>& latency_bounds() {
  static const std::vector<std::uint64_t> bounds{
      100,   250,    500,    1000,   2500,    5000,    10000,   25000,
      50000, 100000, 250000, 500000, 1000000, 2500000, 5000000, 10000000};
  return bounds;
}

// Every metric handle below is a function-local static so the registry
// mutex is paid once per site (the idiom obs/metrics.hpp documents),
// never per request.

obs::Histogram& request_latency_hist() {
  static obs::Histogram& h = obs::histogram("serve.request_us", latency_bounds());
  return h;
}

enum class JobKind : int { kEq4 = 0, kRisk = 1, kCampaign = 2 };

std::optional<JobKind> job_kind_of(FrameType type) noexcept {
  switch (type) {
    case FrameType::kEq4Request:
      return JobKind::kEq4;
    case FrameType::kRiskRequest:
      return JobKind::kRisk;
    case FrameType::kCampaignRequest:
      return JobKind::kCampaign;
    default:
      return std::nullopt;
  }
}

/// Outcome label of a final status: partial/stopped count as "expired"
/// (a budget tripped), matching the ok/error/shed/expired ladder.
int outcome_index(ResponseStatus s) noexcept {
  switch (s) {
    case ResponseStatus::kOk:
      return 0;
    case ResponseStatus::kError:
      return 1;
    case ResponseStatus::kShed:
      return 2;
    case ResponseStatus::kPartial:
    case ResponseStatus::kExpired:
    case ResponseStatus::kStopped:
      return 3;
  }
  return 1;
}

obs::Histogram& job_latency_hist(JobKind kind, ResponseStatus status) {
  // All 12 job-type x outcome histograms register in one pass; every
  // later call is a plain array index.
  struct Table {
    obs::Histogram* h[3][4];
    Table() {
      constexpr const char* kJobs[3] = {"eq4", "risk", "campaign"};
      constexpr const char* kOutcomes[4] = {"ok", "error", "shed", "expired"};
      for (int j = 0; j < 3; ++j) {
        for (int o = 0; o < 4; ++o) {
          h[j][o] = &obs::histogram(
              std::string("serve.latency_us.") + kJobs[j] + "." + kOutcomes[o],
              latency_bounds());
        }
      }
    }
  };
  static Table table;
  return *table.h[static_cast<int>(kind)][outcome_index(status)];
}

void count_request() {
  if (obs::metrics_enabled()) {
    static obs::Counter& c = obs::counter("serve.requests");
    c.add();
  }
}

void count_wire_error() {
  if (obs::metrics_enabled()) {
    static obs::Counter& c = obs::counter("serve.wire_errors");
    c.add();
  }
}

void count_coalesced() {
  if (obs::metrics_enabled()) {
    static obs::Counter& c = obs::counter("serve.coalesced");
    c.add();
  }
}

void count_shed() {
  if (obs::metrics_enabled()) {
    static obs::Counter& c = obs::counter("serve.shed");
    c.add();
  }
}

void count_bytes_in(std::size_t payload_bytes) {
  if (obs::metrics_enabled()) {
    static obs::Counter& c = obs::counter("serve.bytes_in");
    c.add(payload_bytes + kFrameOverheadBytes);
  }
}

void count_bytes_out(std::size_t payload_bytes) {
  if (obs::metrics_enabled()) {
    static obs::Counter& c = obs::counter("serve.bytes_out");
    c.add(payload_bytes + kFrameOverheadBytes);
  }
}

void set_queue_depth(std::size_t outstanding) {
  if (obs::metrics_enabled()) {
    static obs::Gauge& g = obs::gauge("serve.queue_depth");
    g.set(static_cast<double>(outstanding));
  }
}

void set_inflight(std::int64_t n) {
  if (obs::metrics_enabled()) {
    static obs::Gauge& g = obs::gauge("serve.inflight");
    g.set(static_cast<double>(n));
  }
}

void set_coalesced_inflight(std::int64_t n) {
  if (obs::metrics_enabled()) {
    static obs::Gauge& g = obs::gauge("serve.coalesced_inflight");
    g.set(static_cast<double>(n));
  }
}

void count_handshake() {
  if (obs::metrics_enabled()) {
    static obs::Counter& c = obs::counter("serve.handshakes");
    c.add();
  }
}

void count_handshake_reject() {
  if (obs::metrics_enabled()) {
    static obs::Counter& c = obs::counter("serve.handshake_rejects");
    c.add();
  }
}

void count_reconnect() {
  if (obs::metrics_enabled()) {
    static obs::Counter& c = obs::counter("serve.reconnects_total");
    c.add();
  }
}

void count_reaped() {
  if (obs::metrics_enabled()) {
    static obs::Counter& c = obs::counter("serve.reaped_connections");
    c.add();
  }
}

void count_evicted() {
  if (obs::metrics_enabled()) {
    static obs::Counter& c = obs::counter("serve.evicted_connections");
    c.add();
  }
}

void count_tenant_shed(const std::string& tenant) {
  if (obs::metrics_enabled()) {
    static obs::Counter& total = obs::counter("serve.tenant_shed_total");
    total.add();
    // The per-tenant spelling is dynamic; the registry lookup is fine
    // here because shedding is the rare path by construction.
    obs::counter("serve.tenant_shed." + (tenant.empty() ? std::string("anonymous") : tenant))
        .add();
  }
}

/// Digest of everything in `job` that shapes its simulator: the wire
/// payload with the run-shape fields zeroed, so every field the wire
/// carries is covered by construction.
cache::Digest128 simulator_config_digest(CampaignJob job) {
  job.request_id = 0;
  job.n_wafers = 0;
  job.seed = 0;
  job.max_chunks = 0;
  const std::vector<std::uint8_t> bytes = encode_payload(job);
  return cache::hash128(bytes.data(), bytes.size());
}

/// Rejects a campaign expecting more than kMaxMeanDefectsPerWafer
/// defects per wafer, before any simulator is built for it.
void check_defect_bound(const CampaignJob& job) {
  const geometry::WaferSpec wafer(units::Millimeters{job.wafer_diameter_mm},
                                  units::Millimeters{job.wafer_edge_exclusion_mm},
                                  units::Millimeters{job.wafer_scribe_mm});
  const double mean = job.defect_density_per_cm2 * wafer.area().value();
  if (mean > kMaxMeanDefectsPerWafer) {
    char what[160];
    std::snprintf(what, sizeof what,
                  "%.3g defects/cm^2 expects %.3g defects per wafer, past the bound of %.3g",
                  job.defect_density_per_cm2, mean, kMaxMeanDefectsPerWafer);
    throw std::invalid_argument(what);
  }
}

/// Latency bookkeeping for one answered job request (response encoded,
/// not yet written): the overall serve.request_us histogram -- whose
/// count is exactly the job responses served -- plus the per-type x
/// per-outcome ladder.  Ping/stats/trace frames are deliberately not
/// recorded.
void record_latency(JobKind kind, ResponseStatus status, std::uint64_t start_us) {
  if (!obs::metrics_enabled()) return;
  const std::uint64_t now = now_us();
  const std::uint64_t elapsed = now > start_us ? now - start_us : 0;
  request_latency_hist().record(elapsed);
  job_latency_hist(kind, status).record(elapsed);
}

}  // namespace

struct Server::Impl {
  // ---- connection ------------------------------------------------------

  struct Connection {
    std::unique_ptr<FdStream> stream;
    std::mutex write_mu;
    std::thread reader;
    std::atomic<bool> dead{false};
    std::uint64_t conn_id = 0;    ///< registration order; eviction tie-break
    std::uint64_t frames_seen = 0;  ///< reader-thread only; hello must be frame 1
    bool helloed = false;           ///< reader-thread only
    std::string tenant;             ///< set by the hello before any job dispatches
    /// Responses owed to this connection (registered waiters not yet
    /// answered).  The idle reaper exempts connections with work owed.
    std::atomic<std::uint64_t> outstanding{0};
    /// Last frame arrival (steady ns); the eviction order key.
    std::atomic<std::uint64_t> last_activity_ns{0};
  };

  struct Waiter {
    std::shared_ptr<Connection> conn;
    std::uint64_t request_id = 0;
    std::uint64_t start_us = 0;  ///< dispatch time, for the latency histograms
    std::string tenant;          ///< quota bookkeeping outlives the connection
  };

  /// One bound accept socket (Unix or TCP) with its accept thread.
  struct Listener {
    int fd = -1;
    std::string unix_path;  ///< unlinked at shutdown; empty for TCP
    std::thread thread;
  };

  /// Simulators kept at once, so the cache stays small however many
  /// configurations clients send; past this many the least recently
  /// used one is dropped.
  static constexpr std::size_t kSimulatorCacheCapacity = 16;

  struct CachedSimulator {
    std::shared_ptr<const fabsim::FabSimulator> sim;
    std::uint64_t last_use = 0;  ///< simulator_clock at the last lookup
  };

  struct LightJob {
    cache::Digest128 key{};
    bool is_eq4 = true;
    Eq4Job eq4;
    RiskJob risk;
  };

  /// One admitted campaign awaiting its drain outcome.  The simulator
  /// and task live here because CampaignQueue holds them by reference;
  /// the simulator is shared with the simulator cache, which may evict
  /// it first.
  struct PendingCampaign {
    std::shared_ptr<const fabsim::FabSimulator> sim;
    std::unique_ptr<fabsim::FabLotCampaign> task;
    std::vector<Waiter> waiters;  ///< [0] owns the computation
    cache::Digest128 key{};
  };

  explicit Impl(ServerOptions opts)
      : options(std::move(opts)),
        queue(robust::AdmissionOptions{options.campaign_capacity, options.campaign_policy,
                                       0.0, robust::CancelToken{}}) {
    if (!options.artifact_dir.empty()) {
      store = std::make_unique<robust::ArtifactStore>(options.artifact_dir,
                                                      options.artifact_byte_cap);
    }
    // A peer that vanishes mid-response must cost EPIPE on the write,
    // not a process-wide SIGPIPE.
    std::signal(SIGPIPE, SIG_IGN);
    if (obs::metrics_enabled()) {
      // Register the fleet-health counters up front so a scrape of a
      // healthy server shows them at 0 instead of omitting them.
      (void)obs::counter("serve.reconnects_total");
      (void)obs::counter("serve.tenant_shed_total");
      (void)obs::counter("serve.handshake_rejects");
      (void)obs::counter("serve.reaped_connections");
      (void)obs::counter("serve.evicted_connections");
    }
    const int n = options.worker_threads > 0 ? options.worker_threads : 1;
    workers.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      workers.emplace_back([this] { worker_loop(); });
    }
    runner = std::thread([this] { runner_loop(); });
  }

  // ---- wire output -----------------------------------------------------

  /// Writes one response frame.  For a job response (`job` set) the
  /// request's latency is recorded once the response is encoded and
  /// before the write, so a client that reads its response and then
  /// scrapes always finds the job counted in serve.request_us.
  void send_response(const std::shared_ptr<Connection>& conn, const Response& response,
                     std::optional<JobKind> job = std::nullopt, std::uint64_t start_us = 0) {
    const std::vector<std::uint8_t> payload = encode_payload(response);
    if (job) record_latency(*job, response.status, start_us);
    if (conn->dead.load(std::memory_order_acquire)) return;
    try {
      std::lock_guard<std::mutex> lk(conn->write_mu);
      write_frame(*conn->stream, FrameType::kResponse, payload);
      requests_served.fetch_add(1, std::memory_order_relaxed);
      count_bytes_out(payload.size());
    } catch (const WireError&) {
      conn->dead.store(true, std::memory_order_release);
    }
  }

  void send_error_frame(const std::shared_ptr<Connection>& conn, std::uint64_t request_id,
                        const std::string& message) {
    cache::ByteWriter w;
    w.u64(request_id);
    w.str(message);
    const std::vector<std::uint8_t> payload = w.take();
    try {
      std::lock_guard<std::mutex> lk(conn->write_mu);
      write_frame(*conn->stream, FrameType::kErrorFrame, payload);
      count_bytes_out(payload.size());
    } catch (const WireError&) {
      conn->dead.store(true, std::memory_order_release);
    }
  }

  // ---- reader / dispatch -----------------------------------------------

  void reader_loop(const std::shared_ptr<Connection>& conn) {
    if (options.idle_timeout_ms > 0.0 || options.read_deadline_ms > 0.0) {
      conn->stream->arm_read_deadlines(options.idle_timeout_ms, options.read_deadline_ms);
    }
    bool kill = false;
    while (!conn->dead.load(std::memory_order_acquire)) {
      std::optional<Frame> frame;
      try {
        conn->stream->begin_frame();
        frame = read_frame(*conn->stream);
      } catch (const WireTimeout& e) {
        if (e.idle() && conn->outstanding.load(std::memory_order_acquire) > 0) {
          // Not idle at all: this client is quietly waiting on results
          // we still owe it (a long campaign).  Re-open the window.
          continue;
        }
        connections_reaped.fetch_add(1, std::memory_order_relaxed);
        count_reaped();
        send_error_frame(conn, 0, e.what());
        kill = true;
        break;
      } catch (const WireError& e) {
        // Structural damage: this connection dies with a diagnostic;
        // the server keeps serving everyone else.
        wire_errors.fetch_add(1, std::memory_order_relaxed);
        count_wire_error();
        send_error_frame(conn, 0, e.what());
        kill = true;
        break;
      }
      if (!frame) break;  // clean close, drain interrupt, or eviction
      conn->last_activity_ns.store(now_ns(), std::memory_order_relaxed);
      ++conn->frames_seen;
      count_bytes_in(frame->payload.size());
      if (!dispatch(conn, *frame)) {
        kill = true;
        break;
      }
    }
    if (kill || conn->dead.load(std::memory_order_acquire)) {
      // The connection is dead for real -- protocol violation, reap, or
      // eviction: close the descriptors so the peer sees EOF after the
      // diagnostic error frame.  In-flight jobs it submitted still run;
      // their responses are dropped at the dead-flag check.
      conn->dead.store(true, std::memory_order_release);
      std::lock_guard<std::mutex> lk(conn->write_mu);
      conn->stream->close_fds();
    }
    // Clean EOF (peer half-closed or drain interrupt): leave the stream
    // open -- responses for already-dispatched requests are still
    // deliverable on the write side until shutdown reaps the connection.
  }

  /// Handles one well-formed frame; returns false when the connection
  /// must close (protocol violation).
  bool dispatch(const std::shared_ptr<Connection>& conn, const Frame& frame) {
    obs::ObsSpan span("serve.request");
    count_request();
    const std::uint64_t request_id = peek_request_id(frame.payload);
    const std::uint64_t start_us = now_us();
    try {
      robust::inject(kDispatchSite, dispatch_index.fetch_add(1, std::memory_order_relaxed));
    } catch (const robust::FaultInjected& e) {
      Response r;
      r.request_id = request_id;
      r.status = ResponseStatus::kError;
      r.message = std::string("injected fault: ") + e.what() + "; resubmit";
      send_response(conn, r, job_kind_of(frame.type), start_us);
      return true;
    }
    switch (frame.type) {
      case FrameType::kPing: {
        try {
          std::lock_guard<std::mutex> lk(conn->write_mu);
          write_frame(*conn->stream, FrameType::kPong, frame.payload);
          count_bytes_out(frame.payload.size());
        } catch (const WireError&) {
          conn->dead.store(true, std::memory_order_release);
        }
        return true;
      }
      case FrameType::kEq4Request:
      case FrameType::kRiskRequest:
        return dispatch_light(conn, frame, request_id, start_us);
      case FrameType::kCampaignRequest:
        return dispatch_campaign(conn, frame, request_id, start_us);
      case FrameType::kStatsRequest:
        return handle_stats(conn, frame, request_id);
      case FrameType::kTraceStart:
        return handle_trace(conn, frame, request_id, /*start=*/true);
      case FrameType::kTraceStop:
        return handle_trace(conn, frame, request_id, /*start=*/false);
      case FrameType::kHello:
        return handle_hello(conn, frame, request_id);
      case FrameType::kResponse:
      case FrameType::kPong:
      case FrameType::kErrorFrame:
      case FrameType::kStatsResponse:
      case FrameType::kHelloAck:
        // Server-to-client types arriving at the server: a confused or
        // hostile peer.  Kill the connection, keep the server.
        wire_errors.fetch_add(1, std::memory_order_relaxed);
        count_wire_error();
        send_error_frame(conn, request_id,
                         std::string("protocol violation: client sent a ") +
                             frame_type_name(frame.type) + " frame");
        return false;
    }
    return false;
  }

  // ---- handshake -------------------------------------------------------

  /// Rejects the connection's handshake: counted, diagnosed by an error
  /// frame whose message starts "NCWIRE01 handshake rejected:", and the
  /// connection dies (return false reaches the reader's kill path).
  bool reject_handshake(const std::shared_ptr<Connection>& conn, std::uint64_t request_id,
                        const std::string& why) {
    handshake_rejects.fetch_add(1, std::memory_order_relaxed);
    count_handshake_reject();
    send_error_frame(conn, request_id, "NCWIRE01 handshake rejected: " + why);
    return false;
  }

  bool handle_hello(const std::shared_ptr<Connection>& conn, const Frame& frame,
                    std::uint64_t request_id) {
    if (conn->frames_seen != 1) {
      return reject_handshake(conn, request_id,
                              "the hello must be the first frame on a connection (this "
                              "one arrived as frame " +
                                  std::to_string(conn->frames_seen) + ")");
    }
    HelloRequest hello;
    try {
      hello = decode_hello(frame.payload);
    } catch (const std::exception& e) {
      return reject_handshake(conn, request_id,
                              std::string("malformed hello payload: ") + e.what());
    }
    if (hello.protocol_version != kWireVersion) {
      return reject_handshake(
          conn, request_id,
          "peer speaks protocol version " + std::to_string(hello.protocol_version) +
              ", this server speaks " + std::to_string(kWireVersion));
    }
    const int server_major = major_version_of(kServeVersion);
    const int client_major = major_version_of(hello.build_version);
    if (client_major < 0 || client_major != server_major) {
      return reject_handshake(conn, request_id,
                              "peer build version \"" + hello.build_version +
                                  "\" is incompatible with server build " + kServeVersion +
                                  " (major must match)");
    }
    conn->helloed = true;
    conn->tenant = hello.tenant;
    count_handshake();
    if (hello.attempt > 0) {
      // A retrying client re-introducing itself: the fleet-health signal
      // the chaos soak scrapes for.
      count_reconnect();
    }
    HelloAck ack;
    ack.request_id = hello.request_id;
    ack.protocol_version = kWireVersion;
    ack.build_version = kServeVersion;
    const std::vector<std::uint8_t> payload = encode_payload(ack);
    try {
      std::lock_guard<std::mutex> lk(conn->write_mu);
      // Deliberately not counted in requests_served or the latency
      // histograms: those track job traffic, and a handshake is
      // connection plumbing.
      write_frame(*conn->stream, FrameType::kHelloAck, payload);
      count_bytes_out(payload.size());
    } catch (const WireError&) {
      conn->dead.store(true, std::memory_order_release);
    }
    return true;
  }

  // ---- stats / trace frames --------------------------------------------

  bool handle_stats(const std::shared_ptr<Connection>& conn, const Frame& frame,
                    std::uint64_t request_id) {
    if (frame.payload.size() != 8) {
      Response r;
      r.request_id = request_id;
      r.status = ResponseStatus::kError;
      r.message = "invalid stats request: payload must be exactly the u64 request id";
      send_response(conn, r);
      return true;
    }
    StatsReport sr;
    sr.request_id = request_id;
    sr.server_version = kServeVersion;
    sr.simd_level = exec::simd_level_name(exec::simd_level());
    sr.hardware_concurrency = std::thread::hardware_concurrency();
    sr.pid = static_cast<std::uint64_t>(::getpid());
    sr.uptime_ms = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - started)
            .count());
    sr.stats = obs::encode_stats(obs::snapshot_metrics());
    const std::vector<std::uint8_t> payload = encode_payload(sr);
    try {
      std::lock_guard<std::mutex> lk(conn->write_mu);
      write_frame(*conn->stream, FrameType::kStatsResponse, payload);
      requests_served.fetch_add(1, std::memory_order_relaxed);
      count_bytes_out(payload.size());
    } catch (const WireError&) {
      conn->dead.store(true, std::memory_order_release);
    }
    return true;
  }

  bool handle_trace(const std::shared_ptr<Connection>& conn, const Frame& frame,
                    std::uint64_t request_id, bool start) {
    Response r;
    r.request_id = request_id;
    if (frame.payload.size() != 8) {
      r.status = ResponseStatus::kError;
      r.message = "invalid trace request: payload must be exactly the u64 request id";
      send_response(conn, r);
      return true;
    }
    if (start) {
      std::string path;
      {
        std::lock_guard<std::mutex> lk(mu);
        if (trace_armed) {
          r.status = ResponseStatus::kError;
          r.message = "a remote trace capture is already armed; stop it first";
        } else {
          const std::string dir = options.artifact_dir.empty()
                                      ? std::filesystem::temp_directory_path().string()
                                      : options.artifact_dir;
          trace_file = dir + "/nanocost_serve_trace_" +
                       std::to_string(static_cast<unsigned long long>(::getpid())) +
                       ".json";
          trace_armed = true;
          path = trace_file;
        }
      }
      if (!path.empty()) {
        obs::start_trace(path);
        r.message = "trace armed";
      }
      send_response(conn, r);
      return true;
    }
    std::string path;
    {
      std::lock_guard<std::mutex> lk(mu);
      if (!trace_armed) {
        r.status = ResponseStatus::kError;
        r.message = "no remote trace capture is armed";
      } else {
        trace_armed = false;
        path = trace_file;
      }
    }
    if (!path.empty()) {
      if (!obs::stop_trace()) {
        r.status = ResponseStatus::kError;
        r.message = "trace capture failed to write " + path;
      } else {
        std::ifstream in(path, std::ios::binary);
        if (!in.is_open()) {
          r.status = ResponseStatus::kError;
          r.message = "trace capture wrote no file at " + path;
        } else {
          std::vector<std::uint8_t> bytes{std::istreambuf_iterator<char>(in),
                                          std::istreambuf_iterator<char>()};
          // The Chrome JSON must fit one NCWIRE01 frame with headroom
          // for the response envelope.
          constexpr std::size_t kEnvelopeSlack = 64 * 1024;
          if (bytes.size() + kEnvelopeSlack > kMaxPayloadBytes) {
            r.status = ResponseStatus::kError;
            r.message = "trace too large to return in-band (" +
                        std::to_string(bytes.size()) + " bytes); left at " + path;
          } else {
            r.result = std::move(bytes);
            r.message = "chrome trace json";
            std::remove(path.c_str());
          }
        }
      }
    }
    send_response(conn, r);
    return true;
  }

  bool dispatch_light(const std::shared_ptr<Connection>& conn, const Frame& frame,
                      std::uint64_t request_id, std::uint64_t start_us) {
    LightJob job;
    const JobKind kind =
        frame.type == FrameType::kEq4Request ? JobKind::kEq4 : JobKind::kRisk;
    try {
      if (frame.type == FrameType::kEq4Request) {
        job.is_eq4 = true;
        job.eq4 = decode_eq4_job(frame.payload);
        job.key = job_key(job.eq4);
      } else {
        job.is_eq4 = false;
        job.risk = decode_risk_job(frame.payload);
        job.key = job_key(job.risk);
      }
    } catch (const std::exception& e) {
      // The frame was structurally sound (checksum passed) but the job
      // is semantically invalid: error response, connection lives.
      Response r;
      r.request_id = request_id;
      r.status = ResponseStatus::kError;
      r.message = std::string("invalid job payload: ") + e.what();
      send_response(conn, r, kind, start_us);
      return true;
    }
    {
      std::unique_lock<std::mutex> lk(mu);
      auto it = light_inflight.find(job.key);
      if (it != light_inflight.end()) {
        // An identical job is already computing: piggyback.
        it->second.push_back(Waiter{conn, request_id, start_us, conn->tenant});
        conn->outstanding.fetch_add(1, std::memory_order_acq_rel);
        coalesced_count.fetch_add(1, std::memory_order_relaxed);
        count_coalesced();
        ++inflight_waiters;
        ++coalesced_waiters;
        set_inflight(inflight_waiters);
        set_coalesced_inflight(coalesced_waiters);
        return true;
      }
      light_inflight[job.key] = {Waiter{conn, request_id, start_us, conn->tenant}};
      light_queue.push_back(std::move(job));
      conn->outstanding.fetch_add(1, std::memory_order_acq_rel);
      ++inflight_waiters;
      set_inflight(inflight_waiters);
    }
    light_cv.notify_one();
    return true;
  }

  bool dispatch_campaign(const std::shared_ptr<Connection>& conn, const Frame& frame,
                         std::uint64_t request_id, std::uint64_t start_us) {
    CampaignJob job;
    std::shared_ptr<const fabsim::FabSimulator> sim;
    cache::Digest128 key;
    try {
      job = decode_campaign_job(frame.payload);
      check_defect_bound(job);
      sim = simulator_for(job);
      key = job_key(job, *sim);
    } catch (const std::exception& e) {
      Response r;
      r.request_id = request_id;
      r.status = ResponseStatus::kError;
      r.message = std::string("invalid campaign job: ") + e.what();
      send_response(conn, r, JobKind::kCampaign, start_us);
      return true;
    }
    std::size_t slot = 0;
    bool admitted = false;
    Response immediate;
    {
      std::unique_lock<std::mutex> lk(mu);
      // The tenant quota gates every submission path -- joining an
      // in-flight twin holds a response slot just like a fresh admit.
      const std::string& tenant = conn->tenant;
      if (options.tenant_campaign_quota > 0 &&
          tenant_outstanding[tenant] >= options.tenant_campaign_quota) {
        tenant_shed.fetch_add(1, std::memory_order_relaxed);
        count_tenant_shed(tenant);
        Response shed;
        shed.request_id = request_id;
        shed.status = ResponseStatus::kShed;
        shed.message = "tenant quota: tenant \"" + tenant + "\" already has " +
                       std::to_string(tenant_outstanding[tenant]) +
                       " campaigns in flight (quota " +
                       std::to_string(options.tenant_campaign_quota) + ")";
        shed.completeness = 0.0;
        lk.unlock();
        send_response(conn, shed, JobKind::kCampaign, start_us);
        return true;
      }
      auto it = campaign_inflight.find(key);
      if (it != campaign_inflight.end()) {
        pending.at(it->second).waiters.push_back(Waiter{conn, request_id, start_us, tenant});
        ++tenant_outstanding[tenant];
        conn->outstanding.fetch_add(1, std::memory_order_acq_rel);
        coalesced_count.fetch_add(1, std::memory_order_relaxed);
        count_coalesced();
        ++inflight_waiters;
        ++coalesced_waiters;
        set_inflight(inflight_waiters);
        set_coalesced_inflight(coalesced_waiters);
        return true;
      }
      auto task = std::make_unique<fabsim::FabLotCampaign>(*sim, job.n_wafers, job.seed);
      robust::CampaignOptions run;
      // The campaign's record is named by its identity (not max_chunks),
      // so a budget-limited run and its full resubmission share it.
      if (store != nullptr) run.artifact_dir = store->dir();
      run.wave_chunks = options.campaign_wave_chunks;
      run.max_chunks_this_run = job.max_chunks;
      run.pool = options.pool;
      // Admission happens here, synchronously in the reader: shed
      // decisions are a pure function of the request arrival order.
      slot = queue.submit(*task, run);
      const robust::SubmissionOutcome outcome = queue.outcome_copy(slot);
      if (outcome.status == robust::SubmissionStatus::kShed ||
          outcome.status == robust::SubmissionStatus::kStopped) {
        campaigns_shed.fetch_add(1, std::memory_order_relaxed);
        count_shed();
        immediate.request_id = request_id;
        immediate.status = outcome.status == robust::SubmissionStatus::kShed
                               ? ResponseStatus::kShed
                               : ResponseStatus::kStopped;
        immediate.message = outcome.message;
        immediate.completeness = 0.0;
      } else {
        PendingCampaign pc;
        pc.sim = std::move(sim);
        pc.task = std::move(task);
        pc.waiters.push_back(Waiter{conn, request_id, start_us, conn->tenant});
        pc.key = key;
        pending.emplace(slot, std::move(pc));
        campaign_inflight.emplace(key, slot);
        ++tenant_outstanding[conn->tenant];
        conn->outstanding.fetch_add(1, std::memory_order_acq_rel);
        ++inflight_waiters;
        set_inflight(inflight_waiters);
        admitted = true;
      }
      set_queue_depth(queue.outstanding());
    }
    if (admitted) {
      runner_cv.notify_one();
    } else {
      send_response(conn, immediate, JobKind::kCampaign, start_us);
    }
    return true;
  }

  /// The simulator `job` describes.  Building one (almost all of it the
  /// kill-probability LUT) costs many times what serving a replayed lot
  /// does, so each configuration is built once per server and shared.
  /// A miss builds outside mu; a configuration the library rejects
  /// throws here and is not cached.
  std::shared_ptr<const fabsim::FabSimulator> simulator_for(const CampaignJob& job) {
    const cache::Digest128 config = simulator_config_digest(job);
    {
      std::lock_guard<std::mutex> lk(mu);
      const auto it = simulators.find(config);
      if (it != simulators.end()) {
        it->second.last_use = ++simulator_clock;
        return it->second.sim;
      }
    }
    auto built = std::make_shared<const fabsim::FabSimulator>(make_simulator(job));
    simulators_built.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lk(mu);
    // A reader racing on the same configuration may have inserted first;
    // keep its simulator so the cache holds one per configuration.
    const auto it = simulators.try_emplace(config, CachedSimulator{std::move(built), 0}).first;
    it->second.last_use = ++simulator_clock;
    if (simulators.size() > kSimulatorCacheCapacity) {
      simulators.erase(std::min_element(
          simulators.begin(), simulators.end(), [](const auto& a, const auto& b) {
            return a.second.last_use < b.second.last_use;
          }));
    }
    return it->second.sim;
  }

  // ---- light-job workers -----------------------------------------------

  void worker_loop() {
    std::unique_lock<std::mutex> lk(mu);
    while (true) {
      light_cv.wait(lk, [&] { return workers_stop || !light_queue.empty(); });
      if (light_queue.empty()) {
        if (workers_stop) return;
        continue;
      }
      LightJob job = std::move(light_queue.front());
      light_queue.pop_front();
      lk.unlock();
      Response r;
      try {
        r = job.is_eq4 ? execute(job.eq4, options.pool)
                       : execute(job.risk, options.request_budget_ms, options.pool);
      } catch (const std::exception& e) {
        r.status = ResponseStatus::kError;
        r.message = std::string("job failed: ") + e.what();
      }
      lk.lock();
      std::vector<Waiter> waiters = std::move(light_inflight[job.key]);
      light_inflight.erase(job.key);
      inflight_waiters -= static_cast<std::int64_t>(waiters.size());
      if (waiters.size() > 1) {
        coalesced_waiters -= static_cast<std::int64_t>(waiters.size() - 1);
      }
      set_inflight(inflight_waiters);
      set_coalesced_inflight(coalesced_waiters);
      lk.unlock();
      const JobKind kind = job.is_eq4 ? JobKind::kEq4 : JobKind::kRisk;
      for (std::size_t i = 0; i < waiters.size(); ++i) {
        r.request_id = waiters[i].request_id;
        r.coalesced = i > 0;
        send_response(waiters[i].conn, r, kind, waiters[i].start_us);
        waiters[i].conn->outstanding.fetch_sub(1, std::memory_order_acq_rel);
      }
      lk.lock();
    }
  }

  // ---- campaign runner -------------------------------------------------

  void runner_loop() {
    std::unique_lock<std::mutex> lk(mu);
    while (true) {
      runner_cv.wait(lk, [&] { return campaigns_closed || queue.outstanding() > 0; });
      if (queue.outstanding() > 0) {
        lk.unlock();
        queue.drain([this](std::size_t slot, const robust::SubmissionOutcome& outcome) {
          on_campaign_done(slot, outcome);
        });
        lk.lock();
        continue;
      }
      if (campaigns_closed) return;
    }
  }

  void on_campaign_done(std::size_t slot, const robust::SubmissionOutcome& outcome) {
    std::vector<Waiter> waiters;
    Response r;
    {
      std::unique_lock<std::mutex> lk(mu);
      auto it = pending.find(slot);
      if (it == pending.end()) return;
      PendingCampaign pc = std::move(it->second);
      pending.erase(it);
      campaign_inflight.erase(pc.key);
      waiters = std::move(pc.waiters);
      r.message = outcome.message;
      switch (outcome.status) {
        case robust::SubmissionStatus::kCompleted:
          r.status = ResponseStatus::kOk;
          campaigns_completed.fetch_add(1, std::memory_order_relaxed);
          break;
        case robust::SubmissionStatus::kPartial:
          r.status = ResponseStatus::kPartial;
          break;
        case robust::SubmissionStatus::kExpired:
          r.status = ResponseStatus::kExpired;
          break;
        case robust::SubmissionStatus::kStopped:
          r.status = ResponseStatus::kStopped;
          campaigns_stopped.fetch_add(1, std::memory_order_relaxed);
          break;
        case robust::SubmissionStatus::kFailed:  // e.g. a corrupt record; the message names it
          r.status = ResponseStatus::kError;
          r.message = "campaign " + outcome.message;
          break;
        case robust::SubmissionStatus::kShed:
        case robust::SubmissionStatus::kQueued:
          r.status = ResponseStatus::kError;
          r.message = "internal: unexpected drain outcome";
          break;
      }
      if (outcome.result.total_chunks > 0) {
        try {
          const fabsim::PartialLot lot = pc.task->assemble(outcome.result);
          r.result = cache::encode(lot.lot);
          r.completeness = lot.completeness;
          r.frontier_chunks = lot.frontier_chunks;
        } catch (const std::exception& e) {
          r.status = ResponseStatus::kError;
          r.message = std::string("campaign assembly failed: ") + e.what();
        }
        r.artifact_hits = static_cast<std::uint64_t>(outcome.result.artifact_hits);
      } else {
        r.completeness = 0.0;
      }
      inflight_waiters -= static_cast<std::int64_t>(waiters.size());
      if (waiters.size() > 1) {
        coalesced_waiters -= static_cast<std::int64_t>(waiters.size() - 1);
      }
      for (const Waiter& w : waiters) {
        auto tenant_it = tenant_outstanding.find(w.tenant);
        if (tenant_it != tenant_outstanding.end() && tenant_it->second > 0) {
          if (--tenant_it->second == 0) tenant_outstanding.erase(tenant_it);
        }
      }
      set_inflight(inflight_waiters);
      set_coalesced_inflight(coalesced_waiters);
      set_queue_depth(queue.outstanding());
    }
    for (std::size_t i = 0; i < waiters.size(); ++i) {
      r.request_id = waiters[i].request_id;
      r.coalesced = i > 0;
      send_response(waiters[i].conn, r, JobKind::kCampaign, waiters[i].start_us);
      waiters[i].conn->outstanding.fetch_sub(1, std::memory_order_acq_rel);
    }
  }

  // ---- lifecycle -------------------------------------------------------

  void add_connection(int read_fd, int write_fd) {
    auto conn = std::make_shared<Connection>();
    conn->stream = std::make_unique<FdStream>(read_fd, write_fd);
    conn->last_activity_ns.store(now_ns(), std::memory_order_relaxed);
    // Check + register + spawn under one lock hold: shutdown() must
    // never observe a registered connection without a joinable reader.
    std::lock_guard<std::mutex> lk(mu);
    if (shutting_down) {
      throw std::logic_error("serve: the server is draining; no new connections");
    }
    conn->conn_id = next_conn_id++;
    if (options.max_connections > 0) evict_to_make_room_locked();
    conn->reader = std::thread([this, conn] { reader_loop(conn); });
    connections.push_back(conn);
  }

  /// Under mu: while the live-connection count is at the cap, kill the
  /// least-recently-active connection (ties broken by lowest conn_id --
  /// both keys are deterministic, so the victim is too).  The victim
  /// gets a diagnostic error frame, then its reader closes the fds.
  void evict_to_make_room_locked() {
    while (true) {
      std::size_t live = 0;
      std::shared_ptr<Connection> victim;
      for (const auto& c : connections) {
        if (c->dead.load(std::memory_order_acquire)) continue;
        ++live;
        if (victim == nullptr) {
          victim = c;
          continue;
        }
        const std::uint64_t ca = c->last_activity_ns.load(std::memory_order_relaxed);
        const std::uint64_t va = victim->last_activity_ns.load(std::memory_order_relaxed);
        if (ca < va || (ca == va && c->conn_id < victim->conn_id)) victim = c;
      }
      if (live < options.max_connections || victim == nullptr) return;
      connections_evicted.fetch_add(1, std::memory_order_relaxed);
      count_evicted();
      send_error_frame(victim, 0,
                       "NCWIRE01 connection evicted: server at its max-connections cap (" +
                           std::to_string(options.max_connections) +
                           ") and this connection was the oldest idle");
      victim->dead.store(true, std::memory_order_release);
      victim->stream->interrupt();
    }
  }

  void listen_unix(const std::string& path) {
    {
      std::lock_guard<std::mutex> lk(mu);
      if (shutting_down) {
        throw std::logic_error("serve: the server is draining; cannot listen");
      }
    }
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) {
      throw std::runtime_error(std::string("serve: socket() failed: ") +
                               std::strerror(errno));
    }
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path)) {
      ::close(fd);
      throw std::runtime_error("serve: socket path too long: " + path);
    }
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    ::unlink(path.c_str());
    if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0 ||
        ::listen(fd, 64) != 0) {
      const int err = errno;
      ::close(fd);
      throw std::runtime_error("serve: cannot listen on " + path + ": " +
                               std::strerror(err));
    }
    register_listener(fd, path);
  }

  int listen_tcp(const std::string& host, int port) {
    {
      std::lock_guard<std::mutex> lk(mu);
      if (shutting_down) {
        throw std::logic_error("serve: the server is draining; cannot listen");
      }
    }
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
      throw std::runtime_error(std::string("serve: socket() failed: ") +
                               std::strerror(errno));
    }
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    if (host.empty() || host == "*" || host == "0.0.0.0") {
      addr.sin_addr.s_addr = htonl(INADDR_ANY);
    } else if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
      ::close(fd);
      throw std::runtime_error("serve: cannot parse TCP host \"" + host +
                               "\" (IPv4 dotted quad expected)");
    }
    if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0 ||
        ::listen(fd, 64) != 0) {
      const int err = errno;
      ::close(fd);
      throw std::runtime_error("serve: cannot listen on tcp:" + host + ":" +
                               std::to_string(port) + ": " + std::strerror(err));
    }
    sockaddr_in bound{};
    socklen_t bound_len = sizeof(bound);
    int bound_port = port;
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) == 0) {
      bound_port = static_cast<int>(ntohs(bound.sin_port));
    }
    register_listener(fd, "");
    return bound_port;
  }

  void register_listener(int fd, const std::string& unix_path) {
    auto listener = std::make_unique<Listener>();
    listener->fd = fd;
    listener->unix_path = unix_path;
    Listener* raw = listener.get();
    std::lock_guard<std::mutex> lk(mu);
    if (shutting_down) {
      ::close(fd);
      if (!unix_path.empty()) ::unlink(unix_path.c_str());
      throw std::logic_error("serve: the server is draining; cannot listen");
    }
    raw->thread = std::thread([this, raw] { accept_loop(raw->fd); });
    listeners.push_back(std::move(listener));
  }

  void accept_loop(int listen_fd) {
    std::uint64_t accept_index = 0;
    while (!shutting_down_flag.load(std::memory_order_acquire)) {
      pollfd pfd{};
      pfd.fd = listen_fd;
      pfd.events = POLLIN;
      const int pr = ::poll(&pfd, 1, 100);
      if (pr <= 0) continue;
      const int client = ::accept(listen_fd, nullptr, nullptr);
      if (client < 0) continue;
      try {
        robust::inject(kAcceptSite, accept_index++);
      } catch (const robust::FaultInjected&) {
        // The accept path failed deterministically: drop this client as
        // a real accept failure would; the listener keeps going.
        ::close(client);
        continue;
      }
      try {
        add_connection(client, client);
      } catch (const std::exception&) {
        ::close(client);
      }
    }
  }

  DrainReport shutdown() {
    std::lock_guard<std::mutex> shutdown_lk(shutdown_mu);
    if (report_ready) return report;

    // 1. Stop accepting: no new connections, no new requests.
    shutting_down_flag.store(true, std::memory_order_release);
    {
      std::lock_guard<std::mutex> lk(mu);
      shutting_down = true;
    }
    for (const auto& l : listeners) {
      if (l->thread.joinable()) l->thread.join();
    }
    for (const auto& l : listeners) {
      if (l->fd >= 0) {
        ::close(l->fd);
        l->fd = -1;
        if (!l->unix_path.empty()) ::unlink(l->unix_path.c_str());
      }
    }

    // 2. Wind down readers; requests already dispatched stay in flight.
    std::vector<std::shared_ptr<Connection>> conns;
    {
      std::lock_guard<std::mutex> lk(mu);
      conns = connections;
    }
    for (const auto& c : conns) c->stream->interrupt();
    for (const auto& c : conns) {
      if (c->reader.joinable()) c->reader.join();
    }

    // A remote trace capture nobody stopped must not outlive the
    // server: disarm it and drop the orphaned file.
    {
      std::lock_guard<std::mutex> lk(mu);
      if (trace_armed) {
        trace_armed = false;
        obs::stop_trace();
        std::remove(trace_file.c_str());
      }
    }

    // 3. Drain the light-job queue: workers finish everything queued,
    // then exit.
    {
      std::lock_guard<std::mutex> lk(mu);
      workers_stop = true;
    }
    light_cv.notify_all();
    for (std::thread& w : workers) {
      if (w.joinable()) w.join();
    }

    // 4. Campaigns: give in-flight work the drain budget, then stop the
    // queue -- the running campaign checkpoints at its next chunk
    // boundary and every admitted-but-unstarted one drains as kStopped,
    // each with a final response.
    std::thread watchdog;
    {
      std::lock_guard<std::mutex> wd_lk(wd_mu);
      wd_done = false;
    }
    if (options.drain_budget_ms > 0.0 && queue.outstanding() > 0) {
      watchdog = std::thread([this] {
        std::unique_lock<std::mutex> wd_lk(wd_mu);
        const auto budget =
            std::chrono::duration<double, std::milli>(options.drain_budget_ms);
        if (!wd_cv.wait_for(wd_lk, budget, [&] { return wd_done; })) {
          queue.stop();
        }
      });
    }
    {
      std::lock_guard<std::mutex> lk(mu);
      campaigns_closed = true;
    }
    runner_cv.notify_all();
    if (runner.joinable()) runner.join();
    {
      std::lock_guard<std::mutex> wd_lk(wd_mu);
      wd_done = true;
    }
    wd_cv.notify_all();
    if (watchdog.joinable()) watchdog.join();

    // 5. Flush the artifact tier: enforce the byte cap now, while no
    // campaign is consulting blobs.
    if (store != nullptr) {
      report.artifact_sweep = store->sweep();
    }
    report.requests_served = requests_served.load(std::memory_order_relaxed);
    report.wire_errors = wire_errors.load(std::memory_order_relaxed);
    report.coalesced = coalesced_count.load(std::memory_order_relaxed);
    report.campaigns_completed = campaigns_completed.load(std::memory_order_relaxed);
    report.campaigns_stopped = campaigns_stopped.load(std::memory_order_relaxed);
    report.campaigns_shed = campaigns_shed.load(std::memory_order_relaxed);
    report.handshake_rejects = handshake_rejects.load(std::memory_order_relaxed);
    report.connections_reaped = connections_reaped.load(std::memory_order_relaxed);
    report.connections_evicted = connections_evicted.load(std::memory_order_relaxed);
    report.tenant_shed = tenant_shed.load(std::memory_order_relaxed);
    report.simulators_built = simulators_built.load(std::memory_order_relaxed);
    report_ready = true;
    return report;
  }

  // ---- state -----------------------------------------------------------

  ServerOptions options;
  std::unique_ptr<robust::ArtifactStore> store;
  robust::CampaignQueue queue;

  std::mutex mu;  ///< guards everything below (impl::mu before queue's)
  std::vector<std::shared_ptr<Connection>> connections;
  std::deque<LightJob> light_queue;
  std::map<cache::Digest128, std::vector<Waiter>> light_inflight;
  std::map<std::size_t, PendingCampaign> pending;
  std::map<cache::Digest128, std::size_t> campaign_inflight;
  std::map<std::string, std::size_t> tenant_outstanding;  ///< live campaign waiters per tenant
  /// Built simulators by simulator_config_digest, at most
  /// kSimulatorCacheCapacity of them.
  std::map<cache::Digest128, CachedSimulator> simulators;
  std::uint64_t simulator_clock = 0;
  std::uint64_t next_conn_id = 1;
  bool shutting_down = false;
  bool workers_stop = false;
  bool campaigns_closed = false;
  bool trace_armed = false;      ///< a remote kTraceStart is live
  std::string trace_file;        ///< where the armed capture will land
  std::int64_t inflight_waiters = 0;   ///< dispatched job waiters not yet answered
  std::int64_t coalesced_waiters = 0;  ///< the subset piggybacking on another job

  std::condition_variable light_cv;
  std::condition_variable runner_cv;
  std::vector<std::thread> workers;
  std::thread runner;
  std::vector<std::unique_ptr<Listener>> listeners;
  std::atomic<bool> shutting_down_flag{false};

  std::mutex shutdown_mu;  ///< serializes shutdown(); taken before mu
  bool report_ready = false;
  DrainReport report;
  std::mutex wd_mu;
  std::condition_variable wd_cv;
  bool wd_done = false;

  std::atomic<std::uint64_t> dispatch_index{0};
  std::atomic<std::uint64_t> requests_served{0};
  std::atomic<std::uint64_t> wire_errors{0};
  std::atomic<std::uint64_t> coalesced_count{0};
  std::atomic<std::uint64_t> campaigns_completed{0};
  std::atomic<std::uint64_t> campaigns_stopped{0};
  std::atomic<std::uint64_t> campaigns_shed{0};
  std::atomic<std::uint64_t> handshake_rejects{0};
  std::atomic<std::uint64_t> connections_reaped{0};
  std::atomic<std::uint64_t> connections_evicted{0};
  std::atomic<std::uint64_t> tenant_shed{0};
  std::atomic<std::uint64_t> simulators_built{0};

  /// Construction instant; kStatsResponse reports uptime against it.
  const std::chrono::steady_clock::time_point started = std::chrono::steady_clock::now();
};

Server::Server(ServerOptions options) : impl_(std::make_unique<Impl>(std::move(options))) {}

Server::~Server() {
  try {
    impl_->shutdown();
  } catch (...) {
    // Destructors must not throw; a drain failure at teardown is
    // swallowed (the report path, shutdown(), rethrows normally).
  }
}

void Server::add_connection(int read_fd, int write_fd) {
  impl_->add_connection(read_fd, write_fd);
}

void Server::listen_unix(const std::string& path) { impl_->listen_unix(path); }

int Server::listen_tcp(const std::string& host, int port) {
  return impl_->listen_tcp(host, port);
}

DrainReport Server::shutdown() { return impl_->shutdown(); }

const ServerOptions& Server::options() const noexcept { return impl_->options; }

}  // namespace nanocost::serve
