#include "nanocost/serve/server.hpp"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <charconv>
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
#include <set>
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
#include "nanocost/exec/parallel.hpp"
#include "nanocost/exec/simd.hpp"
#include "nanocost/fabsim/campaign.hpp"
#include "nanocost/obs/metrics.hpp"
#include "nanocost/obs/stats.hpp"
#include "nanocost/obs/trace.hpp"
#include "nanocost/robust/campaign.hpp"
#include "nanocost/robust/cancel.hpp"
#include "nanocost/robust/fault_injection.hpp"
#include "nanocost/serve/jobs.hpp"
#include "nanocost/serve/wire.hpp"

namespace nanocost::serve {

namespace {

constexpr robust::FaultSite kAcceptSite{"serve.accept"};
constexpr robust::FaultSite kDispatchSite{"serve.dispatch"};

/// Leading integer of a "major.minor.patch" string; -1 when the string
/// does not start with digits followed by a dot, or the digits overflow
/// an int (each treated as a mismatch by the handshake, with the raw
/// string in the diagnostic).
int major_version_of(const std::string& v) noexcept {
  if (v.empty() || v[0] < '0' || v[0] > '9') return -1;
  const char* end = v.data() + v.size();
  int major = 0;
  const auto [ptr, ec] = std::from_chars(v.data(), end, major);
  if (ec != std::errc{} || ptr == end || *ptr != '.') return -1;
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

/// Every serve metric (obs::metrics_table), registered together on first
/// use so a scrape of a healthy server shows each at 0 instead of
/// omitting it.  The per-tenant shed family, serve.tenant_shed{tenant},
/// is registered tenant by tenant, on the shed path, for at most
/// kMaxShedTenantCounters tenants per process.
struct ServeMetrics {
  obs::Counter& requests = obs::counter("serve.requests");
  obs::Counter& wire_errors = obs::counter("serve.wire_errors");
  obs::Counter& coalesced = obs::counter("serve.coalesced");
  obs::Counter& shed = obs::counter("serve.shed");
  obs::Counter& bytes_in = obs::counter("serve.bytes_in");    ///< frame overhead included
  obs::Counter& bytes_out = obs::counter("serve.bytes_out");  ///< frame overhead included
  obs::Counter& handshakes = obs::counter("serve.handshakes");
  obs::Counter& handshake_rejects = obs::counter("serve.handshake_rejects");
  obs::Counter& reconnects = obs::counter("serve.reconnects_total");
  obs::Counter& reaped = obs::counter("serve.reaped_connections");
  obs::Counter& evicted = obs::counter("serve.evicted_connections");
  obs::Counter& stalled = obs::counter("serve.stalled_connections");
  obs::Counter& tenant_shed = obs::counter("serve.tenant_shed_total");
  obs::Gauge& queue_depth = obs::gauge("serve.queue_depth");
  obs::Gauge& inflight = obs::gauge("serve.inflight");
  obs::Gauge& coalesced_inflight = obs::gauge("serve.coalesced_inflight");
  /// Counts exactly the job responses served.
  obs::Histogram& request_us = obs::histogram("serve.request_us");
  /// serve.latency_us.<job>.<outcome>, by [JobKind][outcome_index].
  obs::Histogram* latency_us[3][4];
  std::mutex tenant_mu;
  std::set<std::string> shed_tenants;  ///< the first kMaxShedTenantCounters; tenant_mu

  ServeMetrics() {
    constexpr const char* kJobs[3] = {"eq4", "risk", "campaign"};
    constexpr const char* kOutcomes[4] = {"ok", "error", "shed", "expired"};
    for (int j = 0; j < 3; ++j) {
      for (int o = 0; o < 4; ++o) {
        latency_us[j][o] = &obs::histogram(std::string("serve.latency_us.") + kJobs[j] + "." +
                                           kOutcomes[o]);
      }
    }
  }

  /// Latency of one answered job request (response encoded, not yet
  /// written), into serve.request_us and its job x outcome histogram.
  /// Ping/stats/trace frames are deliberately not recorded.
  void record_latency(JobKind kind, ResponseStatus status, std::uint64_t start_us) {
    const std::uint64_t now = now_us();
    const std::uint64_t elapsed = now > start_us ? now - start_us : 0;
    request_us.record(elapsed);
    latency_us[static_cast<int>(kind)][outcome_index(status)]->record(elapsed);
  }

  /// The waiter gauges: waiters registered, and those riding a twin.
  void publish_waiters(std::int64_t waiting, std::int64_t coalescing) {
    inflight.set(static_cast<double>(waiting));
    coalesced_inflight.set(static_cast<double>(coalescing));
  }

  /// One tenant-quota shed: counted in tenant_shed, and in the tenant's
  /// own counter while it is one of the first kMaxShedTenantCounters.
  void count_tenant_shed(const std::string& tenant) {
    tenant_shed.add();
    std::lock_guard<std::mutex> lk(tenant_mu);
    if (shed_tenants.size() < kMaxShedTenantCounters) shed_tenants.insert(tenant);
    // The tenant rides as a label ("" for the anonymous tenant), so no
    // tenant can render as another's sample or as tenant_shed_total.
    if (shed_tenants.count(tenant) != 0) {
      obs::counter("serve.tenant_shed{tenant=\"" + tenant + "\"}").add();
    }
  }
};

/// Rejects a campaign expecting more than kMaxMeanDefectsPerWafer
/// defects per wafer, before any simulator is built for it.
void check_defect_bound(const fabsim::FabConfig& config) {
  const double mean = config.field.density_per_cm2 * config.wafer.area().value();
  if (mean > kMaxMeanDefectsPerWafer) {
    char what[160];
    std::snprintf(what, sizeof what,
                  "%.3g defects/cm^2 expects %.3g defects per wafer, past the bound of %.3g",
                  config.field.density_per_cm2, mean, kMaxMeanDefectsPerWafer);
    throw std::invalid_argument(what);
  }
}

/// Whether `tenant` can name a metric: at most kMaxTenantBytes bytes
/// of [A-Za-z0-9._-].
bool valid_tenant(const std::string& tenant) {
  return tenant.size() <= kMaxTenantBytes &&
         std::all_of(tenant.begin(), tenant.end(), [](char c) {
           return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') ||
                  c == '.' || c == '_' || c == '-';
         });
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

  /// One admitted campaign, queued or running.  The task runs on the
  /// simulator, which is shared with the simulator cache because the
  /// cache may evict it first.
  struct PendingCampaign {
    std::shared_ptr<const fabsim::FabSimulator> sim;
    std::unique_ptr<fabsim::FabLotCampaign> task;
    std::int64_t max_chunks = 0;  ///< the job's own chunk budget; 0 = all
    cache::Digest128 key{};
  };

  explicit Impl(ServerOptions opts) : options(std::move(opts)) {
    if (options.campaign_capacity < 1) {
      throw std::invalid_argument("serve: campaign_capacity must be >= 1");
    }
    if (!options.artifact_dir.empty()) {
      store = std::make_unique<robust::ArtifactStore>(options.artifact_dir,
                                                      options.artifact_byte_cap);
    }
    // A peer that vanishes mid-response must cost EPIPE on the write,
    // not a process-wide SIGPIPE.
    std::signal(SIGPIPE, SIG_IGN);
    (void)obs::metrics_table<ServeMetrics>();  // registers the table when metrics are on
    const int n = options.worker_threads > 0 ? options.worker_threads : 1;
    workers.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      workers.emplace_back([this] { worker_loop(); });
    }
    runner = std::thread([this] { runner_loop(); });
  }

  // ---- wire output -----------------------------------------------------

  /// Writes one frame under the connection's write lock and counts it in
  /// serve.bytes_out.  A dead connection is skipped (an evicted one still
  /// gets its diagnostic), and a failed write marks it dead.  A peer that
  /// accepted no byte for kWriteStallMs is cut off as an evicted one is,
  /// and counted in serve.stalled_connections.  Returns whether the frame
  /// was written.
  bool send_frame(Connection& conn, FrameType type, const std::vector<std::uint8_t>& payload,
                  bool evicted = false) {
    if (!evicted && conn.dead.load(std::memory_order_acquire)) return false;
    try {
      std::lock_guard<std::mutex> lk(conn.write_mu);
      write_frame(*conn.stream, type, payload);
    } catch (const WireTimeout&) {
      if (!conn.dead.exchange(true, std::memory_order_acq_rel)) {
        connections_stalled.fetch_add(1, std::memory_order_relaxed);
        if (auto* m = obs::metrics_table<ServeMetrics>()) m->stalled.add();
      }
      conn.stream->interrupt();
      return false;
    } catch (const WireError&) {
      conn.dead.store(true, std::memory_order_release);
      return false;
    }
    if (auto* m = obs::metrics_table<ServeMetrics>()) {
      m->bytes_out.add(payload.size() + kFrameOverheadBytes);
    }
    return true;
  }

  /// Writes one response frame.  For a job response (`job` set) the
  /// request's latency is recorded once the response is encoded and
  /// before the write, so a client that reads its response and then
  /// scrapes always finds the job counted in serve.request_us.
  void send_response(const std::shared_ptr<Connection>& conn, const Response& response,
                     std::optional<JobKind> job = std::nullopt, std::uint64_t start_us = 0) {
    const std::vector<std::uint8_t> payload = encode_payload(response);
    ServeMetrics* m = obs::metrics_table<ServeMetrics>();
    if (job && m != nullptr) m->record_latency(*job, response.status, start_us);
    if (send_frame(*conn, FrameType::kResponse, payload)) {
      requests_served.fetch_add(1, std::memory_order_relaxed);
    }
  }

  void send_error_frame(const std::shared_ptr<Connection>& conn, std::uint64_t request_id,
                        const std::string& message, bool evicted = false) {
    cache::ByteWriter w;
    w.u64(request_id);
    w.str(message);
    (void)send_frame(*conn, FrameType::kErrorFrame, w.take(), evicted);
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
        if (auto* m = obs::metrics_table<ServeMetrics>()) m->reaped.add();
        send_error_frame(conn, 0, e.what());
        kill = true;
        break;
      } catch (const WireError& e) {
        // Structural damage: this connection dies with a diagnostic;
        // the server keeps serving everyone else.
        wire_errors.fetch_add(1, std::memory_order_relaxed);
        if (auto* m = obs::metrics_table<ServeMetrics>()) m->wire_errors.add();
        send_error_frame(conn, 0, e.what());
        kill = true;
        break;
      }
      if (!frame) break;  // clean close, drain interrupt, or eviction
      conn->last_activity_ns.store(now_ns(), std::memory_order_relaxed);
      ++conn->frames_seen;
      if (auto* m = obs::metrics_table<ServeMetrics>()) {
        m->bytes_in.add(frame->payload.size() + kFrameOverheadBytes);
      }
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
    if (auto* m = obs::metrics_table<ServeMetrics>()) m->requests.add();
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
      case FrameType::kPing:
        (void)send_frame(*conn, FrameType::kPong, frame.payload);
        return true;
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
        if (auto* m = obs::metrics_table<ServeMetrics>()) m->wire_errors.add();
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
    if (auto* m = obs::metrics_table<ServeMetrics>()) m->handshake_rejects.add();
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
    if (!valid_tenant(hello.tenant)) {
      return reject_handshake(conn, request_id,
                              "a tenant is at most " + std::to_string(kMaxTenantBytes) +
                                  " bytes of [A-Za-z0-9._-]; this one has " +
                                  std::to_string(hello.tenant.size()) + " bytes");
    }
    conn->helloed = true;
    conn->tenant = hello.tenant;
    if (auto* m = obs::metrics_table<ServeMetrics>()) m->handshakes.add();
    if (hello.attempt > 0) {
      // A retrying client re-introducing itself: the fleet-health signal
      // the chaos soak scrapes for.
      if (auto* m = obs::metrics_table<ServeMetrics>()) m->reconnects.add();
    }
    HelloAck ack;
    ack.request_id = hello.request_id;
    ack.protocol_version = kWireVersion;
    ack.build_version = kServeVersion;
    // Deliberately not counted in requests_served or the latency
    // histograms: those track job traffic, and a handshake is
    // connection plumbing.
    (void)send_frame(*conn, FrameType::kHelloAck, encode_payload(ack));
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
    if (send_frame(*conn, FrameType::kStatsResponse, encode_payload(sr))) {
      requests_served.fetch_add(1, std::memory_order_relaxed);
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
      std::lock_guard<std::mutex> lk(mu);
      // An identical job already computing answers this one too.
      if (add_waiter_locked(job.key, Waiter{conn, request_id, start_us, conn->tenant})) {
        return true;
      }
      light_queue.push_back(std::move(job));
    }
    light_cv.notify_one();
    return true;
  }

  bool dispatch_campaign(const std::shared_ptr<Connection>& conn, const Frame& frame,
                         std::uint64_t request_id, std::uint64_t start_us) {
    PendingCampaign pc;
    try {
      const CampaignJob job = decode_campaign_job(frame.payload);
      const fabsim::FabConfig config = simulator_config(job);
      check_defect_bound(config);
      pc.sim = simulator_for(config);
      pc.task = std::make_unique<fabsim::FabLotCampaign>(*pc.sim, job.n_wafers, job.seed);
      pc.max_chunks = job.max_chunks;
      pc.key = job_key(job);
    } catch (const std::exception& e) {
      Response r;
      r.request_id = request_id;
      r.status = ResponseStatus::kError;
      r.message = std::string("invalid campaign job: ") + e.what();
      send_response(conn, r, JobKind::kCampaign, start_us);
      return true;
    }
    // Admission happens here, synchronously in the reader: shed
    // decisions are a pure function of the request arrival order and of
    // which earlier campaigns have been answered.
    std::string shed;  ///< why the campaign is refused; empty when admitted
    bool queued = false;
    {
      std::lock_guard<std::mutex> lk(mu);
      // The tenant quota gates every submission path -- joining an
      // in-flight twin holds a response slot just like a fresh admit.
      const std::string& tenant = conn->tenant;
      const auto held = tenant_outstanding.find(tenant);
      const std::size_t tenant_held = held == tenant_outstanding.end() ? 0 : held->second;
      const bool twin = inflight.find(pc.key) != inflight.end();
      if (options.tenant_campaign_quota > 0 && tenant_held >= options.tenant_campaign_quota) {
        tenant_shed.fetch_add(1, std::memory_order_relaxed);
        if (auto* m = obs::metrics_table<ServeMetrics>()) m->count_tenant_shed(tenant);
        shed = "tenant quota: tenant \"" + tenant + "\" already has " +
               std::to_string(tenant_held) + " campaigns in flight (quota " +
               std::to_string(options.tenant_campaign_quota) + ")";
      } else if (!twin && options.campaign_policy == ShedPolicy::kRejectNewest &&
                 campaigns.size() >= options.campaign_capacity) {
        campaigns_shed.fetch_add(1, std::memory_order_relaxed);
        if (auto* m = obs::metrics_table<ServeMetrics>()) m->shed.add();
        shed = "shed: queue at capacity (" + std::to_string(options.campaign_capacity) +
               "); resubmit when the queue drains";
      } else {
        ++tenant_outstanding[tenant];
        if (!add_waiter_locked(pc.key, Waiter{conn, request_id, start_us, tenant})) {
          campaigns.push_back(std::move(pc));
          if (auto* m = obs::metrics_table<ServeMetrics>()) {
            m->queue_depth.set(static_cast<double>(campaigns.size()));
          }
          queued = true;
        }
      }
    }
    if (queued) runner_cv.notify_one();
    if (!shed.empty()) {
      Response r;
      r.request_id = request_id;
      r.status = ResponseStatus::kShed;
      r.message = std::move(shed);
      r.completeness = 0.0;
      send_response(conn, r, JobKind::kCampaign, start_us);
    }
    return true;
  }

  // ---- the waiter table ------------------------------------------------

  /// Under mu: registers `w` on `key`, joining the in-flight twin when
  /// there is one (counted in serve.coalesced).  Returns whether it
  /// joined; if not, `w` owns the computation and the caller queues it.
  bool add_waiter_locked(const cache::Digest128& key, Waiter w) {
    w.conn->outstanding.fetch_add(1, std::memory_order_acq_rel);
    std::vector<Waiter>& waiters = inflight[key];
    const bool joined = !waiters.empty();
    waiters.push_back(std::move(w));
    ++inflight_waiters;
    if (joined) {
      coalesced_count.fetch_add(1, std::memory_order_relaxed);
      ++coalesced_waiters;
    }
    if (auto* m = obs::metrics_table<ServeMetrics>()) {
      if (joined) m->coalesced.add();
      m->publish_waiters(inflight_waiters, coalesced_waiters);
    }
    return joined;
  }

  /// Answers every waiter on `key` with `r`: the owner first, then the
  /// twins that joined it, marked coalesced.  A campaign's waiters also
  /// release their tenants' counts.  Called with `lk` held on mu; the
  /// frames are written with it released, and it is held again on
  /// return.
  void answer(std::unique_lock<std::mutex>& lk, const cache::Digest128& key, Response r,
              JobKind kind) {
    const auto it = inflight.find(key);
    std::vector<Waiter> waiters = std::move(it->second);
    inflight.erase(it);
    inflight_waiters -= static_cast<std::int64_t>(waiters.size());
    coalesced_waiters -= static_cast<std::int64_t>(waiters.size()) - 1;
    if (kind == JobKind::kCampaign) {
      for (const Waiter& w : waiters) {
        const auto held = tenant_outstanding.find(w.tenant);
        if (held != tenant_outstanding.end() && --held->second == 0) {
          tenant_outstanding.erase(held);
        }
      }
    }
    if (auto* m = obs::metrics_table<ServeMetrics>()) {
      m->publish_waiters(inflight_waiters, coalesced_waiters);
      if (kind == JobKind::kCampaign) m->queue_depth.set(static_cast<double>(campaigns.size()));
    }
    lk.unlock();
    for (std::size_t i = 0; i < waiters.size(); ++i) {
      r.request_id = waiters[i].request_id;
      r.coalesced = i > 0;
      send_response(waiters[i].conn, r, kind, waiters[i].start_us);
      waiters[i].conn->outstanding.fetch_sub(1, std::memory_order_acq_rel);
    }
    lk.lock();
  }

  /// The simulator `config` describes.  Building one (almost all of it
  /// the kill-probability LUT) costs many times what serving a replayed
  /// lot does, so each configuration is built once per server and
  /// shared.  A miss builds outside mu; a configuration the library
  /// rejects throws here and is not cached.
  std::shared_ptr<const fabsim::FabSimulator> simulator_for(const fabsim::FabConfig& config) {
    const cache::Digest128 digest = config.digest();
    {
      std::lock_guard<std::mutex> lk(mu);
      const auto it = simulators.find(digest);
      if (it != simulators.end()) {
        it->second.last_use = ++simulator_clock;
        return it->second.sim;
      }
    }
    auto built = std::make_shared<const fabsim::FabSimulator>(config);
    simulators_built.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lk(mu);
    // A reader racing on the same configuration may have inserted first;
    // keep its simulator so the cache holds one per configuration.
    const auto it = simulators.try_emplace(digest, CachedSimulator{std::move(built), 0}).first;
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
      if (light_queue.empty()) return;  // stopping, and nothing left to run
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
      answer(lk, job.key, std::move(r), job.is_eq4 ? JobKind::kEq4 : JobKind::kRisk);
    }
  }

  // ---- campaign runner -------------------------------------------------

  void runner_loop() {
    std::unique_lock<std::mutex> lk(mu);
    while (true) {
      runner_cv.wait(lk, [&] { return campaigns_closed || !campaigns.empty(); });
      if (campaigns.empty()) return;  // closed, and every campaign answered
      // The front campaign stays queued while it runs, so campaigns.size()
      // counts it as outstanding.  Its task lives on the heap, out of
      // the deque's way.
      const fabsim::FabLotCampaign& task = *campaigns.front().task;
      const std::int64_t max_chunks = campaigns.front().max_chunks;
      const std::size_t outstanding = campaigns.size();
      lk.unlock();
      Response r = run_pending(task, max_chunks, outstanding);
      lk.lock();
      const cache::Digest128 key = campaigns.front().key;
      campaigns.pop_front();
      runner_cv.notify_all();  // a draining shutdown waits for the FIFO to empty
      answer(lk, key, std::move(r), JobKind::kCampaign);
    }
  }

  /// Runs one campaign under the drain stop and turns its result into
  /// the response its waiters get.  `outstanding` counts the campaigns
  /// queued or running at its pickup, itself included.
  Response run_pending(const fabsim::FabLotCampaign& task, std::int64_t max_chunks,
                       std::size_t outstanding) {
    Response r;
    r.completeness = 0.0;
    if (drain_stop.expired()) {
      r.status = ResponseStatus::kStopped;
      r.message = "stopped: the queue was stopped before this campaign started; resumable";
      campaigns_stopped.fetch_add(1, std::memory_order_relaxed);
      return r;
    }
    robust::CampaignOptions run;
    // The campaign's record is named by its identity (not max_chunks),
    // so a budget-limited run and its full resubmission share it.
    if (store != nullptr) run.artifact_dir = store->dir();
    run.max_chunks_this_run = max_chunks;
    run.pool = options.pool;
    run.cancel = drain_stop;
    if (options.campaign_policy == ShedPolicy::kDegradeBudgets &&
        outstanding > options.campaign_capacity) {
      // Oversubscription at pickup shrinks the chunk budget by capacity /
      // outstanding -- a pure function of the arrival/answer sequence, so
      // degradation is reproducible, and a campaign that ends up running
      // alone keeps its full budget.
      const std::int64_t share = std::max<std::int64_t>(
          1, exec::chunk_count(task.unit_count(), task.grain()) *
                 static_cast<std::int64_t>(options.campaign_capacity) /
                 static_cast<std::int64_t>(outstanding));
      run.max_chunks_this_run = max_chunks > 0 ? std::min(max_chunks, share) : share;
    }
    robust::CampaignResult result;
    try {
      result = robust::run_campaign(task, run);
    } catch (const std::exception& e) {  // e.g. a corrupt record; the message names it
      r.status = ResponseStatus::kError;
      r.message = std::string("campaign failed: ") + e.what();
      return r;
    }
    if (result.expired) {  // only the drain stop expires a served campaign
      r.status = ResponseStatus::kStopped;
      r.message = "stopped: the queue was stopped mid-run; checkpointed, resumable";
      campaigns_stopped.fetch_add(1, std::memory_order_relaxed);
    } else if (result.completeness() < 1.0 || result.interrupted) {
      r.status = ResponseStatus::kPartial;
    } else {
      campaigns_completed.fetch_add(1, std::memory_order_relaxed);
    }
    try {
      const fabsim::PartialLot lot = task.assemble(result);
      r.result = cache::encode(lot.lot);
      r.completeness = lot.completeness;
      r.frontier_chunks = lot.frontier_chunks;
    } catch (const std::exception& e) {
      r.status = ResponseStatus::kError;
      r.message = std::string("campaign assembly failed: ") + e.what();
    }
    r.artifact_hits = static_cast<std::uint64_t>(result.artifact_hits);
    return r;
  }

  // ---- lifecycle -------------------------------------------------------

  void add_connection(int read_fd, int write_fd) {
    auto conn = std::make_shared<Connection>();
    conn->stream = std::make_unique<FdStream>(read_fd, write_fd);
    conn->last_activity_ns.store(now_ns(), std::memory_order_relaxed);
    std::vector<std::shared_ptr<Connection>> evicted;
    {
      // Check + register + spawn under one lock hold: shutdown() must
      // never observe a registered connection without a joinable reader.
      std::lock_guard<std::mutex> lk(mu);
      if (shutting_down) {
        throw std::logic_error("serve: the server is draining; no new connections");
      }
      conn->conn_id = next_conn_id++;
      if (options.max_connections > 0) evicted = evict_to_make_room_locked();
      conn->reader = std::thread([this, conn] { reader_loop(conn); });
      connections.push_back(conn);
    }
    // Each victim gets its diagnostic with mu released (a victim that
    // does not read holds this thread for at most kWriteStallMs, and no
    // other), then its reader closes the fds.
    for (const auto& victim : evicted) {
      send_error_frame(victim, 0,
                       "NCWIRE01 connection evicted: server at its max-connections cap (" +
                           std::to_string(options.max_connections) +
                           ") and this connection was the oldest idle",
                       /*evicted=*/true);
      victim->stream->interrupt();
    }
  }

  /// Under mu: while the live-connection count is at the cap, mark the
  /// least-recently-active connection dead (ties broken by lowest
  /// conn_id -- both keys are deterministic, so the victim is too).
  /// Returns the victims, which add_connection then notifies.
  std::vector<std::shared_ptr<Connection>> evict_to_make_room_locked() {
    std::vector<std::shared_ptr<Connection>> evicted;
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
      if (live < options.max_connections || victim == nullptr) return evicted;
      connections_evicted.fetch_add(1, std::memory_order_relaxed);
      if (auto* m = obs::metrics_table<ServeMetrics>()) m->evicted.add();
      victim->dead.store(true, std::memory_order_release);
      evicted.push_back(std::move(victim));
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

    // 4. Campaigns: give the queued and running ones the drain budget,
    // then trip the drain stop -- the running campaign checkpoints at its
    // next chunk boundary and every queued one answers kStopped without
    // running.  The runner notifies runner_cv as it pops each campaign.
    {
      std::unique_lock<std::mutex> lk(mu);
      campaigns_closed = true;
      runner_cv.notify_all();
      const auto budget = std::chrono::duration<double, std::milli>(options.drain_budget_ms);
      if (options.drain_budget_ms > 0.0 &&
          !runner_cv.wait_for(lk, budget, [&] { return campaigns.empty(); })) {
        drain_stop.cancel();
      }
    }
    if (runner.joinable()) runner.join();

    // 5. Flush the artifact tier: enforce the byte cap now, while no
    // campaign reads or rewrites its NCCKPT01 record.
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
    report.connections_stalled = connections_stalled.load(std::memory_order_relaxed);
    report.tenant_shed = tenant_shed.load(std::memory_order_relaxed);
    report.simulators_built = simulators_built.load(std::memory_order_relaxed);
    report_ready = true;
    return report;
  }

  // ---- state -----------------------------------------------------------

  ServerOptions options;
  std::unique_ptr<robust::ArtifactStore> store;
  /// Tripped when the drain budget runs out; every campaign runs under it.
  const robust::CancelToken drain_stop = robust::CancelToken::manual();

  std::mutex mu;  ///< guards everything below
  std::vector<std::shared_ptr<Connection>> connections;
  std::deque<LightJob> light_queue;
  /// Admitted campaigns in arrival order; the front one stays until it
  /// is answered, so the size counts the outstanding ones (queued plus
  /// running).
  std::deque<PendingCampaign> campaigns;
  /// Waiters by job_key, light jobs and campaigns alike; [0] owns the
  /// computation.  Keys of different job kinds never collide: each
  /// names its entry point.
  std::map<cache::Digest128, std::vector<Waiter>> inflight;
  std::map<std::string, std::size_t> tenant_outstanding;  ///< live campaign waiters per tenant
  /// Built simulators by FabConfig::digest, at most
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
  std::condition_variable runner_cv;  ///< the runner's and a draining shutdown's
  std::vector<std::thread> workers;
  std::thread runner;
  std::vector<std::unique_ptr<Listener>> listeners;
  std::atomic<bool> shutting_down_flag{false};

  std::mutex shutdown_mu;  ///< serializes shutdown(); taken before mu
  bool report_ready = false;
  DrainReport report;

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
  std::atomic<std::uint64_t> connections_stalled{0};
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
