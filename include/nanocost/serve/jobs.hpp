// Job and response schemas of nanocost::serve.
//
// A job is the full input closure of one deterministic entry point,
// flattened into NCWIRE01 payload bytes through the cache codec
// primitives (cache/codec.hpp): every field explicit, little-endian,
// floats by IEEE bit pattern.  Decoding is strict -- truncation,
// corrupt lengths, and trailing garbage throw -- because a job that
// half-decodes must never half-execute.
//
// Three job types mirror the three cached entry-point families:
//   Eq4Job      -> core::sweep_eq4        (eq. (4) density sweep)
//   RiskJob     -> core::monte_carlo_cost (uncertainty propagation)
//   CampaignJob -> fabsim lot campaign    (resumable, artifact-backed)
//
// Each job derives the same canonical cache key (cache/key.hpp) the
// library uses, so the server can coalesce identical in-flight requests
// and a served result is addressed exactly like a locally computed one.
// The response carries the entry point's *encoded result bytes*
// unchanged -- the determinism contract "served == direct library call"
// is checked by memcmp on these bytes (tests/serve_test.cpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "nanocost/cache/hash.hpp"
#include "nanocost/core/risk.hpp"
#include "nanocost/fabsim/simulator.hpp"
#include "nanocost/serve/wire.hpp"

namespace nanocost::exec {
class ThreadPool;
}

namespace nanocost::serve {

/// The build version both handshake sides declare.  Major mismatches are
/// rejected; the same string rides in every StatsReport.
inline constexpr char kServeVersion[] = "1.0.0";

/// Client half of the NCWIRE01 version handshake (frame kHello).  When a
/// client sends one, it must be the FIRST frame on the connection; the
/// server checks the versions and either replies kHelloAck or rejects
/// with a named diagnostic and kills the connection.  Connections that
/// skip the hello still work (the frame checksum already proves protocol
/// agreement byte-for-byte) but run as the anonymous tenant "".
struct HelloRequest final {
  std::uint64_t request_id = 0;
  /// Wire protocol the client speaks; must equal kWireVersion exactly.
  std::uint32_t protocol_version = kWireVersion;
  /// Client build version ("major.minor.patch"); the major digit must
  /// match the server's kServeVersion.
  std::string build_version = kServeVersion;
  /// Tenant this connection submits for; "" = anonymous.  Quotas
  /// (ServerOptions::tenant_campaign_quota) key on this.
  std::string tenant;
  /// 0 on a fresh connect; N > 0 on the Nth reconnect of a retrying
  /// client -- the server counts those as serve.reconnects_total.
  std::uint32_t attempt = 0;
};

/// Server half of the handshake (frame kHelloAck).
struct HelloAck final {
  std::uint64_t request_id = 0;
  std::uint32_t protocol_version = kWireVersion;
  std::string build_version = kServeVersion;
};

/// core::sweep_eq4 over [lo, hi] with `steps` grid points.
struct Eq4Job final {
  std::uint64_t request_id = 0;
  core::Eq4Inputs inputs{};
  // The sweep must start strictly above the model's s_d0 design-cost
  // wall (100 transistors/designer-day by default).
  double lo = 2e2;
  double hi = 1e4;
  std::int32_t steps = 60;
};

/// core::monte_carlo_cost at one density.
struct RiskJob final {
  std::uint64_t request_id = 0;
  core::UncertainInputs inputs{};
  double s_d = 1000.0;
  std::int32_t samples = 4000;
  std::uint64_t seed = 1;
  double die_budget = 0.0;
};

/// A fabline lot campaign: the full FabSimulator configuration plus the
/// run shape, flattened to scalars (the simulator is reconstructed
/// server-side).  Defaults mirror examples/fabline_monte_carlo.cpp.
struct CampaignJob final {
  std::uint64_t request_id = 0;
  // geometry::WaferSpec
  double wafer_diameter_mm = 200.0;
  double wafer_edge_exclusion_mm = 3.0;
  double wafer_scribe_mm = 0.1;
  // geometry::DieSize
  double die_width_mm = 13.0;
  double die_height_mm = 13.0;
  // defect::DefectSizeDistribution
  double size_xmin_um = 0.125;
  double size_peak_um = 0.25;
  double size_xmax_um = 25.0;
  double size_q = 3.0;
  // defect::DefectFieldParams (+ radial profile)
  double defect_density_per_cm2 = 0.6;
  double cluster_alpha = 2.0;
  bool clustered = true;
  double radial_edge_boost = 0.0;
  double radial_sharpness = 2.0;
  // defect::WireArray (representative pattern)
  double wire_width_um = 0.25;
  double wire_spacing_um = 0.25;
  double wire_length_um = 100.0;
  std::int32_t wire_count = 50;
  // run shape
  std::int64_t n_wafers = 64;
  std::uint64_t seed = 42;
  /// Chunk budget for this submission (0 = run to completion) -- the
  /// client-visible spelling of CampaignOptions::max_chunks_this_run;
  /// tests use it to stop a campaign mid-flight deterministically.
  std::int64_t max_chunks = 0;
};

/// The most defects a served campaign may expect per wafer (defect
/// density x full wafer area).  Sampling time and the sampler's columns
/// (>= 24 B per defect) grow linearly with it, so one runaway density
/// could stall the campaign runner or exhaust its memory.  10^6 is
/// ~470x the densest lot in the benchmark (300 mm at 3/cm^2); the
/// server answers a job past it with kError at validation.
inline constexpr double kMaxMeanDefectsPerWafer = 1e6;

/// The longest tenant a handshake accepts.  A tenant may label the
/// counter serve.tenant_shed{tenant="<tenant>"} in every later scrape,
/// so the handshake also rejects any byte outside [A-Za-z0-9._-]; ""
/// stays anonymous.
inline constexpr std::size_t kMaxTenantBytes = 64;

/// How many distinct tenants one process gives a
/// serve.tenant_shed{tenant="<tenant>"} counter: the first this many its
/// servers shed.  Later tenants count only in serve.tenant_shed_total, so
/// the registry and every scrape stay bounded however many tenants a
/// daemon sees.
inline constexpr std::size_t kMaxShedTenantCounters = 16;

/// The simulator configuration a CampaignJob describes.  Throws
/// std::invalid_argument / std::domain_error on values the library
/// constructors reject -- the server maps that to an error response,
/// never a crash.
[[nodiscard]] fabsim::FabConfig simulator_config(const CampaignJob& job);

/// FabSimulator(simulator_config(job)); also throws when the die does
/// not fit on the wafer.
[[nodiscard]] fabsim::FabSimulator make_simulator(const CampaignJob& job);

/// Final status of one served request.
enum class ResponseStatus : std::uint8_t {
  kOk = 0,       ///< complete result; bytes == direct library call
  kPartial = 1,  ///< deadline/budget truncated; result covers the frontier
  kShed = 2,     ///< rejected at admission (queue at capacity)
  kExpired = 3,  ///< a budget tripped; this server answers kStopped or kPartial instead
  kStopped = 4,  ///< the server stopped (drain) before/while running it
  kError = 5,    ///< the job itself failed; message says why
};

[[nodiscard]] const char* response_status_name(ResponseStatus s) noexcept;

/// One response frame's payload.
struct Response final {
  std::uint64_t request_id = 0;
  ResponseStatus status = ResponseStatus::kOk;
  std::string message;  ///< shed/expired/error reason, empty on kOk
  /// The entry point's encoded result bytes (cache/codec.hpp format):
  /// encode(vector<SweepPoint>) for eq4, encode(RiskResult) for risk,
  /// encode(LotResult) for campaigns.  Empty for kShed/kError.
  std::vector<std::uint8_t> result;
  double completeness = 1.0;          ///< fraction of units completed
  std::int64_t frontier_chunks = 0;   ///< completed leading chunks
  std::uint64_t artifact_hits = 0;    ///< chunks restored from the artifact
                                      ///< tier instead of recomputed
  bool coalesced = false;             ///< piggybacked on an identical in-flight job
};

/// Payload of one kStatsResponse frame: the server's identity and
/// uptime, plus its full metrics registry as an NCSTAT01 blob
/// (obs/stats.hpp decodes it; obs/prometheus.hpp renders it).
struct StatsReport final {
  std::uint64_t request_id = 0;
  std::string server_version;           ///< nanocost release, e.g. "1.0.0"
  std::string simd_level;               ///< exec::simd_level_name of the live level
  std::uint32_t hardware_concurrency = 0;
  std::uint64_t pid = 0;
  std::uint64_t uptime_ms = 0;          ///< since the Server was constructed
  std::vector<std::uint8_t> stats;      ///< NCSTAT01 (obs::decode_stats)
};

// ---- Payload codecs -----------------------------------------------------
// encode_payload produces the NCWIRE01 payload for the matching frame
// type; each decode_* throws std::runtime_error on truncation, corrupt
// lengths, or trailing garbage.

[[nodiscard]] std::vector<std::uint8_t> encode_payload(const Eq4Job& job);
[[nodiscard]] std::vector<std::uint8_t> encode_payload(const RiskJob& job);
[[nodiscard]] std::vector<std::uint8_t> encode_payload(const CampaignJob& job);
[[nodiscard]] std::vector<std::uint8_t> encode_payload(const Response& response);
[[nodiscard]] std::vector<std::uint8_t> encode_payload(const StatsReport& report);
[[nodiscard]] std::vector<std::uint8_t> encode_payload(const HelloRequest& hello);
[[nodiscard]] std::vector<std::uint8_t> encode_payload(const HelloAck& ack);

[[nodiscard]] Eq4Job decode_eq4_job(const std::vector<std::uint8_t>& payload);
[[nodiscard]] RiskJob decode_risk_job(const std::vector<std::uint8_t>& payload);
[[nodiscard]] CampaignJob decode_campaign_job(const std::vector<std::uint8_t>& payload);
[[nodiscard]] Response decode_response(const std::vector<std::uint8_t>& payload);
[[nodiscard]] StatsReport decode_stats_report(const std::vector<std::uint8_t>& payload);
[[nodiscard]] HelloRequest decode_hello(const std::vector<std::uint8_t>& payload);
[[nodiscard]] HelloAck decode_hello_ack(const std::vector<std::uint8_t>& payload);

/// Reads just the leading request id of any request payload (every
/// request type starts with it), so even a job that fails to decode
/// fully can be answered by id.  Returns 0 when the payload is shorter
/// than 8 bytes.
[[nodiscard]] std::uint64_t peek_request_id(const std::vector<std::uint8_t>& payload) noexcept;

// ---- Coalescing keys ----------------------------------------------------
// The canonical cache key of the computation a job names -- identical
// jobs (ignoring request_id) map to the same digest, which is exactly
// the key the cache/artifact tiers use for the same computation.

[[nodiscard]] cache::Digest128 job_key(const Eq4Job& job);
[[nodiscard]] cache::Digest128 job_key(const RiskJob& job);
[[nodiscard]] cache::Digest128 job_key(const CampaignJob& job);

// ---- Execution ----------------------------------------------------------
// Light jobs run synchronously on a worker thread; campaigns go through
// the server's admission queue instead (serve/server.cpp).

/// Runs an eq4 sweep through the memoized entry point.  Never partial
/// (the sweep is cheap and atomic).
[[nodiscard]] Response execute(const Eq4Job& job, exec::ThreadPool* pool);

/// Runs the risk Monte-Carlo under `budget_ms` (0 = no deadline) via
/// the deadline-aware partial entry point: a complete run returns
/// monte_carlo_cost's bytes bitwise; a truncated one returns kPartial
/// with the summary over the completed chunk frontier.
[[nodiscard]] Response execute(const RiskJob& job, double budget_ms, exec::ThreadPool* pool);

}  // namespace nanocost::serve
