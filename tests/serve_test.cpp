// Tests for nanocost::serve (the crash-tolerant job server, PR 8).
//
// The acceptance contract, spelled out:
//  (a) served response bytes are memcmp-identical to the direct library
//      call for eq4/risk/campaign jobs at 1, 2, and hardware worker
//      threads -- including after a retry under injected faults;
//  (b) every NCWIRE01 corruption-matrix cell (tests/corruption_matrix.hpp)
//      is rejected with a diagnostic naming the frame, and it is the
//      *connection* that dies, never the server;
//  (c) kill the server mid-campaign, restart against the same artifact
//      tier, resubmit: zero completed chunks recompute and the bytes
//      match an undisturbed run bitwise;
//  (d) overload past capacity sheds (kRejectNewest) or degrades
//      (kDegradeBudgets) deterministically, with a per-request outcome
//      for every submission.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <limits>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "corruption_matrix.hpp"
#include "golden_hex.hpp"
#include "nanocost/cache/codec.hpp"
#include "nanocost/cache/key.hpp"
#include "nanocost/core/optimizer.hpp"
#include "nanocost/core/risk.hpp"
#include "nanocost/exec/rng.hpp"
#include "nanocost/exec/thread_pool.hpp"
#include "nanocost/obs/metrics.hpp"
#include "nanocost/obs/prometheus.hpp"
#include "nanocost/obs/stats.hpp"
#include "nanocost/robust/backoff.hpp"
#include "nanocost/robust/fault_injection.hpp"
#include "nanocost/serve/client.hpp"
#include "nanocost/serve/jobs.hpp"
#include "nanocost/serve/resilient.hpp"
#include "nanocost/serve/server.hpp"
#include "nanocost/serve/wire.hpp"
#include "temp_dir.hpp"

namespace nanocost::serve {
namespace {

// Installing fault plans mutates process state; every test restores the
// disabled default on exit.
struct PlanGuard {
  ~PlanGuard() { robust::clear_fault_plan(); }
};

using nanocost::testing::TempDir;

/// Connects one Client to `server` over a socketpair.
Client make_client(Server& server) {
  int sv[2] = {-1, -1};
  EXPECT_EQ(0, ::socketpair(AF_UNIX, SOCK_STREAM, 0, sv));
  server.add_connection(sv[0], sv[0]);
  return Client(sv[1], sv[1]);
}

/// A raw peer: our end of a socketpair whose other end the server owns.
/// Used where the test must speak bytes the Client cannot produce.
class RawPeer final {
 public:
  explicit RawPeer(Server& server) {
    int sv[2] = {-1, -1};
    EXPECT_EQ(0, ::socketpair(AF_UNIX, SOCK_STREAM, 0, sv));
    server.add_connection(sv[0], sv[0]);
    fd_ = sv[1];
  }
  ~RawPeer() {
    if (fd_ >= 0) ::close(fd_);
  }

  void send(const std::vector<std::uint8_t>& bytes) const {
    std::size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t w = ::write(fd_, bytes.data() + sent, bytes.size() - sent);
      ASSERT_GT(w, 0);
      sent += static_cast<std::size_t>(w);
    }
  }

  /// No more requests from us; the server reader sees clean EOF once it
  /// has consumed everything sent.
  void half_close() const { ::shutdown(fd_, SHUT_WR); }

  /// Reads until EOF or `timeout_ms` of silence (the server keeps a
  /// cleanly half-closed connection open for in-flight responses, so a
  /// surviving connection never produces EOF on its own).
  [[nodiscard]] std::vector<std::uint8_t> slurp(int timeout_ms = 2000) const {
    timeval tv{};
    tv.tv_sec = timeout_ms / 1000;
    tv.tv_usec = (timeout_ms % 1000) * 1000;
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    std::vector<std::uint8_t> bytes;
    std::uint8_t buf[4096];
    while (true) {
      const ssize_t r = ::read(fd_, buf, sizeof(buf));
      if (r <= 0) break;  // EOF, timeout, or error: stop
      bytes.insert(bytes.end(), buf, buf + r);
    }
    return bytes;
  }

 private:
  int fd_ = -1;
};

struct ErrorFrame {
  std::uint64_t request_id = 0;
  std::string message;
};

ErrorFrame decode_error_frame(const std::vector<std::uint8_t>& payload) {
  cache::ByteReader r(payload);
  ErrorFrame e;
  e.request_id = r.u64();
  e.message = r.str();
  r.expect_end();
  return e;
}

// Small jobs used throughout (fast, but large enough to be real work).
Eq4Job small_eq4() {
  Eq4Job job;
  job.steps = 16;
  return job;
}

RiskJob small_risk(std::int32_t samples = 256) {
  RiskJob job;
  job.samples = samples;
  return job;
}

CampaignJob small_campaign(std::uint64_t seed, std::int64_t wafers = 8) {
  CampaignJob job;
  job.n_wafers = wafers;
  job.seed = seed;
  return job;
}

// The direct library calls the served bytes must match bitwise.
std::vector<std::uint8_t> direct_eq4_bytes(const Eq4Job& job) {
  return cache::encode(core::sweep_eq4(job.inputs, job.lo, job.hi, job.steps));
}

std::vector<std::uint8_t> direct_risk_bytes(const RiskJob& job) {
  return cache::encode(
      core::monte_carlo_cost(job.inputs, job.s_d, job.samples, job.seed, job.die_budget));
}

std::vector<std::uint8_t> direct_campaign_bytes(const CampaignJob& job) {
  return cache::encode(make_simulator(job).run(job.n_wafers, job.seed));
}

// ---------------------------------------------------------------------------
// NCWIRE01 framing.

TEST(WireFrame, RoundTripsEveryType) {
  const std::vector<std::uint8_t> payload = encode_payload(small_risk());
  for (const FrameType type :
       {FrameType::kEq4Request, FrameType::kRiskRequest, FrameType::kCampaignRequest,
        FrameType::kPing, FrameType::kStatsRequest, FrameType::kTraceStart,
        FrameType::kTraceStop, FrameType::kHello, FrameType::kResponse, FrameType::kPong,
        FrameType::kErrorFrame, FrameType::kStatsResponse, FrameType::kHelloAck}) {
    MemStream stream(encode_frame(type, payload));
    const std::optional<Frame> frame = read_frame(stream);
    ASSERT_TRUE(frame.has_value()) << frame_type_name(type);
    EXPECT_EQ(frame->type, type);
    EXPECT_EQ(frame->payload, payload);
  }
  // Empty payloads are legal frames too.
  MemStream empty(encode_frame(FrameType::kPong, {}));
  const std::optional<Frame> pong = read_frame(empty);
  ASSERT_TRUE(pong.has_value());
  EXPECT_TRUE(pong->payload.empty());
}

TEST(WireFrame, CleanEofOnlyAtAFrameBoundary) {
  MemStream empty(std::vector<std::uint8_t>{});
  EXPECT_FALSE(read_frame(empty).has_value());

  // One whole frame, then EOF: frame, then clean end.
  MemStream one(encode_frame(FrameType::kPing, {1, 2, 3}));
  EXPECT_TRUE(read_frame(one).has_value());
  EXPECT_FALSE(read_frame(one).has_value());
}

TEST(WireFrame, CorruptionMatrixRejectsEveryCell) {
  // Full-stride coverage: literally every truncation boundary and every
  // byte position flipped (the frame is small enough to afford it).
  const std::vector<std::uint8_t> good =
      encode_frame(FrameType::kRiskRequest, encode_payload(small_risk()));
  nanocost::testing::CorruptionMatrixOptions opts;
  opts.truncate_stride = 1;
  opts.flip_stride = 1;
  opts.u64_length_offsets = {16};  // magic (8) + version (4) + type (4)
  nanocost::testing::run_corruption_matrix(
      good,
      [](const std::vector<std::uint8_t>& bytes) {
        nanocost::testing::CorruptionVerdict v;
        MemStream stream(bytes);
        try {
          // Parse to exhaustion so trailing garbage after a valid frame
          // is still observed.
          while (read_frame(stream).has_value()) {
          }
        } catch (const WireError& e) {
          v.rejected = true;
          v.diagnostic = e.what();
          EXPECT_NE(v.diagnostic.find("NCWIRE01"), std::string::npos)
              << "diagnostic must name the protocol: " << v.diagnostic;
        }
        return v;
      },
      opts);
}

TEST(WireFrame, GoldenVectorPinsTheFormat) {
  // The risk-request frame the corruption matrix mutates, pinned byte
  // for byte in both directions.  If this test fails, the wire format
  // changed: that requires a kWireVersion bump, not a golden update.
  const std::string kGoldenHex =
      "4e435749524530310100000002000000a8000000000000000000000000000000"
      "000000000000d03fcdccccccccccec3f000000000000204000000000d0126341"
      "00000000006ae840c3f5285c8fa2734000000000804f22410000000000408f40"
      "000000000000f03f333333333333f33f0000000000005940000000000000f03f"
      "7b14ae47e17ab43f333333333333c33f9a9999999999d93f000000000000e03f"
      "0000000000408f40000100000000000001000000000000000000000000000000"
      "8075b46119cfb75f";
  const std::vector<std::uint8_t> payload = encode_payload(small_risk());
  EXPECT_EQ(nanocost::testing::to_hex(encode_frame(FrameType::kRiskRequest, payload)),
            kGoldenHex);

  MemStream stream(nanocost::testing::from_hex(kGoldenHex));
  const std::optional<Frame> frame = read_frame(stream);
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->type, FrameType::kRiskRequest);
  EXPECT_EQ(frame->payload, payload);
  EXPECT_FALSE(read_frame(stream).has_value());
}

TEST(WireFrame, DiagnosticsNameTheFrameAndOffense) {
  const std::vector<std::uint8_t> payload = encode_payload(small_eq4());
  const std::vector<std::uint8_t> good = encode_frame(FrameType::kEq4Request, payload);

  const auto diagnostic_of = [](std::vector<std::uint8_t> bytes) {
    MemStream stream(std::move(bytes));
    try {
      while (read_frame(stream).has_value()) {
      }
    } catch (const WireError& e) {
      return std::string(e.what());
    }
    return std::string();
  };

  std::vector<std::uint8_t> bad_magic = good;
  bad_magic[0] = 'X';
  EXPECT_NE(diagnostic_of(bad_magic).find("bad magic"), std::string::npos);

  std::vector<std::uint8_t> bad_version = good;
  bad_version[8] = 9;
  EXPECT_NE(diagnostic_of(bad_version).find("unsupported version 9"), std::string::npos);

  // An unknown type tag is rejected by name before the checksum runs.
  const std::vector<std::uint8_t> unknown =
      encode_frame(static_cast<FrameType>(99), payload);
  EXPECT_NE(diagnostic_of(unknown).find("unknown type tag 99"), std::string::npos);

  std::vector<std::uint8_t> oversized = good;
  ASSERT_GE(oversized.size(), 24u);
  for (int i = 0; i < 8; ++i) oversized[16 + i] = 0;
  oversized[23] = 0x40;  // 2^62 bytes
  const std::string over_diag = diagnostic_of(oversized);
  EXPECT_NE(over_diag.find("eq4-request"), std::string::npos) << over_diag;
  EXPECT_NE(over_diag.find("oversized payload"), std::string::npos) << over_diag;

  std::vector<std::uint8_t> cut(good.begin(), good.begin() + 30);
  const std::string cut_diag = diagnostic_of(cut);
  EXPECT_NE(cut_diag.find("truncated"), std::string::npos) << cut_diag;

  std::vector<std::uint8_t> flipped = good;
  flipped[40] ^= 0x01;  // payload byte: only the checksum can notice
  const std::string flip_diag = diagnostic_of(flipped);
  EXPECT_NE(flip_diag.find("eq4-request"), std::string::npos) << flip_diag;
  EXPECT_NE(flip_diag.find("checksum"), std::string::npos) << flip_diag;
}

// ---------------------------------------------------------------------------
// Job payload codecs.

TEST(JobCodecs, RoundTripBitwise) {
  Eq4Job eq4 = small_eq4();
  eq4.request_id = 42;
  const Eq4Job eq4_back = decode_eq4_job(encode_payload(eq4));
  EXPECT_EQ(eq4_back.request_id, 42u);
  EXPECT_EQ(eq4_back.steps, eq4.steps);
  EXPECT_EQ(job_key(eq4_back), job_key(eq4));

  RiskJob risk = small_risk();
  risk.request_id = 7;
  risk.seed = 99;
  const RiskJob risk_back = decode_risk_job(encode_payload(risk));
  EXPECT_EQ(risk_back.seed, 99u);
  EXPECT_EQ(job_key(risk_back), job_key(risk));

  CampaignJob campaign = small_campaign(5);
  campaign.request_id = 9;
  campaign.max_chunks = 3;
  const CampaignJob campaign_back = decode_campaign_job(encode_payload(campaign));
  EXPECT_EQ(campaign_back.seed, 5u);
  EXPECT_EQ(campaign_back.max_chunks, 3);
  EXPECT_EQ(job_key(campaign_back), job_key(campaign));

  Response r;
  r.request_id = 11;
  r.status = ResponseStatus::kPartial;
  r.message = "partial";
  r.result = {1, 2, 3};
  r.completeness = 0.5;
  r.frontier_chunks = 4;
  r.artifact_hits = 2;
  r.coalesced = true;
  const Response r_back = decode_response(encode_payload(r));
  EXPECT_EQ(r_back.request_id, 11u);
  EXPECT_EQ(r_back.status, ResponseStatus::kPartial);
  EXPECT_EQ(r_back.message, "partial");
  EXPECT_EQ(r_back.result, r.result);
  EXPECT_EQ(r_back.frontier_chunks, 4);
  EXPECT_TRUE(r_back.coalesced);
}

TEST(JobCodecs, DecodingIsStrict) {
  const std::vector<std::uint8_t> good = encode_payload(small_risk());

  std::vector<std::uint8_t> padded = good;
  padded.push_back(0);
  EXPECT_THROW((void)decode_risk_job(padded), std::exception);

  const std::vector<std::uint8_t> cut(good.begin(), good.end() - 4);
  EXPECT_THROW((void)decode_risk_job(cut), std::exception);

  // A semantically impossible field (yield = 1.5, offset 16: request id
  // + lambda) passes no strong-type re-validation.
  std::vector<std::uint8_t> invalid = encode_payload(small_eq4());
  const double bad_yield = 1.5;
  std::memcpy(invalid.data() + 16, &bad_yield, sizeof(bad_yield));
  EXPECT_THROW((void)decode_eq4_job(invalid), std::exception);

  std::vector<std::uint8_t> bad_status = encode_payload(Response{});
  bad_status[8] = 200;  // status byte past kError
  EXPECT_THROW((void)decode_response(bad_status), std::exception);

  EXPECT_EQ(peek_request_id(encode_payload(Eq4Job{.request_id = 77})), 77u);
  EXPECT_EQ(peek_request_id({1, 2, 3}), 0u);
}

/// The first byte at which two encodings differ: where the field sits
/// that the two encoded values were built to differ in.
std::size_t first_difference(const std::vector<std::uint8_t>& a,
                             const std::vector<std::uint8_t>& b) {
  std::size_t at = 0;
  while (at < a.size() && at < b.size() && a[at] == b[at]) ++at;
  return at;
}

/// `payload` with the 8 bytes at `at` overwritten by `v`, little-endian.
std::vector<std::uint8_t> with_u64_at(std::vector<std::uint8_t> payload, std::size_t at,
                                      std::uint64_t v) {
  for (std::size_t i = 0; i < 8; ++i) {
    payload.at(at + i) = static_cast<std::uint8_t>(v >> (8 * i));
  }
  return payload;
}

/// Runs `decode` and returns the DecodeError's message ("" when it
/// decoded, which fails the test).
template <typename Decode>
std::string decode_error_of(Decode decode) {
  try {
    (void)decode();
  } catch (const cache::DecodeError& e) {
    return e.what();
  }
  ADD_FAILURE() << "decoded without a DecodeError";
  return "";
}

TEST(JobCodecs, FieldsTheirStructCannotHoldAreRefused) {
  // 2^32 + 24 would truncate to 24; 2^31 and -2^31 - 1 to the wrong sign.
  const std::uint64_t out_of_range[] = {(1ULL << 32) + 24, 1ULL << 31,
                                        static_cast<std::uint64_t>(-(1LL << 31) - 1)};
  const char* const shown[] = {"4294967320", "2147483648", "-2147483649"};

  Eq4Job eq4 = small_eq4();
  const std::vector<std::uint8_t> eq4_bytes = encode_payload(eq4);
  ++eq4.steps;
  const std::size_t steps_at = first_difference(eq4_bytes, encode_payload(eq4));

  RiskJob risk = small_risk();
  const std::vector<std::uint8_t> risk_bytes = encode_payload(risk);
  ++risk.samples;
  const std::size_t samples_at = first_difference(risk_bytes, encode_payload(risk));

  CampaignJob campaign = small_campaign(5);
  const std::vector<std::uint8_t> campaign_bytes = encode_payload(campaign);
  ++campaign.wire_count;
  const std::size_t wires_at = first_difference(campaign_bytes, encode_payload(campaign));

  for (int k = 0; k < 3; ++k) {
    SCOPED_TRACE(shown[k]);
    const std::string steps = decode_error_of(
        [&] { return decode_eq4_job(with_u64_at(eq4_bytes, steps_at, out_of_range[k])); });
    EXPECT_NE(steps.find(std::string("eq4 steps ") + shown[k]), std::string::npos) << steps;
    const std::string samples = decode_error_of(
        [&] { return decode_risk_job(with_u64_at(risk_bytes, samples_at, out_of_range[k])); });
    EXPECT_NE(samples.find(std::string("risk samples ") + shown[k]), std::string::npos)
        << samples;
    const std::string wires = decode_error_of([&] {
      return decode_campaign_job(with_u64_at(campaign_bytes, wires_at, out_of_range[k]));
    });
    EXPECT_NE(wires.find(std::string("campaign wire count ") + shown[k]), std::string::npos)
        << wires;
  }

  // A flag byte is 0 or 1; 2 would decode as true and re-encode as 1.
  campaign = small_campaign(5);
  campaign.clustered = false;
  const std::vector<std::uint8_t> unclustered = encode_payload(campaign);
  campaign.clustered = true;
  const std::size_t clustered_at = first_difference(unclustered, encode_payload(campaign));
  Response response;
  response.coalesced = false;
  const std::vector<std::uint8_t> alone = encode_payload(response);
  response.coalesced = true;
  const std::size_t coalesced_at = first_difference(alone, encode_payload(response));
  for (const std::uint8_t bad : {std::uint8_t{2}, std::uint8_t{255}}) {
    std::vector<std::uint8_t> c = unclustered;
    c.at(clustered_at) = bad;
    const std::string clustered = decode_error_of([&] { return decode_campaign_job(c); });
    EXPECT_NE(clustered.find("campaign clustered flag " + std::to_string(bad)),
              std::string::npos)
        << clustered;
    std::vector<std::uint8_t> r = alone;
    r.at(coalesced_at) = bad;
    const std::string coalesced = decode_error_of([&] { return decode_response(r); });
    EXPECT_NE(coalesced.find("response coalesced flag " + std::to_string(bad)),
              std::string::npos)
        << coalesced;
  }
}

TEST(JobCodecs, BoundaryValuesRoundTripToTheirOwnBytes) {
  for (const std::int32_t v : {std::numeric_limits<std::int32_t>::min(), -1, 0,
                               std::numeric_limits<std::int32_t>::max()}) {
    Eq4Job eq4 = small_eq4();
    eq4.steps = v;
    const std::vector<std::uint8_t> eq4_bytes = encode_payload(eq4);
    EXPECT_EQ(encode_payload(decode_eq4_job(eq4_bytes)), eq4_bytes);
    RiskJob risk = small_risk();
    risk.samples = v;
    const std::vector<std::uint8_t> risk_bytes = encode_payload(risk);
    EXPECT_EQ(encode_payload(decode_risk_job(risk_bytes)), risk_bytes);
    CampaignJob campaign = small_campaign(5);
    campaign.wire_count = v;
    for (const bool clustered : {false, true}) {
      campaign.clustered = clustered;
      const std::vector<std::uint8_t> campaign_bytes = encode_payload(campaign);
      EXPECT_EQ(encode_payload(decode_campaign_job(campaign_bytes)), campaign_bytes);
    }
  }
  for (const bool coalesced : {false, true}) {
    Response response;
    response.coalesced = coalesced;
    const std::vector<std::uint8_t> bytes = encode_payload(response);
    EXPECT_EQ(encode_payload(decode_response(bytes)), bytes);
  }
}

/// One payload codec under the mutation sweep: a valid payload and its
/// decode-then-encode, which throws wherever the decoder refuses.
struct SweptCodec {
  const char* name;
  std::vector<std::uint8_t> valid;
  std::vector<std::uint8_t> (*reencode)(const std::vector<std::uint8_t>&);
};

TEST(JobCodecs, MutatedPayloadsThrowOrReencodeToTheirOwnBytes) {
  // Valid payloads of every payload codec (the seven in serve/jobs.hpp,
  // the four in cache/codec.hpp), with their free fields drawn from a
  // seeded stream.
  exec::SplitMix64 rng(33);
  Eq4Job eq4 = small_eq4();
  eq4.request_id = rng.next();
  RiskJob risk = small_risk();
  risk.request_id = rng.next();
  risk.seed = rng.next();
  CampaignJob campaign = small_campaign(rng.next());
  campaign.request_id = rng.next();
  campaign.max_chunks = static_cast<std::int64_t>(rng.next() >> 40);
  Response response;
  response.request_id = rng.next();
  response.status = ResponseStatus::kPartial;
  response.message = "partial";
  response.result = {1, 2, 3};
  response.completeness = exec::uniform_unit(rng);
  response.frontier_chunks = static_cast<std::int64_t>(rng.next() >> 40);
  response.artifact_hits = rng.next() >> 40;
  StatsReport stats;
  stats.request_id = rng.next();
  stats.server_version = "1.0.0";
  stats.simd_level = "avx2";
  stats.hardware_concurrency = 4;
  stats.pid = rng.next() >> 40;
  stats.uptime_ms = rng.next() >> 20;
  stats.stats = {9, 8, 7, 6};
  HelloRequest hello;
  hello.request_id = rng.next();
  hello.tenant = "acme";
  hello.attempt = 2;
  HelloAck ack;
  ack.request_id = rng.next();
  core::RiskResult risk_result{exec::uniform_unit(rng), exec::uniform_unit(rng),
                               exec::uniform_unit(rng), exec::uniform_unit(rng),
                               exec::uniform_unit(rng), exec::uniform_unit(rng)};
  core::RobustOptimum optimum;
  optimum.s_d = 1000.0 * exec::uniform_unit(rng);
  optimum.quantile_cost = exec::uniform_unit(rng);
  const std::vector<core::SweepPoint> sweep =
      core::sweep_eq4(eq4.inputs, eq4.lo, eq4.hi, 2);
  fabsim::LotResult lot;
  for (int w = 0; w < 2; ++w) {
    const auto draw = [&] { return static_cast<std::int64_t>(rng.next() >> 48); };
    lot.wafers.push_back(fabsim::WaferResult{draw(), draw(), draw(), draw()});
  }
  lot.total_dies = static_cast<std::int64_t>(rng.next() >> 40);
  lot.good_dies = static_cast<std::int64_t>(rng.next() >> 40);
  lot.fault_histogram = {3, 2, 1};

  const SweptCodec codecs[] = {
      {"Eq4Job", encode_payload(eq4),
       [](const auto& b) { return encode_payload(decode_eq4_job(b)); }},
      {"RiskJob", encode_payload(risk),
       [](const auto& b) { return encode_payload(decode_risk_job(b)); }},
      {"CampaignJob", encode_payload(campaign),
       [](const auto& b) { return encode_payload(decode_campaign_job(b)); }},
      {"Response", encode_payload(response),
       [](const auto& b) { return encode_payload(decode_response(b)); }},
      {"StatsReport", encode_payload(stats),
       [](const auto& b) { return encode_payload(decode_stats_report(b)); }},
      {"HelloRequest", encode_payload(hello),
       [](const auto& b) { return encode_payload(decode_hello(b)); }},
      {"HelloAck", encode_payload(ack),
       [](const auto& b) { return encode_payload(decode_hello_ack(b)); }},
      {"RiskResult", cache::encode(risk_result),
       [](const auto& b) { return cache::encode(cache::decode_risk_result(b)); }},
      {"RobustOptimum", cache::encode(optimum),
       [](const auto& b) { return cache::encode(cache::decode_robust_optimum(b)); }},
      {"SweepPoints", cache::encode(sweep),
       [](const auto& b) { return cache::encode(cache::decode_sweep_points(b)); }},
      {"LotResult", cache::encode(lot),
       [](const auto& b) { return cache::encode(cache::decode_lot_result(b)); }},
  };

  // Every 8-byte window gets each boundary value, every byte each
  // value: 0, -1, 2^31 - 1, 2^31, 2^32 + 24, 2^63, NaN, +inf, -inf.
  const std::uint64_t boundary[] = {0,
                                    ~0ULL,
                                    (1ULL << 31) - 1,
                                    1ULL << 31,
                                    (1ULL << 32) + 24,
                                    1ULL << 63,
                                    0x7FF8000000000000ULL,
                                    0x7FF0000000000000ULL,
                                    0xFFF0000000000000ULL};
  for (const SweptCodec& codec : codecs) {
    SCOPED_TRACE(codec.name);
    ASSERT_EQ(codec.reencode(codec.valid), codec.valid);
    // A mutated payload must be refused, or decode to a value whose
    // encoding is exactly its bytes: anything else decoded a value the
    // sender did not send.  A failure names the bytes where the
    // re-encoding first differs, which is the field that read wrongly.
    std::size_t accepted_but_changed = 0;
    std::set<std::size_t> differs_at;
    const auto check = [&](const std::vector<std::uint8_t>& mutated) {
      std::vector<std::uint8_t> back;
      try {
        back = codec.reencode(mutated);
      } catch (const std::exception&) {
        return;
      }
      if (back != mutated) {
        ++accepted_but_changed;
        differs_at.insert(first_difference(back, mutated));
      }
    };
    for (std::size_t at = 0; at + 8 <= codec.valid.size(); ++at) {
      for (const std::uint64_t v : boundary) check(with_u64_at(codec.valid, at, v));
    }
    for (std::size_t at = 0; at < codec.valid.size(); ++at) {
      std::vector<std::uint8_t> mutated = codec.valid;
      for (int v = 0; v < 256; ++v) {
        mutated[at] = static_cast<std::uint8_t>(v);
        check(mutated);
      }
    }
    std::string bytes;
    for (const std::size_t at : differs_at) {
      bytes += ' ';
      bytes += std::to_string(at);
    }
    EXPECT_EQ(accepted_but_changed, 0u)
        << "mutations decoded, but re-encode differently from byte(s)" << bytes << " of "
        << codec.valid.size();
  }
}

TEST(JobCodecs, OutOfRangeEq4JobIsAnsweredErrorOnALiveConnection) {
  // A well-formed frame (its checksum passes) whose eq4 job carries
  // steps 2^32 + 24: the server must refuse it, not run steps 24.
  Eq4Job eq4 = small_eq4();
  eq4.request_id = 31;
  const std::vector<std::uint8_t> good = encode_payload(eq4);
  ++eq4.steps;
  const std::size_t steps_at = first_difference(good, encode_payload(eq4));

  Server server(ServerOptions{});
  RawPeer peer(server);
  peer.send(encode_frame(FrameType::kEq4Request, with_u64_at(good, steps_at, (1ULL << 32) + 24)));
  cache::ByteWriter w;
  w.u64(99);
  peer.send(encode_frame(FrameType::kPing, w.take()));

  bool saw_error_response = false;
  bool saw_pong = false;
  MemStream parser(peer.slurp());
  while (true) {
    const std::optional<Frame> frame = read_frame(parser);
    if (!frame) break;
    if (frame->type == FrameType::kResponse) {
      const Response r = decode_response(frame->payload);
      EXPECT_EQ(r.request_id, 31u);
      EXPECT_EQ(r.status, ResponseStatus::kError);
      EXPECT_NE(r.message.find("eq4 steps 4294967320"), std::string::npos) << r.message;
      saw_error_response = true;
    }
    if (frame->type == FrameType::kPong) saw_pong = true;
  }
  EXPECT_TRUE(saw_error_response);
  EXPECT_TRUE(saw_pong);
}

TEST(JobKeys, CoalesceOnContentNotRequestId) {
  Eq4Job a = small_eq4();
  Eq4Job b = small_eq4();
  a.request_id = 1;
  b.request_id = 2;
  EXPECT_EQ(job_key(a), job_key(b));
  b.steps += 1;
  EXPECT_NE(job_key(a), job_key(b));

  CampaignJob c1 = small_campaign(5);
  CampaignJob c2 = small_campaign(5);
  EXPECT_EQ(job_key(c1), job_key(c2));
  // A different chunk budget is a different served computation even
  // though the underlying run identity matches.
  c2.max_chunks = 1;
  EXPECT_NE(job_key(c1), job_key(c2));
  CampaignJob c3 = small_campaign(6);
  EXPECT_NE(job_key(c1), job_key(c3));
}

TEST(JobKeys, GoldenCampaignKeys) {
  // The default campaign configuration, frozen at schema version 2: the
  // run key addresses a lot in the cache tiers, the job key coalesces
  // served campaigns.
  CampaignJob job;
  job.max_chunks = 3;
  EXPECT_EQ(cache::fabsim_run_key(simulator_config(job), job.n_wafers, job.seed).hex(),
            "7299f8d7d4876e3983608263d785c97d");
  EXPECT_EQ(job_key(job).hex(), "a829bf58ae43a37d1f170679ec3e01e1");
}

// ---------------------------------------------------------------------------
// (a) Served bytes == direct library call, at 1/2/hw worker threads.

TEST(ServedVsDirect, BitwiseIdenticalAcrossWorkerCounts) {
  const Eq4Job eq4 = small_eq4();
  const RiskJob risk = small_risk(1024);
  const CampaignJob campaign = small_campaign(5);
  const std::vector<std::uint8_t> eq4_ref = direct_eq4_bytes(eq4);
  const std::vector<std::uint8_t> risk_ref = direct_risk_bytes(risk);
  const std::vector<std::uint8_t> campaign_ref = direct_campaign_bytes(campaign);

  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  for (const int workers : {1, 2, hw > 0 ? hw : 4}) {
    ServerOptions options;
    options.worker_threads = workers;
    Server server(options);
    Client client = make_client(server);

    const std::uint64_t eq4_id = client.submit(eq4);
    const std::uint64_t risk_id = client.submit(risk);
    const std::uint64_t campaign_id = client.submit(campaign);

    // Waiting out of submission order exercises response parking.
    const Response rc = client.wait(campaign_id);
    const Response rr = client.wait(risk_id);
    const Response re = client.wait(eq4_id);

    EXPECT_EQ(re.status, ResponseStatus::kOk) << re.message;
    EXPECT_EQ(rr.status, ResponseStatus::kOk) << rr.message;
    EXPECT_EQ(rc.status, ResponseStatus::kOk) << rc.message;
    EXPECT_EQ(re.result, eq4_ref) << "eq4 bytes diverge at " << workers << " workers";
    EXPECT_EQ(rr.result, risk_ref) << "risk bytes diverge at " << workers << " workers";
    EXPECT_EQ(rc.result, campaign_ref)
        << "campaign bytes diverge at " << workers << " workers";
    EXPECT_DOUBLE_EQ(rc.completeness, 1.0);
  }
}

// ---------------------------------------------------------------------------
// (b) Corrupt frames kill the connection, never the server.

TEST(ServedConnection, CorruptionMatrixKillsTheConnectionNotTheServer) {
  Server server(ServerOptions{});
  const std::vector<std::uint8_t> good =
      encode_frame(FrameType::kRiskRequest, encode_payload(small_risk(64)));

  nanocost::testing::CorruptionMatrixOptions opts;  // default strides
  opts.u64_length_offsets = {16};
  nanocost::testing::run_corruption_matrix(
      good,
      [&server](const std::vector<std::uint8_t>& bytes) {
        RawPeer peer(server);
        peer.send(bytes);
        peer.half_close();
        // "Rejected" at this level: the server answered with an error
        // frame (and closed the connection); pristine bytes produce a
        // normal response and no error frame.
        nanocost::testing::CorruptionVerdict v;
        MemStream parser(peer.slurp());
        while (true) {
          const std::optional<Frame> frame = read_frame(parser);
          if (!frame) break;
          if (frame->type == FrameType::kErrorFrame) {
            v.rejected = true;
            v.diagnostic = decode_error_frame(frame->payload).message;
            EXPECT_NE(v.diagnostic.find("NCWIRE01"), std::string::npos) << v.diagnostic;
          }
        }
        return v;
      },
      opts);

  // The server survived the whole matrix: a fresh connection works.
  Client client = make_client(server);
  EXPECT_TRUE(client.ping());
  const DrainReport report = server.shutdown();
  EXPECT_GT(report.wire_errors, 0u);
}

TEST(ServedConnection, ProtocolViolationFrameClosesTheConnection) {
  Server server(ServerOptions{});
  RawPeer peer(server);
  peer.send(encode_frame(FrameType::kResponse, encode_payload(Response{})));
  // No half_close: the error frame plus EOF must come from the server
  // closing the dead connection on its own.
  MemStream parser(peer.slurp());
  const std::optional<Frame> frame = read_frame(parser);
  ASSERT_TRUE(frame.has_value());
  ASSERT_EQ(frame->type, FrameType::kErrorFrame);
  EXPECT_NE(decode_error_frame(frame->payload).message.find("protocol violation"),
            std::string::npos);
  EXPECT_FALSE(read_frame(parser).has_value());

  Client client = make_client(server);
  EXPECT_TRUE(client.ping());
}

TEST(ServedConnection, SemanticallyInvalidJobGetsErrorResponseOnALiveConnection) {
  Server server(ServerOptions{});
  RawPeer peer(server);

  // A structurally perfect frame whose job is impossible: yield = 1.5.
  Eq4Job job = small_eq4();
  job.request_id = 31;
  std::vector<std::uint8_t> payload = encode_payload(job);
  const double bad_yield = 1.5;
  std::memcpy(payload.data() + 16, &bad_yield, sizeof(bad_yield));
  peer.send(encode_frame(FrameType::kEq4Request, payload));
  // Prove the connection survived the bad job: a ping after it.
  cache::ByteWriter w;
  w.u64(99);
  peer.send(encode_frame(FrameType::kPing, w.take()));

  bool saw_error_response = false;
  bool saw_pong = false;
  MemStream parser(peer.slurp());
  while (true) {
    const std::optional<Frame> frame = read_frame(parser);
    if (!frame) break;
    if (frame->type == FrameType::kResponse) {
      const Response r = decode_response(frame->payload);
      EXPECT_EQ(r.request_id, 31u);
      EXPECT_EQ(r.status, ResponseStatus::kError);
      EXPECT_NE(r.message.find("invalid job payload"), std::string::npos) << r.message;
      saw_error_response = true;
    }
    if (frame->type == FrameType::kPong) saw_pong = true;
  }
  EXPECT_TRUE(saw_error_response);
  EXPECT_TRUE(saw_pong);
}

TEST(ServedConnection, ZeroWaferCampaignGetsErrorResponseOnALiveConnection) {
  // A lot of no wafers decodes fine but cannot become a campaign task:
  // it must be answered like any other invalid job, not end the reader.
  Server server(ServerOptions{});
  Client client = make_client(server);
  CampaignJob empty = small_campaign(7);
  empty.n_wafers = 0;
  const Response r = client.wait(client.submit(empty));
  EXPECT_EQ(r.status, ResponseStatus::kError);
  EXPECT_NE(r.message.find("invalid campaign job"), std::string::npos) << r.message;
  EXPECT_TRUE(r.result.empty());
  const CampaignJob good = small_campaign(7);
  EXPECT_EQ(client.wait(client.submit(good)).result, direct_campaign_bytes(good));
}

// ---------------------------------------------------------------------------
// Coalescing: one computation, every waiter the same bytes.

TEST(Coalescing, IdenticalInflightCampaignsComputeOnce) {
  const CampaignJob twin = small_campaign(2);
  const std::vector<std::uint8_t> twin_ref = direct_campaign_bytes(twin);

  // A deterministic latency fault slows every simulated wafer, so the
  // blocker campaign provably occupies the runner while the identical
  // pair behind it is admitted (kLatency never changes result bytes).
  PlanGuard guard;
  robust::FaultPlan plan;
  plan.add("fabsim.wafer",
           robust::FaultSpec{1.0, robust::FaultKind::kLatency, false, 5000});
  robust::install_fault_plan(plan);

  ServerOptions options;
  options.campaign_capacity = 8;
  Server server(options);
  Client client = make_client(server);

  const std::uint64_t blocker_id = client.submit(small_campaign(1, 40));
  const std::uint64_t first_id = client.submit(twin);
  const std::uint64_t second_id = client.submit(twin);

  const Response second = client.wait(second_id);
  const Response first = client.wait(first_id);
  const Response blocker = client.wait(blocker_id);

  EXPECT_EQ(blocker.status, ResponseStatus::kOk) << blocker.message;
  EXPECT_EQ(first.status, ResponseStatus::kOk) << first.message;
  EXPECT_EQ(second.status, ResponseStatus::kOk) << second.message;
  EXPECT_FALSE(first.coalesced);
  EXPECT_TRUE(second.coalesced);
  EXPECT_EQ(first.result, second.result);
  EXPECT_EQ(first.result, twin_ref);

  const DrainReport report = server.shutdown();
  EXPECT_EQ(report.coalesced, 1u);
  EXPECT_EQ(report.campaigns_completed, 2u);
}

// ---------------------------------------------------------------------------
// Simulator cache: one FabSimulator build per configuration per server.

TEST(SimulatorCache, OneBuildServesEveryRunShapeOfAConfiguration) {
  Server server(ServerOptions{});
  Client client = make_client(server);
  // Seed, wafer count and chunk budget vary; the simulator does not.
  // Every budget covers its lot, so each response is a complete run.
  std::vector<CampaignJob> jobs{small_campaign(1), small_campaign(2, 12), small_campaign(3, 4),
                                small_campaign(1)};
  jobs[1].max_chunks = 3;
  jobs[2].max_chunks = 50;
  for (const CampaignJob& job : jobs) {
    const Response r = client.wait(client.submit(job));
    EXPECT_EQ(r.status, ResponseStatus::kOk) << r.message;
    EXPECT_EQ(r.result, direct_campaign_bytes(job)) << "seed " << job.seed;
  }
  const DrainReport report = server.shutdown();
  EXPECT_EQ(report.simulators_built, 1u);
  EXPECT_EQ(report.campaigns_completed, jobs.size());
}

TEST(SimulatorCache, ConcurrentReadersShareOneConfiguration) {
  // Each connection has its own reader thread, so these lookups race;
  // readers that miss together may each build, never more.
  constexpr int kClients = 4;
  Server server(ServerOptions{});
  std::vector<Client> clients;
  for (int c = 0; c < kClients; ++c) clients.push_back(make_client(server));
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&clients, c] {
      Client& client = clients[static_cast<std::size_t>(c)];
      for (std::uint64_t lot = 0; lot < 4; ++lot) {
        const CampaignJob job = small_campaign(100 * static_cast<std::uint64_t>(c) + lot, 4);
        const Response r = client.wait(client.submit(job));
        EXPECT_EQ(r.status, ResponseStatus::kOk) << r.message;
        EXPECT_EQ(r.result, direct_campaign_bytes(job));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const DrainReport report = server.shutdown();
  EXPECT_GE(report.simulators_built, 1u);
  EXPECT_LE(report.simulators_built, static_cast<std::uint64_t>(kClients));
}

TEST(SimulatorCache, EverySimulatorFieldSplitsTheCache) {
  using Edit = void (*)(CampaignJob&);
  const std::vector<Edit> edits{
      [](CampaignJob& j) { j.wafer_diameter_mm = 150.0; },
      [](CampaignJob& j) { j.wafer_edge_exclusion_mm = 5.0; },
      [](CampaignJob& j) { j.wafer_scribe_mm = 0.2; },
      [](CampaignJob& j) { j.die_width_mm = 10.0; },
      [](CampaignJob& j) { j.die_height_mm = 11.0; },
      [](CampaignJob& j) { j.size_xmin_um = 0.1; },
      [](CampaignJob& j) { j.size_peak_um = 0.3; },
      [](CampaignJob& j) { j.size_xmax_um = 20.0; },
      [](CampaignJob& j) { j.size_q = 2.5; },
      [](CampaignJob& j) { j.defect_density_per_cm2 = 0.9; },
      [](CampaignJob& j) { j.cluster_alpha = 1.5; },
      [](CampaignJob& j) { j.clustered = false; },
      [](CampaignJob& j) { j.radial_edge_boost = 0.5; },
      [](CampaignJob& j) { j.radial_sharpness = 3.0; },
      [](CampaignJob& j) { j.wire_width_um = 0.3; },
      [](CampaignJob& j) { j.wire_spacing_um = 0.35; },
      [](CampaignJob& j) { j.wire_length_um = 80.0; },
      [](CampaignJob& j) { j.wire_count = 40; },
  };
  ASSERT_EQ(edits.size(), 18u) << "one edit per simulator field of CampaignJob";

  // One shared artifact tier: a configuration must never be served the
  // chunk blobs another configuration stored.
  const TempDir tmp("every_field");
  ServerOptions options;
  options.artifact_dir = tmp.path();
  Server server(options);
  Client client = make_client(server);
  const CampaignJob base = small_campaign(4, 4);
  ASSERT_EQ(client.wait(client.submit(base)).status, ResponseStatus::kOk);
  CampaignJob last = base;
  for (const Edit edit : edits) {
    last = base;
    edit(last);
    const Response r = client.wait(client.submit(last));
    EXPECT_EQ(r.status, ResponseStatus::kOk) << r.message;
    EXPECT_EQ(r.result, direct_campaign_bytes(last));
  }
  // A repeat of the latest configuration is still cached.
  EXPECT_EQ(client.wait(client.submit(last)).result, direct_campaign_bytes(last));
  const DrainReport report = server.shutdown();
  EXPECT_EQ(report.simulators_built, 1u + edits.size());
}

TEST(SimulatorCache, InvalidConfigurationGetsErrorAndIsNotCached) {
  Server server(ServerOptions{});
  Client client = make_client(server);
  CampaignJob bad = small_campaign(5);
  bad.wafer_edge_exclusion_mm = 150.0;  // wider than the 100 mm radius
  for (int attempt = 0; attempt < 2; ++attempt) {
    const Response r = client.wait(client.submit(bad));
    EXPECT_EQ(r.status, ResponseStatus::kError);
    EXPECT_NE(r.message.find("invalid campaign job"), std::string::npos) << r.message;
    EXPECT_TRUE(r.result.empty());
  }
  // The connection and the cache still serve a valid configuration.
  const CampaignJob good = small_campaign(5);
  EXPECT_EQ(client.wait(client.submit(good)).result, direct_campaign_bytes(good));
  const DrainReport report = server.shutdown();
  EXPECT_EQ(report.simulators_built, 1u);
}

TEST(SimulatorCache, RunawayDefectDensityIsRejectedBeforeABuild) {
  // 1e9/cm^2 over a 200 mm wafer is ~3e11 expected defects: admitted,
  // it would hold a campaign runner for hours.
  Server server(ServerOptions{});
  Client client = make_client(server);
  CampaignJob runaway = small_campaign(6);
  runaway.defect_density_per_cm2 = 1e9;
  const Response r = client.wait(client.submit(runaway));
  EXPECT_EQ(r.status, ResponseStatus::kError);
  EXPECT_NE(r.message.find("invalid campaign job"), std::string::npos) << r.message;
  EXPECT_NE(r.message.find("past the bound of 1e+06"), std::string::npos) << r.message;
  EXPECT_TRUE(r.result.empty());
  // The same connection still completes a campaign at a real density.
  const CampaignJob good = small_campaign(6);
  const Response ok = client.wait(client.submit(good));
  EXPECT_EQ(ok.status, ResponseStatus::kOk) << ok.message;
  EXPECT_EQ(ok.result, direct_campaign_bytes(good));
  const DrainReport report = server.shutdown();
  EXPECT_EQ(report.simulators_built, 1u);
}

// ---------------------------------------------------------------------------
// (c) Kill mid-campaign, restart, resubmit: zero recompute, bitwise match.

TEST(CrashTolerance, KillRestartResumesBitwiseWithZeroRecompute) {
  const CampaignJob full = small_campaign(5);  // 8 wafers = 2 chunks
  const std::vector<std::uint8_t> reference = direct_campaign_bytes(full);
  const TempDir tmp("crash");

  // Run 1: a budget of 1 chunk stops the campaign mid-flight
  // deterministically; the server then dies (destruction = the
  // in-process stand-in for kill; the CI smoke job uses kill -9).
  {
    ServerOptions options;
    options.artifact_dir = tmp.path();
    Server server(options);
    Client client = make_client(server);
    CampaignJob budgeted = full;
    budgeted.max_chunks = 1;
    const Response r = client.wait(client.submit(budgeted));
    EXPECT_EQ(r.status, ResponseStatus::kPartial) << r.message;
    EXPECT_EQ(r.frontier_chunks, 1);
    EXPECT_LT(r.completeness, 1.0);
  }

  // Run 2: a fresh server on the same artifact tier.  The chunk run 1
  // completed must replay (checkpoint or blob tier), not recompute.
  {
    ServerOptions options;
    options.artifact_dir = tmp.path();
    Server server(options);
    Client client = make_client(server);
    const Response r = client.wait(client.submit(full));
    EXPECT_EQ(r.status, ResponseStatus::kOk) << r.message;
    EXPECT_EQ(r.artifact_hits, 1u) << "chunk 0 was recomputed (or lost)";
    EXPECT_DOUBLE_EQ(r.completeness, 1.0);
    EXPECT_EQ(r.result, reference) << "resumed bytes diverge from the undisturbed run";

    // Fully warm resubmission: zero computation.
    const Response warm = client.wait(client.submit(full));
    EXPECT_EQ(warm.status, ResponseStatus::kOk) << warm.message;
    EXPECT_EQ(warm.artifact_hits, 2u);
    EXPECT_EQ(warm.result, reference);
  }
}

TEST(CrashTolerance, CorruptRecordAnswersErrorAndTheServerKeepsServing) {
  const CampaignJob lot = small_campaign(5, 16);  // 4 chunks
  const TempDir tmp("corrupt_record");
  {
    ServerOptions options;
    options.artifact_dir = tmp.path();
    Server server(options);
    Client client = make_client(server);
    ASSERT_EQ(client.wait(client.submit(lot)).status, ResponseStatus::kOk);
  }
  // Truncate the lot's record.
  std::string record;
  for (const auto& entry : std::filesystem::directory_iterator(tmp.path())) {
    if (entry.path().extension() == ".ncckpt") record = entry.path().string();
  }
  ASSERT_FALSE(record.empty());
  std::filesystem::resize_file(record, std::filesystem::file_size(record) - 3);

  // A corrupt record is reported, naming the file, never recomputed --
  // and never takes the daemon down with it.
  ServerOptions options;
  options.artifact_dir = tmp.path();
  Server server(options);
  Client client = make_client(server);
  const Response r = client.wait(client.submit(lot));
  EXPECT_EQ(r.status, ResponseStatus::kError);
  EXPECT_NE(r.message.find(record), std::string::npos) << r.message;
  EXPECT_TRUE(r.result.empty());

  // The same connection still serves an eq4 job and another campaign.
  const Eq4Job eq4 = small_eq4();
  const Response light = client.wait(client.submit(eq4));
  EXPECT_EQ(light.status, ResponseStatus::kOk) << light.message;
  EXPECT_EQ(light.result, direct_eq4_bytes(eq4));
  const CampaignJob other = small_campaign(6, 16);
  const Response next = client.wait(client.submit(other));
  EXPECT_EQ(next.status, ResponseStatus::kOk) << next.message;
  EXPECT_EQ(next.result, direct_campaign_bytes(other));
}

// ---------------------------------------------------------------------------
// (d) Overload: deterministic shed / degrade with per-request outcomes.

TEST(Overload, RejectNewestShedsPastCapacityDeterministically) {
  // Slow wafers (deterministic latency fault) keep the blocker in
  // flight while the overload arrives.
  PlanGuard guard;
  robust::FaultPlan plan;
  plan.add("fabsim.wafer",
           robust::FaultSpec{1.0, robust::FaultKind::kLatency, false, 5000});
  robust::install_fault_plan(plan);

  ServerOptions options;
  options.campaign_capacity = 1;
  options.campaign_policy = ShedPolicy::kRejectNewest;
  Server server(options);
  Client client = make_client(server);

  // The blocker fills the queue; every later submission is shed at
  // admission, a pure function of arrival order.
  const std::uint64_t blocker_id = client.submit(small_campaign(1, 40));
  std::vector<std::uint64_t> shed_ids;
  for (std::uint64_t seed = 10; seed < 13; ++seed) {
    shed_ids.push_back(client.submit(small_campaign(seed)));
  }
  for (const std::uint64_t id : shed_ids) {
    const Response r = client.wait(id);
    EXPECT_EQ(r.status, ResponseStatus::kShed);
    EXPECT_NE(r.message.find("capacity (1)"), std::string::npos) << r.message;
    EXPECT_TRUE(r.result.empty());
    EXPECT_DOUBLE_EQ(r.completeness, 0.0);
  }
  const Response blocker = client.wait(blocker_id);
  EXPECT_EQ(blocker.status, ResponseStatus::kOk) << blocker.message;

  const DrainReport report = server.shutdown();
  EXPECT_EQ(report.campaigns_shed, 3u);
  EXPECT_EQ(report.campaigns_completed, 1u);
}

TEST(Overload, DegradeBudgetsAdmitsEverythingPastCapacity) {
  PlanGuard guard;
  robust::FaultPlan plan;
  plan.add("fabsim.wafer",
           robust::FaultSpec{1.0, robust::FaultKind::kLatency, false, 5000});
  robust::install_fault_plan(plan);

  ServerOptions options;
  options.campaign_capacity = 1;
  options.campaign_policy = ShedPolicy::kDegradeBudgets;
  Server server(options);
  Client client = make_client(server);

  // Four 40-wafer (10-chunk) lots; the three behind the first arrive
  // while it runs.  Whenever the first was picked up, the others start
  // with 3, 2 and 1 lots outstanding, so their chunk budgets are
  // max(1, 10 * capacity / outstanding): 3, 5, and the full 10.
  const std::uint64_t first_id = client.submit(small_campaign(1, 40));
  std::vector<std::uint64_t> ids;
  for (std::uint64_t seed = 10; seed < 13; ++seed) {
    ids.push_back(client.submit(small_campaign(seed, 40)));
  }
  const std::int64_t expected_frontier[3] = {3, 5, 10};
  const ResponseStatus expected_status[3] = {ResponseStatus::kPartial, ResponseStatus::kPartial,
                                             ResponseStatus::kOk};
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const Response r = client.wait(ids[i]);
    EXPECT_EQ(r.status, expected_status[i]) << "lot " << i + 1 << ": " << r.message;
    EXPECT_EQ(r.frontier_chunks, expected_frontier[i]) << "lot " << i + 1;
    EXPECT_FALSE(r.result.empty());
  }
  // Degrade never sheds: the first lot gets a result too.
  const Response first = client.wait(first_id);
  EXPECT_TRUE(first.status == ResponseStatus::kOk || first.status == ResponseStatus::kPartial)
      << response_status_name(first.status) << ": " << first.message;
  EXPECT_FALSE(first.result.empty());
  const DrainReport report = server.shutdown();
  EXPECT_EQ(report.campaigns_shed, 0u);
}

TEST(Overload, ZeroCapacityIsRejectedAtConstruction) {
  ServerOptions options;
  options.campaign_capacity = 0;
  EXPECT_THROW(Server{options}, std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Admission queue: the server's FIFO of outstanding campaigns (queued
// plus running), past a capacity above one.

TEST(AdmissionQueue, RejectNewestShedsPastCapacityDeterministically) {
  // The running lot counts against the capacity: at capacity 2 the
  // blocker and one queued lot are admitted, and every later lot is
  // shed while the blocker is still in flight.
  PlanGuard guard;
  robust::FaultPlan plan;
  plan.add("fabsim.wafer",
           robust::FaultSpec{1.0, robust::FaultKind::kLatency, false, 5000});
  robust::install_fault_plan(plan);

  ServerOptions options;
  options.campaign_capacity = 2;
  options.campaign_policy = ShedPolicy::kRejectNewest;
  Server server(options);
  Client client = make_client(server);

  const std::uint64_t blocker_id = client.submit(small_campaign(1, 40));
  const CampaignJob queued = small_campaign(2);
  const std::uint64_t queued_id = client.submit(queued);
  std::vector<std::uint64_t> shed_ids;
  for (std::uint64_t seed = 10; seed < 13; ++seed) {
    shed_ids.push_back(client.submit(small_campaign(seed)));
  }
  for (const std::uint64_t id : shed_ids) {
    const Response r = client.wait(id);
    EXPECT_EQ(r.status, ResponseStatus::kShed);
    EXPECT_NE(r.message.find("capacity (2)"), std::string::npos) << r.message;
    EXPECT_TRUE(r.result.empty());
  }
  EXPECT_EQ(client.wait(blocker_id).status, ResponseStatus::kOk);
  const Response second = client.wait(queued_id);
  EXPECT_EQ(second.status, ResponseStatus::kOk) << second.message;
  EXPECT_EQ(second.result, direct_campaign_bytes(queued));

  const DrainReport report = server.shutdown();
  EXPECT_EQ(report.campaigns_shed, 3u);
  EXPECT_EQ(report.campaigns_completed, 2u);
}

TEST(AdmissionQueue, DegradeBudgetsShrinksEveryCampaignProportionally) {
  // Five 40-wafer (10-chunk) lots at capacity 2 on two lanes; the four
  // behind the first arrive while it runs.  They start with 4, 3, 2 and
  // 1 lots outstanding, so their budgets are max(1, 10 * 2 /
  // outstanding) while oversubscribed -- 5 and 6 -- and the full 10 once
  // the outstanding count is back at the capacity.
  PlanGuard guard;
  robust::FaultPlan plan;
  plan.add("fabsim.wafer",
           robust::FaultSpec{1.0, robust::FaultKind::kLatency, false, 5000});
  robust::install_fault_plan(plan);

  exec::ThreadPool pool(2);
  ServerOptions options;
  options.pool = &pool;
  options.campaign_capacity = 2;
  options.campaign_policy = ShedPolicy::kDegradeBudgets;
  Server server(options);
  Client client = make_client(server);

  const std::uint64_t first_id = client.submit(small_campaign(1, 40));
  std::vector<std::uint64_t> ids;
  for (std::uint64_t seed = 10; seed < 14; ++seed) {
    ids.push_back(client.submit(small_campaign(seed, 40)));
  }
  const std::int64_t expected_frontier[4] = {5, 6, 10, 10};
  const ResponseStatus expected_status[4] = {ResponseStatus::kPartial, ResponseStatus::kPartial,
                                             ResponseStatus::kOk, ResponseStatus::kOk};
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const Response r = client.wait(ids[i]);
    EXPECT_EQ(r.status, expected_status[i]) << "lot " << i + 1 << ": " << r.message;
    EXPECT_EQ(r.frontier_chunks, expected_frontier[i]) << "lot " << i + 1;
    EXPECT_DOUBLE_EQ(r.completeness, static_cast<double>(expected_frontier[i]) / 10.0)
        << "lot " << i + 1;
  }
  const Response first = client.wait(first_id);
  EXPECT_TRUE(first.status == ResponseStatus::kOk || first.status == ResponseStatus::kPartial)
      << response_status_name(first.status) << ": " << first.message;
  const DrainReport report = server.shutdown();
  EXPECT_EQ(report.campaigns_shed, 0u);
}

TEST(AdmissionQueue, DrainPicksUpSubmissionsArrivingMidCycle) {
  // The runner answers lots that arrive on another connection while it
  // runs one, and one that arrives after it has answered everything
  // and gone idle.
  const CampaignJob during = small_campaign(2);
  const CampaignJob after = small_campaign(3);
  const std::vector<std::uint8_t> during_ref = direct_campaign_bytes(during);
  const std::vector<std::uint8_t> after_ref = direct_campaign_bytes(after);

  PlanGuard guard;
  robust::FaultPlan plan;
  plan.add("fabsim.wafer",
           robust::FaultSpec{1.0, robust::FaultKind::kLatency, false, 5000});
  robust::install_fault_plan(plan);

  Server server(ServerOptions{});
  Client first_client = make_client(server);
  Client second_client = make_client(server);
  const std::uint64_t running_id = first_client.submit(small_campaign(1, 40));
  ASSERT_TRUE(first_client.ping());  // the 40-wafer lot is admitted first
  const std::uint64_t during_id = second_client.submit(during);

  EXPECT_EQ(first_client.wait(running_id).status, ResponseStatus::kOk);
  const Response mid = second_client.wait(during_id);
  EXPECT_EQ(mid.status, ResponseStatus::kOk) << mid.message;
  EXPECT_EQ(mid.result, during_ref);

  const Response late = first_client.wait(first_client.submit(after));
  EXPECT_EQ(late.status, ResponseStatus::kOk) << late.message;
  EXPECT_EQ(late.result, after_ref);

  const DrainReport report = server.shutdown();
  EXPECT_EQ(report.campaigns_completed, 3u);
  EXPECT_EQ(report.campaigns_stopped, 0u);
}

// ---------------------------------------------------------------------------
// Graceful drain.

TEST(Drain, ShutdownStopsInFlightCampaignsResumable) {
  // 10 ms wafers on two lanes: the 64-wafer lot needs ~320 ms, so the
  // drain stop trips ~150 ms in, with some chunks done and most not.
  const CampaignJob big = small_campaign(3, 64);  // 16 chunks
  const std::vector<std::uint8_t> reference = direct_campaign_bytes(big);
  PlanGuard guard;
  robust::FaultPlan plan;
  plan.add("fabsim.wafer",
           robust::FaultSpec{1.0, robust::FaultKind::kLatency, false, 10000});
  robust::install_fault_plan(plan);

  const TempDir tmp("drain");
  exec::ThreadPool pool(2);
  ServerOptions options;
  options.pool = &pool;
  options.artifact_dir = tmp.path();
  options.drain_budget_ms = 100.0;
  Server server(options);
  Client client = make_client(server);

  const std::uint64_t id = client.submit(big);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  const DrainReport report = server.shutdown();
  EXPECT_EQ(report.campaigns_stopped, 1u);
  EXPECT_EQ(report.campaigns_completed, 0u);

  // The response was written before the drain finished.
  const Response r = client.wait(id);
  EXPECT_EQ(r.status, ResponseStatus::kStopped) << r.message;
  EXPECT_LT(r.completeness, 1.0);
  EXPECT_GT(r.frontier_chunks, 0);
  EXPECT_LT(r.frontier_chunks, 16);
  EXPECT_FALSE(r.message.empty());

  // Idempotent: the second shutdown returns the first report.
  const DrainReport again = server.shutdown();
  EXPECT_EQ(again.campaigns_stopped, report.campaigns_stopped);
  EXPECT_EQ(again.requests_served, report.requests_served);

  // And a drained server refuses new connections.
  int sv[2] = {-1, -1};
  ASSERT_EQ(0, ::socketpair(AF_UNIX, SOCK_STREAM, 0, sv));
  EXPECT_THROW(server.add_connection(sv[0], sv[0]), std::logic_error);
  ::close(sv[1]);

  // The stopped campaign is resumable: a fresh server on the same tier
  // finishes it with the stopped frontier replayed, bitwise correct.
  robust::clear_fault_plan();
  Server resumed(options);
  Client client2 = make_client(resumed);
  const Response full = client2.wait(client2.submit(big));
  EXPECT_EQ(full.status, ResponseStatus::kOk) << full.message;
  EXPECT_GE(full.artifact_hits, static_cast<std::uint64_t>(r.frontier_chunks));
  EXPECT_EQ(full.result, reference);
}

TEST(Drain, ShutdownStopsTheQueuedCampaignsWithoutRunningThem) {
  // 20 ms wafers on two lanes: the first 40-wafer lot needs ~400 ms, so
  // it is still running when the 50 ms drain budget runs out, and the
  // two lots queued behind it never start.
  PlanGuard guard;
  robust::FaultPlan plan;
  plan.add("fabsim.wafer",
           robust::FaultSpec{1.0, robust::FaultKind::kLatency, false, 20000});
  robust::install_fault_plan(plan);

  exec::ThreadPool pool(2);
  ServerOptions options;
  options.pool = &pool;
  options.drain_budget_ms = 50.0;
  Server server(options);
  Client client = make_client(server);
  std::vector<std::uint64_t> ids;
  for (std::uint64_t seed = 30; seed < 33; ++seed) {
    ids.push_back(client.submit(small_campaign(seed, 40)));
  }
  // The pong follows the three requests on one connection, so all three
  // are admitted before the drain starts.
  ASSERT_TRUE(client.ping());

  const DrainReport report = server.shutdown();
  EXPECT_EQ(report.campaigns_stopped, 3u);
  EXPECT_EQ(report.campaigns_completed, 0u);

  const Response first = client.wait(ids[0]);
  EXPECT_EQ(first.status, ResponseStatus::kStopped) << first.message;
  EXPECT_LT(first.completeness, 1.0);
  for (std::size_t i = 1; i < ids.size(); ++i) {
    const Response r = client.wait(ids[i]);
    EXPECT_EQ(r.status, ResponseStatus::kStopped) << r.message;
    EXPECT_EQ(r.frontier_chunks, 0);
    EXPECT_DOUBLE_EQ(r.completeness, 0.0);
    EXPECT_TRUE(r.result.empty());
    EXPECT_NE(r.message.find("resumable"), std::string::npos) << r.message;
  }
}

TEST(Drain, ShutdownSweepKeepsTheWholeTierUnderTheByteCap) {
  // Six 40-wafer lots write ~11 KiB of records; the shutdown sweep must
  // bring every file in the tier, records included, under the cap.
  constexpr std::uint64_t kCap = 4096;
  const TempDir tmp("byte_cap");
  {
    ServerOptions options;
    options.artifact_dir = tmp.path();
    options.artifact_byte_cap = kCap;
    Server server(options);
    Client client = make_client(server);
    for (std::uint64_t seed = 20; seed < 26; ++seed) {
      const Response r = client.wait(client.submit(small_campaign(seed, 40)));
      ASSERT_EQ(r.status, ResponseStatus::kOk) << r.message;
    }
    const DrainReport report = server.shutdown();
    EXPECT_GT(report.artifact_sweep.evicted_blobs, 0u);
  }
  std::uint64_t total = 0;
  for (const auto& entry : std::filesystem::recursive_directory_iterator(tmp.path())) {
    if (entry.is_regular_file()) total += entry.file_size();
  }
  EXPECT_GT(total, 0u);
  EXPECT_LE(total, kCap);
}

// ---------------------------------------------------------------------------
// Deadline hierarchy: a slow light request degrades to a typed partial.

TEST(Deadline, RiskRequestBudgetReturnsATypedResumablePartial) {
  // 100 us per sample (deterministic latency fault) makes one 128-sample
  // chunk ~13 ms of wall clock: a 40 ms budget completes at least one
  // chunk but cannot come near the ~780-chunk whole, at any core count.
  PlanGuard guard;
  robust::FaultPlan plan;
  plan.add("risk.sample",
           robust::FaultSpec{1.0, robust::FaultKind::kLatency, false, 100});
  robust::install_fault_plan(plan);

  ServerOptions options;
  options.request_budget_ms = 40.0;
  Server server(options);
  Client client = make_client(server);

  const RiskJob heavy = small_risk(100000);
  const Response r = client.wait(client.submit(heavy));
  ASSERT_EQ(r.status, ResponseStatus::kPartial) << r.message;
  EXPECT_NE(r.message.find("resubmit"), std::string::npos) << r.message;
  EXPECT_LT(r.completeness, 1.0);
  EXPECT_GT(r.frontier_chunks, 0);
  EXPECT_FALSE(r.result.empty());
  // The partial is a well-formed RiskResult over the completed frontier.
  const core::RiskResult partial = cache::decode_risk_result(r.result);
  EXPECT_GT(partial.mean, 0.0);
  EXPECT_GE(partial.p90, partial.p10);
}

TEST(Deadline, ARiskJobWhoseOnlyChunkFinishesIsComplete) {
  // 100 samples are one chunk; 1 ms per sample (deterministic latency
  // fault) makes it ~100 ms, so the 20 ms budget trips while it runs.
  // The chunk started in time and finished, so the answer is complete:
  // the direct call's bytes, not a partial.
  PlanGuard guard;
  robust::FaultPlan plan;
  plan.add("risk.sample",
           robust::FaultSpec{1.0, robust::FaultKind::kLatency, false, 1000});
  robust::install_fault_plan(plan);

  exec::ThreadPool pool(1);
  const RiskJob job = small_risk(100);
  const Response r = execute(job, 20.0, &pool);
  EXPECT_EQ(r.status, ResponseStatus::kOk) << r.message;
  EXPECT_DOUBLE_EQ(r.completeness, 1.0);
  EXPECT_EQ(r.frontier_chunks, 1);
  robust::clear_fault_plan();
  EXPECT_EQ(r.result, direct_risk_bytes(job));
}

// ---------------------------------------------------------------------------
// Fault injection at the serve.* sites.

TEST(Faults, DispatchFaultYieldsErrorResponseThenCleanRetry) {
  PlanGuard guard;
  robust::FaultPlan plan;
  plan.add("serve.dispatch", robust::FaultSpec{1.0, robust::FaultKind::kThrow, false, 0});
  robust::install_fault_plan(plan);

  Server server(ServerOptions{});
  Client client = make_client(server);
  const Response faulted = client.wait(client.submit(small_eq4()));
  EXPECT_EQ(faulted.status, ResponseStatus::kError);
  EXPECT_NE(faulted.message.find("injected fault"), std::string::npos) << faulted.message;
  EXPECT_NE(faulted.message.find("resubmit"), std::string::npos);

  // Clear the plan and retry on the same connection: the served bytes
  // match the direct call -- faults never corrupt results.
  robust::clear_fault_plan();
  const Response retried = client.wait(client.submit(small_eq4()));
  EXPECT_EQ(retried.status, ResponseStatus::kOk) << retried.message;
  EXPECT_EQ(retried.result, direct_eq4_bytes(small_eq4()));
}

TEST(Faults, ReadFaultKillsTheConnectionServerSurvives) {
  PlanGuard guard;
  Server server(ServerOptions{});

  robust::FaultPlan plan;
  plan.add("serve.read", robust::FaultSpec{1.0, robust::FaultKind::kThrow, false, 0});
  robust::install_fault_plan(plan);

  // The reader's very first read faults: diagnostic error frame, then
  // the connection closes (EOF without a timeout).
  RawPeer peer(server);
  MemStream parser(peer.slurp(5000));
  const std::optional<Frame> frame = read_frame(parser);
  ASSERT_TRUE(frame.has_value());
  ASSERT_EQ(frame->type, FrameType::kErrorFrame);
  EXPECT_NE(decode_error_frame(frame->payload).message.find("serve.read"),
            std::string::npos);

  robust::clear_fault_plan();
  Client client = make_client(server);
  EXPECT_TRUE(client.ping());
}

TEST(Faults, WriteFaultDropsTheResponseServerSurvives) {
  PlanGuard guard;
  Server server(ServerOptions{});

  robust::FaultPlan plan;
  plan.add("serve.write", robust::FaultSpec{1.0, robust::FaultKind::kThrow, false, 0});
  robust::install_fault_plan(plan);

  RawPeer peer(server);
  Eq4Job job = small_eq4();
  job.request_id = 5;
  peer.send(encode_frame(FrameType::kEq4Request, encode_payload(job)));
  peer.half_close();
  // Every server write faults: no response can be delivered.
  EXPECT_TRUE(peer.slurp().empty());

  robust::clear_fault_plan();
  Client client = make_client(server);
  const Response r = client.wait(client.submit(small_eq4()));
  EXPECT_EQ(r.status, ResponseStatus::kOk) << r.message;
}

TEST(Faults, AcceptFaultDropsTheClientListenerSurvives) {
  PlanGuard guard;
  const TempDir tmp("accept");
  const std::string socket_path = tmp.path() + "/serve.sock";
  Server server(ServerOptions{});
  server.listen_unix(socket_path);

  robust::FaultPlan plan;
  plan.add("serve.accept", robust::FaultSpec{1.0, robust::FaultKind::kThrow, false, 0});
  robust::install_fault_plan(plan);

  // connect() succeeds (the listener is up); the server drops the
  // accepted socket, so the first round-trip fails.
  Client dropped = Client::connect_unix(socket_path);
  bool refused = false;
  try {
    refused = !dropped.ping();
  } catch (const WireError&) {
    refused = true;  // the write already saw the closed socket
  }
  EXPECT_TRUE(refused);

  robust::clear_fault_plan();
  Client accepted = Client::connect_unix(socket_path);
  EXPECT_TRUE(accepted.ping());

  server.shutdown();
  EXPECT_FALSE(std::filesystem::exists(socket_path)) << "drain must unlink the socket";
}

// ---------------------------------------------------------------------------
// Telemetry plane: kStatsRequest scrapes, per-job latency histograms,
// remote trace capture.

// Stats tests flip the global metrics switch; restore the inert default
// (and a zeroed registry) on exit so the determinism suite above keeps
// seeing the disabled state it asserts.
struct MetricsGuard {
  MetricsGuard() {
    obs::set_metrics_enabled(true);
    obs::reset_metrics();
  }
  ~MetricsGuard() {
    obs::reset_metrics();
    obs::set_metrics_enabled(false);
  }
};

const obs::HistogramSnapshot* find_snapshot_histogram(const obs::MetricsSnapshot& snap,
                                                      const std::string& name) {
  for (const obs::HistogramSnapshot& h : snap.histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

std::uint64_t snapshot_counter(const obs::MetricsSnapshot& snap, const std::string& name) {
  for (const auto& [counter_name, value] : snap.counters) {
    if (counter_name == name) return value;
  }
  return 0;
}

TEST(StatsFrame, ReportCodecRoundTripsAndIsStrict) {
  StatsReport report;
  report.request_id = 77;
  report.server_version = "1.0.0";
  report.simd_level = "avx2";
  report.hardware_concurrency = 8;
  report.pid = 4242;
  report.uptime_ms = 123456;
  report.stats = obs::encode_stats(obs::MetricsSnapshot{});

  const std::vector<std::uint8_t> payload = encode_payload(report);
  const StatsReport back = decode_stats_report(payload);
  EXPECT_EQ(back.request_id, 77u);
  EXPECT_EQ(back.server_version, "1.0.0");
  EXPECT_EQ(back.simd_level, "avx2");
  EXPECT_EQ(back.hardware_concurrency, 8u);
  EXPECT_EQ(back.pid, 4242u);
  EXPECT_EQ(back.uptime_ms, 123456u);
  EXPECT_EQ(back.stats, report.stats);
  // The embedded blob is itself a valid NCSTAT01 document.
  EXPECT_NO_THROW((void)obs::decode_stats(back.stats));

  std::vector<std::uint8_t> padded = payload;
  padded.push_back(0);
  EXPECT_THROW((void)decode_stats_report(padded), std::exception);
  const std::vector<std::uint8_t> cut(payload.begin(), payload.end() - 4);
  EXPECT_THROW((void)decode_stats_report(cut), std::exception);
}

TEST(StatsFrame, ScrapeCountsJobResponsesAndMatchesInProcessQuantiles) {
  MetricsGuard metrics;
  Server server(ServerOptions{});
  Client client = make_client(server);

  // Three job responses; the ping and the scrape itself must not land
  // in the request-latency histogram (they would skew the quantiles the
  // scrape exists to report).
  EXPECT_EQ(client.wait(client.submit(small_eq4())).status, ResponseStatus::kOk);
  EXPECT_EQ(client.wait(client.submit(small_risk(64))).status, ResponseStatus::kOk);
  EXPECT_EQ(client.wait(client.submit(small_campaign(5))).status, ResponseStatus::kOk);
  EXPECT_TRUE(client.ping());

  const StatsReport report = client.stats();
  EXPECT_EQ(report.server_version, "1.0.0");
  EXPECT_FALSE(report.simd_level.empty());
  EXPECT_EQ(report.hardware_concurrency, std::thread::hardware_concurrency());
  // The server runs in-process, so its reported pid is ours.
  EXPECT_EQ(report.pid, static_cast<std::uint64_t>(::getpid()));

  const obs::MetricsSnapshot remote = obs::decode_stats(report.stats);
  const obs::HistogramSnapshot* latency =
      find_snapshot_histogram(remote, "serve.request_us");
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->count, 3u) << "latency histogram must count exactly the job responses";

  // Per-job-type/outcome histograms: one ok each, no error/shed cells.
  for (const char* name : {"serve.latency_us.eq4.ok", "serve.latency_us.risk.ok",
                           "serve.latency_us.campaign.ok"}) {
    const obs::HistogramSnapshot* h = find_snapshot_histogram(remote, name);
    ASSERT_NE(h, nullptr) << name;
    EXPECT_EQ(h->count, 1u) << name;
  }
  EXPECT_EQ(snapshot_counter(remote, "serve.shed"), 0u);
  EXPECT_EQ(snapshot_counter(remote, "serve.wire_errors"), 0u);
  EXPECT_GE(snapshot_counter(remote, "serve.requests"), 5u);  // 3 jobs + ping + scrape
  EXPECT_GT(snapshot_counter(remote, "serve.bytes_in"), 0u);
  EXPECT_GT(snapshot_counter(remote, "serve.bytes_out"), 0u);

  // The quantiles a remote scraper reconstructs from the NCSTAT01 blob
  // equal the in-process values bit for bit: same buckets, same rule.
  // (Nothing records into the latency histogram after the scrape --
  // stats frames are excluded -- so the live registry still holds the
  // scraped state.)
  const obs::MetricsSnapshot live = obs::snapshot_metrics();
  const obs::HistogramSnapshot* local =
      find_snapshot_histogram(live, "serve.request_us");
  ASSERT_NE(local, nullptr);
  for (const double q : {0.5, 0.9, 0.99}) {
    EXPECT_DOUBLE_EQ(obs::histogram_quantile(*latency, q),
                     obs::histogram_quantile(*local, q))
        << "q=" << q;
  }

  const DrainReport drain = server.shutdown();
  // The scrape counts as a served response (it answered a request), on
  // top of the three jobs.
  EXPECT_EQ(drain.requests_served, 4u);
}

TEST(StatsFrame, MalformedStatsPayloadGetsErrorResponseOnALiveConnection) {
  Server server(ServerOptions{});
  RawPeer peer(server);
  peer.send(encode_frame(FrameType::kStatsRequest, {1, 2, 3}));
  cache::ByteWriter w;
  w.u64(99);
  peer.send(encode_frame(FrameType::kPing, w.take()));

  bool saw_error_response = false;
  bool saw_pong = false;
  MemStream parser(peer.slurp());
  while (true) {
    const std::optional<Frame> frame = read_frame(parser);
    if (!frame) break;
    if (frame->type == FrameType::kResponse) {
      const Response r = decode_response(frame->payload);
      EXPECT_EQ(r.status, ResponseStatus::kError);
      EXPECT_NE(r.message.find("invalid stats request"), std::string::npos) << r.message;
      saw_error_response = true;
    }
    if (frame->type == FrameType::kPong) saw_pong = true;
  }
  EXPECT_TRUE(saw_error_response);
  EXPECT_TRUE(saw_pong);
}

TEST(RemoteTrace, CaptureReturnsChromeJsonContainingServeSpans) {
  Server server(ServerOptions{});
  Client client = make_client(server);

  const Response armed = client.trace_start();
  ASSERT_EQ(armed.status, ResponseStatus::kOk) << armed.message;
  EXPECT_NE(armed.message.find("trace armed"), std::string::npos) << armed.message;

  // Work while the capture is live: these dispatches emit serve.request
  // spans.
  EXPECT_EQ(client.wait(client.submit(small_eq4())).status, ResponseStatus::kOk);
  EXPECT_EQ(client.wait(client.submit(small_risk(64))).status, ResponseStatus::kOk);

  const Response trace = client.trace_stop();
  ASSERT_EQ(trace.status, ResponseStatus::kOk) << trace.message;
  ASSERT_FALSE(trace.result.empty());
  const std::string json(trace.result.begin(), trace.result.end());
  EXPECT_EQ(json.front(), '{');
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("serve.request"), std::string::npos)
      << "the capture must contain the dispatch spans emitted while armed";
}

TEST(RemoteTrace, DoubleStartAndStopWithoutStartAreTypedErrors) {
  Server server(ServerOptions{});
  Client client = make_client(server);

  const Response cold_stop = client.trace_stop();
  EXPECT_EQ(cold_stop.status, ResponseStatus::kError);
  EXPECT_NE(cold_stop.message.find("no remote trace capture is armed"), std::string::npos)
      << cold_stop.message;

  ASSERT_EQ(client.trace_start().status, ResponseStatus::kOk);
  const Response second = client.trace_start();
  EXPECT_EQ(second.status, ResponseStatus::kError);
  EXPECT_NE(second.message.find("already armed"), std::string::npos) << second.message;

  // The armed capture is still usable after the rejected double-start.
  const Response stopped = client.trace_stop();
  EXPECT_EQ(stopped.status, ResponseStatus::kOk) << stopped.message;

  // Shutdown with an orphaned armed capture must disarm it (no dangling
  // global tracer for the next server in this process).
  Server orphan(ServerOptions{});
  Client client2 = make_client(orphan);
  ASSERT_EQ(client2.trace_start().status, ResponseStatus::kOk);
  orphan.shutdown();
  Server next(ServerOptions{});
  Client client3 = make_client(next);
  const Response rearmed = client3.trace_start();
  EXPECT_EQ(rearmed.status, ResponseStatus::kOk) << rearmed.message;
  EXPECT_EQ(client3.trace_stop().status, ResponseStatus::kOk);
}

// ---------------------------------------------------------------------------
// NCWIRE01 version handshake (kHello / kHelloAck).

TEST(Handshake, AckRoundTripAndConnectionKeepsServing) {
  Server server(ServerOptions{});
  Client client = make_client(server);

  const HelloAck ack = client.handshake("tenant-a");
  EXPECT_EQ(ack.protocol_version, kWireVersion);
  EXPECT_EQ(ack.build_version, kServeVersion);

  // The handshake is connection plumbing, not a job: the connection
  // serves normally afterwards and the ack never lands in requests_served.
  const Response r = client.wait(client.submit(small_eq4()));
  EXPECT_EQ(r.status, ResponseStatus::kOk) << r.message;
  EXPECT_EQ(r.result, direct_eq4_bytes(small_eq4()));

  const DrainReport report = server.shutdown();
  EXPECT_EQ(report.requests_served, 1u) << "the hello ack must not count as a response";
  EXPECT_EQ(report.handshake_rejects, 0u);
}

TEST(Handshake, RejectsProtocolMismatchByName) {
  Server server(ServerOptions{});
  RawPeer peer(server);

  HelloRequest hello;
  hello.request_id = 7;
  hello.protocol_version = 99;
  peer.send(encode_frame(FrameType::kHello, encode_payload(hello)));

  // No half_close: the error frame plus EOF must come from the server
  // killing the rejected connection on its own.
  MemStream parser(peer.slurp());
  const std::optional<Frame> frame = read_frame(parser);
  ASSERT_TRUE(frame.has_value());
  ASSERT_EQ(frame->type, FrameType::kErrorFrame);
  const ErrorFrame e = decode_error_frame(frame->payload);
  EXPECT_EQ(e.request_id, 7u);
  EXPECT_NE(e.message.find("handshake rejected"), std::string::npos) << e.message;
  EXPECT_NE(e.message.find("protocol version 99"), std::string::npos) << e.message;
  EXPECT_FALSE(read_frame(parser).has_value()) << "the rejected connection must close";

  // Only the offending connection died.
  Client client = make_client(server);
  EXPECT_TRUE(client.ping());
  const DrainReport report = server.shutdown();
  EXPECT_EQ(report.handshake_rejects, 1u);
}

TEST(Handshake, RejectsBuildMajorMismatchByName) {
  Server server(ServerOptions{});
  // A plain mismatch, and two majors past int's range: one that wraps
  // to the server's major 1 modulo 2^32, and one past 2^64.
  const std::vector<std::string> versions = {"2.0.0", "4294967297.0.0",
                                             "99999999999999999999.0.0"};
  for (const std::string& version : versions) {
    RawPeer peer(server);
    HelloRequest hello;
    hello.request_id = 9;
    hello.build_version = version;
    peer.send(encode_frame(FrameType::kHello, encode_payload(hello)));

    MemStream parser(peer.slurp());
    const std::optional<Frame> frame = read_frame(parser);
    ASSERT_TRUE(frame.has_value()) << version;
    ASSERT_EQ(frame->type, FrameType::kErrorFrame) << version;
    const ErrorFrame e = decode_error_frame(frame->payload);
    EXPECT_NE(e.message.find("handshake rejected"), std::string::npos) << e.message;
    EXPECT_NE(e.message.find("\"" + version + "\""), std::string::npos) << e.message;
    EXPECT_NE(e.message.find(kServeVersion), std::string::npos)
        << "the diagnostic must name both versions: " << e.message;
  }

  const DrainReport report = server.shutdown();
  EXPECT_EQ(report.handshake_rejects, versions.size());
}

TEST(Handshake, RejectsLateHello) {
  Server server(ServerOptions{});
  Client client = make_client(server);
  ASSERT_TRUE(client.ping());  // frame 1 on this connection

  try {
    (void)client.handshake("latecomer");
    FAIL() << "a hello after other traffic must be rejected";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("handshake rejected"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("first frame"), std::string::npos) << e.what();
  }

  const DrainReport report = server.shutdown();
  EXPECT_EQ(report.handshake_rejects, 1u);
}

TEST(Handshake, MalformedHelloPayloadIsRejectedWithDiagnostic) {
  Server server(ServerOptions{});
  const std::vector<std::uint8_t> good = encode_payload(HelloRequest{});

  // Truncated payload inside a structurally perfect frame: the frame
  // checksum passes, the hello decode must still reject.
  {
    RawPeer peer(server);
    std::vector<std::uint8_t> cut = good;
    cut.pop_back();
    peer.send(encode_frame(FrameType::kHello, cut));
    MemStream parser(peer.slurp());
    const std::optional<Frame> frame = read_frame(parser);
    ASSERT_TRUE(frame.has_value());
    ASSERT_EQ(frame->type, FrameType::kErrorFrame);
    EXPECT_NE(decode_error_frame(frame->payload).message.find("malformed hello payload"),
              std::string::npos);
    EXPECT_FALSE(read_frame(parser).has_value());
  }

  // Trailing bytes after a valid hello body: strict decode, same fate.
  {
    RawPeer peer(server);
    std::vector<std::uint8_t> padded = good;
    padded.push_back(0);
    peer.send(encode_frame(FrameType::kHello, padded));
    MemStream parser(peer.slurp());
    const std::optional<Frame> frame = read_frame(parser);
    ASSERT_TRUE(frame.has_value());
    ASSERT_EQ(frame->type, FrameType::kErrorFrame);
    EXPECT_NE(decode_error_frame(frame->payload).message.find("malformed hello payload"),
              std::string::npos);
  }

  // A protocol version that does not fit its 32-bit field: 2^32 + 1
  // must not truncate to the server's version 1.
  {
    RawPeer peer(server);
    cache::ByteWriter w;
    w.u64(5);                  // request id
    w.u64((1ULL << 32) + 1);   // protocol version
    w.str(kServeVersion);      // build version
    w.str("");                 // tenant
    w.u64(0);                  // attempt
    peer.send(encode_frame(FrameType::kHello, w.take()));
    MemStream parser(peer.slurp());
    const std::optional<Frame> frame = read_frame(parser);
    ASSERT_TRUE(frame.has_value());
    ASSERT_EQ(frame->type, FrameType::kErrorFrame);
    const std::string message = decode_error_frame(frame->payload).message;
    EXPECT_NE(message.find("malformed hello payload"), std::string::npos) << message;
    EXPECT_NE(message.find("4294967297"), std::string::npos) << message;
    EXPECT_FALSE(read_frame(parser).has_value());
  }

  Client client = make_client(server);
  EXPECT_TRUE(client.ping());
  const DrainReport report = server.shutdown();
  EXPECT_EQ(report.handshake_rejects, 3u);
}

TEST(Handshake, CorruptionMatrixKillsOnlyTheOffendingConnection) {
  Server server(ServerOptions{});
  HelloRequest hello;
  hello.request_id = 3;
  hello.tenant = "acme";
  const std::vector<std::uint8_t> good =
      encode_frame(FrameType::kHello, encode_payload(hello));

  nanocost::testing::CorruptionMatrixOptions opts;  // default strides
  opts.u64_length_offsets = {16};
  nanocost::testing::run_corruption_matrix(
      good,
      [&server](const std::vector<std::uint8_t>& bytes) {
        RawPeer peer(server);
        peer.send(bytes);
        peer.half_close();
        // Rejected here means: the server answered with an error frame
        // (pristine bytes produce only the kHelloAck).
        nanocost::testing::CorruptionVerdict v;
        MemStream parser(peer.slurp());
        while (true) {
          const std::optional<Frame> frame = read_frame(parser);
          if (!frame) break;
          if (frame->type == FrameType::kErrorFrame) {
            v.rejected = true;
            v.diagnostic = decode_error_frame(frame->payload).message;
            EXPECT_NE(v.diagnostic.find("NCWIRE01"), std::string::npos) << v.diagnostic;
          }
        }
        return v;
      },
      opts);

  // The server survived the whole matrix.
  Client client = make_client(server);
  EXPECT_TRUE(client.ping());
  const DrainReport report = server.shutdown();
  EXPECT_GT(report.wire_errors, 0u);
}

TEST(Handshake, CleanEofMidHandshakeClosesQuietly) {
  Server server(ServerOptions{});

  // Zero bytes then EOF: a clean goodbye, not an error.
  {
    RawPeer peer(server);
    peer.half_close();
    EXPECT_TRUE(peer.slurp(500).empty()) << "a silent clean close must produce no frames";
  }

  // EOF mid-hello-frame: truncation, diagnosed by name.
  {
    RawPeer peer(server);
    const std::vector<std::uint8_t> good =
        encode_frame(FrameType::kHello, encode_payload(HelloRequest{}));
    peer.send(std::vector<std::uint8_t>(good.begin(), good.begin() + 12));  // mid-header
    peer.half_close();
    MemStream parser(peer.slurp());
    const std::optional<Frame> frame = read_frame(parser);
    ASSERT_TRUE(frame.has_value());
    ASSERT_EQ(frame->type, FrameType::kErrorFrame);
    EXPECT_NE(decode_error_frame(frame->payload).message.find("truncated"),
              std::string::npos);
  }

  const DrainReport report = server.shutdown();
  EXPECT_EQ(report.handshake_rejects, 0u) << "EOF is not a version rejection";
  EXPECT_EQ(report.wire_errors, 1u);
}

// ---------------------------------------------------------------------------
// Connection lifecycle hardening: idle reap, slow-loris cutoff, eviction.

TEST(Lifecycle, IdleConnectionIsReapedWithDiagnostic) {
  ServerOptions options;
  options.idle_timeout_ms = 80.0;
  Server server(options);

  RawPeer peer(server);  // connects, then says nothing
  MemStream parser(peer.slurp(3000));
  const std::optional<Frame> frame = read_frame(parser);
  ASSERT_TRUE(frame.has_value()) << "the reap must be announced before the close";
  ASSERT_EQ(frame->type, FrameType::kErrorFrame);
  EXPECT_NE(decode_error_frame(frame->payload).message.find("idle deadline"),
            std::string::npos);
  EXPECT_FALSE(read_frame(parser).has_value()) << "the reaped connection must close";

  Client client = make_client(server);
  EXPECT_TRUE(client.ping());
  const DrainReport report = server.shutdown();
  EXPECT_GE(report.connections_reaped, 1u);
}

TEST(Lifecycle, QuietClientOwedResponsesIsNotIdle) {
  // Slow wafers keep the campaign (and the silence) going well past the
  // idle window; the client is owed a response, so it must not be reaped.
  PlanGuard guard;
  robust::FaultPlan plan;
  plan.add("fabsim.wafer",
           robust::FaultSpec{1.0, robust::FaultKind::kLatency, false, 5000});
  robust::install_fault_plan(plan);

  ServerOptions options;
  options.idle_timeout_ms = 50.0;
  Server server(options);
  Client client = make_client(server);

  const Response r = client.wait(client.submit(small_campaign(1, 40)));  // ~200 ms busy
  EXPECT_EQ(r.status, ResponseStatus::kOk) << r.message;

  const DrainReport report = server.shutdown();
  EXPECT_EQ(report.connections_reaped, 0u)
      << "a client quietly waiting on owed work is not idle";
}

TEST(Lifecycle, SlowLorisHitsTheReadDeadlineWithoutDelayingOthers) {
  ServerOptions options;
  options.read_deadline_ms = 400.0;
  Server server(options);

  // The staller opens a frame and never finishes it.
  RawPeer staller(server);
  const std::vector<std::uint8_t> good =
      encode_frame(FrameType::kEq4Request, encode_payload(small_eq4()));
  staller.send(std::vector<std::uint8_t>(good.begin(), good.begin() + 10));

  // A healthy client is served while the stalled frame dangles -- and in
  // far less than the read deadline (the acceptance bound).
  Client healthy = make_client(server);
  const auto t0 = std::chrono::steady_clock::now();
  const Response r = healthy.wait(healthy.submit(small_eq4()));
  const double elapsed_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_EQ(r.status, ResponseStatus::kOk) << r.message;
  EXPECT_LT(elapsed_ms, options.read_deadline_ms)
      << "a stalled peer must not delay another client's response";

  MemStream parser(staller.slurp(3000));
  const std::optional<Frame> frame = read_frame(parser);
  ASSERT_TRUE(frame.has_value());
  ASSERT_EQ(frame->type, FrameType::kErrorFrame);
  EXPECT_NE(decode_error_frame(frame->payload).message.find("read deadline"),
            std::string::npos);
  EXPECT_FALSE(read_frame(parser).has_value());

  const DrainReport report = server.shutdown();
  EXPECT_EQ(report.connections_reaped, 1u);
}

TEST(Lifecycle, OldestIdleConnectionIsEvictedAtTheCap) {
  ServerOptions options;
  options.max_connections = 2;
  Server server(options);

  RawPeer oldest(server);                  // connection 1: never speaks
  Client second = make_client(server);     // connection 2
  EXPECT_TRUE(second.ping());              // fresh activity on 2

  // Connection 3 arrives at the cap: the least-recently-active (1) is
  // evicted deterministically, with a named diagnostic.
  Client third = make_client(server);
  MemStream parser(oldest.slurp(3000));
  const std::optional<Frame> frame = read_frame(parser);
  ASSERT_TRUE(frame.has_value());
  ASSERT_EQ(frame->type, FrameType::kErrorFrame);
  const ErrorFrame e = decode_error_frame(frame->payload);
  EXPECT_NE(e.message.find("evicted"), std::string::npos) << e.message;
  EXPECT_NE(e.message.find("max-connections cap (2)"), std::string::npos) << e.message;
  EXPECT_FALSE(read_frame(parser).has_value()) << "the evicted connection must close";

  // The survivors both still serve.
  EXPECT_TRUE(third.ping());
  EXPECT_TRUE(second.ping());
  const DrainReport report = server.shutdown();
  EXPECT_EQ(report.connections_evicted, 1u);
}

// ---------------------------------------------------------------------------
// Per-tenant admission quotas.

TEST(Tenant, QuotaShedsExcessCampaignsNamingTheTenant) {
  // Slow wafers keep the first campaign in flight while the quota is
  // probed; kLatency never changes result bytes.
  PlanGuard guard;
  robust::FaultPlan plan;
  plan.add("fabsim.wafer",
           robust::FaultSpec{1.0, robust::FaultKind::kLatency, false, 5000});
  robust::install_fault_plan(plan);

  ServerOptions options;
  options.tenant_campaign_quota = 1;
  Server server(options);

  Client acme = make_client(server);
  (void)acme.handshake("acme");
  Client zenith = make_client(server);
  (void)zenith.handshake("zenith");

  const std::uint64_t blocker_id = acme.submit(small_campaign(1, 40));
  const std::uint64_t excess_id = acme.submit(small_campaign(2));
  const Response shed = acme.wait(excess_id);
  EXPECT_EQ(shed.status, ResponseStatus::kShed);
  EXPECT_NE(shed.message.find("tenant quota"), std::string::npos) << shed.message;
  EXPECT_NE(shed.message.find("\"acme\""), std::string::npos)
      << "the shed must name the tenant: " << shed.message;
  EXPECT_NE(shed.message.find("(quota 1)"), std::string::npos) << shed.message;

  // The other tenant is not collateral damage.
  const Response other = zenith.wait(zenith.submit(small_campaign(3)));
  EXPECT_EQ(other.status, ResponseStatus::kOk) << other.message;

  const Response blocker = acme.wait(blocker_id);
  EXPECT_EQ(blocker.status, ResponseStatus::kOk) << blocker.message;

  // Completion released the slot: the same tenant submits again freely.
  const Response after = acme.wait(acme.submit(small_campaign(4)));
  EXPECT_EQ(after.status, ResponseStatus::kOk) << after.message;

  const DrainReport report = server.shutdown();
  EXPECT_EQ(report.tenant_shed, 1u);
}

TEST(Tenant, HandshakeRejectsATenantNameNoMetricCanCarry) {
  // A shed registers serve.tenant_shed{tenant="<tenant>"} for the life
  // of the process, so the tenant must be short and plain: a 5,000-byte
  // name would break every later NCSTAT01 decode, a quote the JSON
  // rendering.
  MetricsGuard metrics;
  PlanGuard guard;
  robust::FaultPlan plan;
  plan.add("fabsim.wafer",
           robust::FaultSpec{1.0, robust::FaultKind::kLatency, false, 5000});
  robust::install_fault_plan(plan);

  ServerOptions options;
  options.tenant_campaign_quota = 1;
  Server server(options);
  for (const std::string& tenant : {std::string(5000, 't'), std::string("a\"b")}) {
    Client client = make_client(server);
    std::string rejection;
    try {
      (void)client.handshake(tenant);
    } catch (const std::runtime_error& e) {
      rejection = e.what();
    }
    EXPECT_NE(rejection.find("handshake rejected"), std::string::npos)
        << "a " << tenant.size() << "-byte tenant was acked";
    EXPECT_NE(rejection.find("[A-Za-z0-9._-]"), std::string::npos) << rejection;
    if (rejection.empty()) {
      // Acked: one quota shed registers the tenant's counter.
      const std::uint64_t blocker = client.submit(small_campaign(1, 40));
      EXPECT_EQ(client.wait(client.submit(small_campaign(2))).status, ResponseStatus::kShed);
      (void)client.wait(blocker);
    }
  }

  Client longest = make_client(server);
  EXPECT_NO_THROW((void)longest.handshake(std::string(kMaxTenantBytes, 'x')));
  Client operator_client = make_client(server);
  (void)operator_client.handshake("operator");
  const StatsReport report = operator_client.stats();
  EXPECT_NO_THROW((void)obs::decode_stats(report.stats));
  EXPECT_EQ(server.shutdown().handshake_rejects, 2u);
}

TEST(Tenant, ShedCountersOfDistinctTenantsRenderAsDistinctSamples) {
  // Tenants may hold '.', '-' and '_', which Prometheus names fold to
  // '_'.  A tenant therefore rides as a label: no tenant may render as
  // another's sample ("a-b", "a.b", "a_b"), as serve_tenant_shed_total
  // ("total"), or share a counter ("" and "anonymous").  This case runs
  // before the bound case below, which uses up the process's
  // kMaxShedTenantCounters tenant counters.
  MetricsGuard metrics;
  PlanGuard guard;
  robust::FaultPlan plan;
  plan.add("fabsim.wafer",
           robust::FaultSpec{1.0, robust::FaultKind::kLatency, false, 5000});
  robust::install_fault_plan(plan);

  ServerOptions options;
  options.tenant_campaign_quota = 1;
  options.drain_budget_ms = 1.0;  // the blocker never finishes: shutdown stops it
  Server server(options);
  const std::vector<std::string> tenants = {"total", "a-b", "a.b", "a_b", "anonymous", ""};
  std::vector<Client> clients;
  for (const std::string& tenant : tenants) {
    Client& client = clients.emplace_back(make_client(server));
    (void)client.handshake(tenant);
    (void)client.submit(small_campaign(1, 100000));
    const Response shed = client.wait(client.submit(small_campaign(2)));
    EXPECT_EQ(shed.status, ResponseStatus::kShed) << shed.message;
  }

  const std::string text = obs::render_metrics_prometheus();
  std::set<std::string> seen;
  std::istringstream lines(text);
  for (std::string line; std::getline(lines, line);) {
    // A # TYPE line whole, a sample without its value.
    const std::string key = line.starts_with("#") ? line : line.substr(0, line.rfind(' '));
    EXPECT_TRUE(seen.insert(key).second) << "repeated: " << line;
  }
  for (const std::string& tenant : tenants) {
    const std::string sample = "\nserve_tenant_shed{tenant=\"" + tenant + "\"} 1\n";
    EXPECT_NE(text.find(sample), std::string::npos) << "no" << sample << "in\n" << text;
  }
  EXPECT_NE(text.find("\nserve_tenant_shed_total 6\n"), std::string::npos) << text;
  clients.clear();
  EXPECT_EQ(server.shutdown().tenant_shed, tenants.size());
}

TEST(Tenant, ShedCountersStopAtTheBoundWhileTheTotalCountsEveryShed) {
  // One shed for each of kMaxShedTenantCounters + 1 tenants: only the
  // first kMaxShedTenantCounters get a counter of their own.
  MetricsGuard metrics;
  PlanGuard guard;
  robust::FaultPlan plan;
  plan.add("fabsim.wafer",
           robust::FaultSpec{1.0, robust::FaultKind::kLatency, false, 5000});
  robust::install_fault_plan(plan);

  ServerOptions options;
  options.tenant_campaign_quota = 1;
  options.drain_budget_ms = 1.0;  // the blocker never finishes: shutdown stops it
  Server server(options);
  const std::size_t tenants = kMaxShedTenantCounters + 1;
  std::vector<Client> clients;
  for (std::size_t i = 0; i < tenants; ++i) {
    Client& client = clients.emplace_back(make_client(server));
    (void)client.handshake("tenant" + std::to_string(i));
    // Every tenant's blocker joins one computation: a coalesced twin
    // holds its tenant's slot like a fresh admit.
    (void)client.submit(small_campaign(1, 100000));
    const Response shed = client.wait(client.submit(small_campaign(2)));
    EXPECT_EQ(shed.status, ResponseStatus::kShed) << shed.message;
  }

  const obs::MetricsSnapshot snap = obs::snapshot_metrics();
  const std::string family = "serve.tenant_shed{";
  const auto named = std::count_if(snap.counters.begin(), snap.counters.end(),
                                   [&](const auto& c) { return c.first.rfind(family, 0) == 0; });
  EXPECT_EQ(static_cast<std::size_t>(named), kMaxShedTenantCounters);
  // Hang up first: nobody would read the stopped blocker's answer.
  clients.clear();
  const DrainReport report = server.shutdown();
  EXPECT_EQ(report.tenant_shed, tenants);
  EXPECT_EQ(snapshot_counter(snap, "serve.tenant_shed_total"), report.tenant_shed);
}

// ---------------------------------------------------------------------------
// A client that does not read cannot wedge the server.

TEST(WriteStall, ClientsThatNeverReadCannotWedgeTheDrain) {
  // kSilent clients submit one 100 000-wafer campaign and never read its
  // answer; one more submits it and reads.  The drain stops the lot, whose
  // answer (every wafer slot, megabytes) fills each silent client's
  // socket: each write stalls for kWriteStallMs and its connection is
  // cut.  The reading client still gets its kStopped answer, and
  // shutdown returns within kSilent stalls plus kSlackMs.
  MetricsGuard metrics;
  PlanGuard guard;
  robust::FaultPlan plan;
  plan.add("fabsim.wafer",
           robust::FaultSpec{1.0, robust::FaultKind::kLatency, false, 5000});
  robust::install_fault_plan(plan);

  ServerOptions options;
  options.drain_budget_ms = 1.0;
  Server server(options);
  constexpr int kSilent = 2;
  // Stopping the lot, encoding its answer and reading it, with room for
  // a sanitizer build.
  constexpr int kSlackMs = 3000;
  std::vector<Client> silent;
  for (int i = 0; i < kSilent; ++i) {
    Client& client = silent.emplace_back(make_client(server));
    (void)client.submit(small_campaign(1, 100000));
    ASSERT_TRUE(client.ping());  // the pong follows the submission's dispatch
  }
  Client reading = make_client(server);
  const std::uint64_t id = reading.submit(small_campaign(1, 100000));
  ASSERT_TRUE(reading.ping());
  std::optional<Response> answer;
  std::string failure;
  std::thread waiter([&] {
    try {
      answer = reading.wait(id);
    } catch (const std::exception& e) {
      failure = e.what();
    }
  });

  const auto t0 = std::chrono::steady_clock::now();
  const DrainReport report = server.shutdown();
  const double drain_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0).count();
  waiter.join();
  EXPECT_LT(drain_ms, kSilent * kWriteStallMs + kSlackMs);
  ASSERT_TRUE(answer.has_value()) << failure;
  EXPECT_EQ(answer->status, ResponseStatus::kStopped) << answer->message;
  EXPECT_GT(answer->result.size(), std::size_t{1} << 20) << "the answer must overfill a socket";
  EXPECT_EQ(report.connections_stalled, static_cast<std::uint64_t>(kSilent));
  EXPECT_EQ(obs::counter_value("serve.stalled_connections"),
            static_cast<std::uint64_t>(kSilent));
}

// ---------------------------------------------------------------------------
// Client wait() treats every late out-of-band frame type uniformly.

TEST(ClientWait, SkipsStaleOutOfBandFramesUniformly) {
  int sv[2] = {-1, -1};
  ASSERT_EQ(0, ::socketpair(AF_UNIX, SOCK_STREAM, 0, sv));
  Client client(sv[1], sv[1]);
  const auto push = [&sv](const std::vector<std::uint8_t>& bytes) {
    std::size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t w = ::write(sv[0], bytes.data() + sent, bytes.size() - sent);
      ASSERT_GT(w, 0);
      sent += static_cast<std::size_t>(w);
    }
  };

  // The leftovers of abandoned exchanges, interleaved ahead of the
  // responses this client actually wants: a stale stats report, a stale
  // pong, a stale hello ack, and an error frame for someone else's
  // request.  All four must be skipped (or dropped) uniformly.
  StatsReport stale_stats;
  stale_stats.request_id = 999;
  stale_stats.stats = obs::encode_stats(obs::MetricsSnapshot{});
  push(encode_frame(FrameType::kStatsResponse, encode_payload(stale_stats)));

  cache::ByteWriter stale_ping;
  stale_ping.u64(999);
  push(encode_frame(FrameType::kPong, stale_ping.take()));

  HelloAck stale_ack;
  stale_ack.request_id = 999;
  push(encode_frame(FrameType::kHelloAck, encode_payload(stale_ack)));

  cache::ByteWriter stale_error;
  stale_error.u64(999);
  stale_error.str("request 999 failed long ago");
  push(encode_frame(FrameType::kErrorFrame, stale_error.take()));

  Response out_of_order;
  out_of_order.request_id = 42;
  out_of_order.message = "forty-two";
  push(encode_frame(FrameType::kResponse, encode_payload(out_of_order)));

  Response wanted;
  wanted.request_id = 7;
  wanted.message = "seven";
  push(encode_frame(FrameType::kResponse, encode_payload(wanted)));
  ::close(sv[0]);

  // wait(7) must read through all four stale frames, park 42, and
  // deliver 7; wait(42) then drains the parking lot without touching
  // the (now EOF) stream.
  const Response got7 = client.wait(7);
  EXPECT_EQ(got7.request_id, 7u);
  EXPECT_EQ(got7.message, "seven");
  const Response got42 = client.wait(42);
  EXPECT_EQ(got42.request_id, 42u);
  EXPECT_EQ(got42.message, "forty-two");
}

// ---------------------------------------------------------------------------
// TCP transport: same protocol, same bytes.

TEST(Tcp, ServedBytesOverTcpMatchDirectCalls) {
  Server server(ServerOptions{});
  const int port = server.listen_tcp("127.0.0.1", 0);  // 0 = kernel-assigned
  ASSERT_GT(port, 0);

  Client client = Client::connect_tcp("127.0.0.1", port);
  const HelloAck ack = client.handshake("tcp-tenant");
  EXPECT_EQ(ack.build_version, kServeVersion);

  const Eq4Job eq4 = small_eq4();
  const RiskJob risk = small_risk(128);
  const Response re = client.wait(client.submit(eq4));
  const Response rr = client.wait(client.submit(risk));
  EXPECT_EQ(re.status, ResponseStatus::kOk) << re.message;
  EXPECT_EQ(rr.status, ResponseStatus::kOk) << rr.message;
  EXPECT_EQ(re.result, direct_eq4_bytes(eq4)) << "eq4 bytes diverge over TCP";
  EXPECT_EQ(rr.result, direct_risk_bytes(risk)) << "risk bytes diverge over TCP";
}

// ---------------------------------------------------------------------------
// ResilientClient: bounded retry/reconnect with exactly-once effect.

TEST(Resilient, EndpointParseGrammar) {
  const Endpoint unix_ep = Endpoint::parse("unix:/tmp/x.sock");
  EXPECT_FALSE(unix_ep.is_tcp());
  EXPECT_EQ(unix_ep.unix_path, "/tmp/x.sock");
  EXPECT_EQ(unix_ep.describe(), "unix:/tmp/x.sock");

  const Endpoint bare = Endpoint::parse("/tmp/y.sock");
  EXPECT_FALSE(bare.is_tcp());
  EXPECT_EQ(bare.unix_path, "/tmp/y.sock");

  const Endpoint tcp_ep = Endpoint::parse("tcp:127.0.0.1:9201");
  EXPECT_TRUE(tcp_ep.is_tcp());
  EXPECT_EQ(tcp_ep.tcp_host, "127.0.0.1");
  EXPECT_EQ(tcp_ep.tcp_port, 9201);
  EXPECT_EQ(tcp_ep.describe(), "tcp:127.0.0.1:9201");

  EXPECT_THROW((void)Endpoint::parse(""), std::invalid_argument);
  EXPECT_THROW((void)Endpoint::parse("unix:"), std::invalid_argument);
  EXPECT_THROW((void)Endpoint::parse("tcp:127.0.0.1"), std::invalid_argument);
  EXPECT_THROW((void)Endpoint::parse("tcp:h:99999"), std::invalid_argument);
  EXPECT_THROW((void)Endpoint::parse("tcp:h:0"), std::invalid_argument);
}

TEST(Resilient, ReconnectsAcrossServerRestartWithZeroRecompute) {
  const TempDir tmp("resilient");
  const std::string sock = tmp.path() + "/serve.sock";
  const std::string artifacts = tmp.path() + "/artifacts";
  std::filesystem::create_directories(artifacts);

  const CampaignJob full = small_campaign(5);  // 8 wafers = 2 chunks
  const std::vector<std::uint8_t> reference = direct_campaign_bytes(full);

  ResilientOptions ro;
  ro.endpoint = Endpoint::parse("unix:" + sock);
  ro.tenant = "acme";
  ro.max_attempts = 6;
  ro.backoff = robust::BackoffPolicy{1.0, 20.0, 2.0, 0.0, 0};  // fast test schedule
  ResilientClient rc(ro);

  ServerOptions so;
  so.artifact_dir = artifacts;
  {
    Server first(so);
    first.listen_unix(sock);
    CampaignJob budgeted = full;
    budgeted.max_chunks = 1;
    const Response r = rc.submit_and_wait(budgeted);
    EXPECT_EQ(r.status, ResponseStatus::kPartial) << r.message;
    EXPECT_EQ(r.frontier_chunks, 1);
  }  // the daemon dies; rc's connection is now a dangling socket

  Server second(so);
  second.listen_unix(sock);
  const Response r = rc.submit_and_wait(full);
  EXPECT_EQ(r.status, ResponseStatus::kOk) << r.message;
  EXPECT_EQ(r.result, reference) << "resumed bytes diverge from the undisturbed run";
  EXPECT_EQ(r.artifact_hits, 1u) << "the committed chunk was recomputed (or lost)";
  EXPECT_DOUBLE_EQ(r.completeness, 1.0);
  EXPECT_GE(rc.reconnects(), 1u) << "the restart must have forced a reconnect";
  EXPECT_GE(rc.retries(), 1u);
}

TEST(Resilient, ExhaustsAttemptsAgainstPersistentConnectFaultsThenRecovers) {
  PlanGuard guard;
  const TempDir tmp("connect_faults");
  const std::string sock = tmp.path() + "/serve.sock";
  Server server(ServerOptions{});
  server.listen_unix(sock);

  robust::FaultPlan plan;
  plan.add("serve.connect", robust::FaultSpec{1.0, robust::FaultKind::kThrow, false, 0});
  robust::install_fault_plan(plan);

  ResilientOptions ro;
  ro.endpoint = Endpoint::parse(sock);  // bare-path spelling
  ro.max_attempts = 3;
  ro.backoff = robust::BackoffPolicy{0.5, 2.0, 2.0, 0.0, 0};
  ResilientClient rc(ro);

  try {
    (void)rc.submit_and_wait(small_eq4());
    FAIL() << "every connect was faulted; the client cannot have succeeded";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("gave up after 3 attempt(s)"), std::string::npos) << what;
    EXPECT_NE(what.find("cannot connect"), std::string::npos)
        << "the last failure must be named: " << what;
  }
  EXPECT_EQ(rc.retries(), 2u);

  // The fault clears; the same client recovers on a fresh operation.
  robust::clear_fault_plan();
  const Response r = rc.submit_and_wait(small_eq4());
  EXPECT_EQ(r.status, ResponseStatus::kOk) << r.message;
  EXPECT_EQ(r.result, direct_eq4_bytes(small_eq4()));
}

TEST(Resilient, RetriesThroughInjectedResetsOnceThePlanClears) {
  PlanGuard guard;
  Server server(ServerOptions{});
  const TempDir tmp("resets");
  const std::string sock = tmp.path() + "/serve.sock";
  server.listen_unix(sock);

  // Every transport write resets (client and server side alike): no
  // attempt can finish while the plan stands.
  robust::FaultPlan plan;
  plan.add("serve.reset", robust::FaultSpec{1.0, robust::FaultKind::kThrow, false, 0});
  robust::install_fault_plan(plan);

  ResilientOptions ro;
  ro.endpoint = Endpoint::parse("unix:" + sock);
  ro.max_attempts = 2;
  ro.backoff = robust::BackoffPolicy{0.5, 2.0, 2.0, 0.0, 0};
  ResilientClient rc(ro);
  try {
    (void)rc.submit_and_wait(small_eq4());
    FAIL() << "every write was reset; the client cannot have succeeded";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("gave up after 2 attempt(s)"), std::string::npos) << what;
    EXPECT_NE(what.find("connection reset"), std::string::npos) << what;
  }

  robust::clear_fault_plan();
  const Response r = rc.submit_and_wait(small_eq4());
  EXPECT_EQ(r.status, ResponseStatus::kOk) << r.message;
  EXPECT_EQ(r.result, direct_eq4_bytes(small_eq4()));
}

TEST(Resilient, AttemptDeadlineCutsOffAStalledServer) {
  PlanGuard guard;
  Server server(ServerOptions{});
  const TempDir tmp("stall");
  const std::string sock = tmp.path() + "/serve.sock";
  server.listen_unix(sock);

  // Every write stalls 300 ms; the client's 80 ms per-attempt deadline
  // must cut each attempt off instead of waiting out the stall.
  robust::FaultPlan plan;
  plan.add("serve.stall",
           robust::FaultSpec{1.0, robust::FaultKind::kLatency, false, 300000});
  robust::install_fault_plan(plan);

  ResilientOptions ro;
  ro.endpoint = Endpoint::parse("unix:" + sock);
  ro.max_attempts = 2;
  ro.attempt_timeout_ms = 80.0;
  ro.backoff = robust::BackoffPolicy{0.5, 2.0, 2.0, 0.0, 0};
  ResilientClient rc(ro);
  try {
    (void)rc.submit_and_wait(small_eq4());
    FAIL() << "every exchange stalled; the client cannot have succeeded";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("gave up after 2 attempt(s)"), std::string::npos) << what;
    EXPECT_NE(what.find("timed out"), std::string::npos)
        << "the last failure must be the armed deadline: " << what;
  }

  robust::clear_fault_plan();
  const Response r = rc.submit_and_wait(small_eq4());
  EXPECT_EQ(r.status, ResponseStatus::kOk) << r.message;
  EXPECT_EQ(r.result, direct_eq4_bytes(small_eq4()));
}

TEST(Resilient, LastFailureNamesTheStatusOnce) {
  // A shed message already starts with "shed:"; the client that gives
  // up must quote it without naming the status a second time.  5 ms
  // wafers on two lanes keep the 40-wafer blocker running ~100 ms.
  PlanGuard guard;
  robust::FaultPlan plan;
  plan.add("fabsim.wafer",
           robust::FaultSpec{1.0, robust::FaultKind::kLatency, false, 5000});
  robust::install_fault_plan(plan);

  exec::ThreadPool pool(2);
  const TempDir tmp("status_once");
  const std::string sock = tmp.path() + "/serve.sock";
  ServerOptions options;
  options.pool = &pool;
  options.campaign_capacity = 1;
  Server server(options);
  server.listen_unix(sock);
  Client client = make_client(server);
  const std::uint64_t blocker_id = client.submit(small_campaign(1, 40));
  ASSERT_TRUE(client.ping());  // the blocker holds the one slot

  ResilientOptions ro;
  ro.endpoint = Endpoint::parse("unix:" + sock);
  ro.max_attempts = 1;
  ResilientClient rc(ro);
  try {
    (void)rc.submit_and_wait(small_campaign(2));
    FAIL() << "the one campaign slot was taken; the lot must have been shed";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("last failure: shed: queue at capacity (1)"), std::string::npos)
        << what;
    EXPECT_EQ(what.find("shed: shed:"), std::string::npos) << what;
  }
  EXPECT_EQ(client.wait(blocker_id).status, ResponseStatus::kOk);
}

}  // namespace
}  // namespace nanocost::serve
