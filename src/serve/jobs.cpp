#include "nanocost/serve/jobs.hpp"

#include <string>
#include <utility>

#include "nanocost/cache/cached.hpp"
#include "nanocost/cache/codec.hpp"
#include "nanocost/cache/key.hpp"
#include "nanocost/robust/cancel.hpp"

namespace nanocost::serve {

namespace {

using cache::ByteReader;
using cache::ByteWriter;

// Job payloads flatten the unit wrappers to their double values; the
// strong types are re-entered (and re-validated: Probability throws on
// a corrupt yield) at decode.

void put_eq4_inputs(ByteWriter& w, const core::Eq4Inputs& in) {
  w.f64(in.lambda.value());
  w.f64(in.yield.value());
  w.f64(in.manufacturing_cost.value());
  w.f64(in.transistors_per_chip);
  w.f64(in.n_wafers);
  w.f64(in.wafer_area.value());
  w.f64(in.mask_cost.value());
  const cost::DesignCostParams& p = in.design_model.params();
  w.f64(p.a0);
  w.f64(p.p1);
  w.f64(p.p2);
  w.f64(p.s_d0);
  w.f64(in.utilization.value());
}

core::Eq4Inputs get_eq4_inputs(ByteReader& r) {
  core::Eq4Inputs in;
  in.lambda = units::Micrometers{r.f64()};
  in.yield = units::Probability{r.f64()};
  in.manufacturing_cost = units::CostPerArea{r.f64()};
  in.transistors_per_chip = r.f64();
  in.n_wafers = r.f64();
  in.wafer_area = units::SquareCentimeters{r.f64()};
  in.mask_cost = units::Money{r.f64()};
  cost::DesignCostParams p;
  p.a0 = r.f64();
  p.p1 = r.f64();
  p.p2 = r.f64();
  p.s_d0 = r.f64();
  in.design_model = cost::DesignCostModel{p};
  in.utilization = units::Probability{r.f64()};
  return in;
}

void put_uncertain_inputs(ByteWriter& w, const core::UncertainInputs& in) {
  put_eq4_inputs(w, in.nominal);
  w.f64(in.yield_sigma);
  w.f64(in.cm_sq_sigma_rel);
  w.f64(in.design_cost_sigma_rel);
  w.f64(in.volume_sigma_rel);
}

core::UncertainInputs get_uncertain_inputs(ByteReader& r) {
  core::UncertainInputs in;
  in.nominal = get_eq4_inputs(r);
  in.yield_sigma = r.f64();
  in.cm_sq_sigma_rel = r.f64();
  in.design_cost_sigma_rel = r.f64();
  in.volume_sigma_rel = r.f64();
  return in;
}

}  // namespace

fabsim::FabConfig simulator_config(const CampaignJob& job) {
  return fabsim::FabConfig{
      geometry::WaferSpec(units::Millimeters{job.wafer_diameter_mm},
                          units::Millimeters{job.wafer_edge_exclusion_mm},
                          units::Millimeters{job.wafer_scribe_mm}),
      geometry::DieSize(units::Millimeters{job.die_width_mm},
                        units::Millimeters{job.die_height_mm}),
      defect::DefectSizeDistribution(units::Micrometers{job.size_xmin_um},
                                     units::Micrometers{job.size_peak_um},
                                     units::Micrometers{job.size_xmax_um}, job.size_q),
      defect::DefectFieldParams{
          job.defect_density_per_cm2, job.cluster_alpha, job.clustered,
          defect::RadialProfile(job.radial_edge_boost, job.radial_sharpness)},
      defect::WireArray(units::Micrometers{job.wire_width_um},
                        units::Micrometers{job.wire_spacing_um},
                        units::Micrometers{job.wire_length_um}, job.wire_count)};
}

fabsim::FabSimulator make_simulator(const CampaignJob& job) {
  return fabsim::FabSimulator(simulator_config(job));
}

const char* response_status_name(ResponseStatus s) noexcept {
  switch (s) {
    case ResponseStatus::kOk:
      return "ok";
    case ResponseStatus::kPartial:
      return "partial";
    case ResponseStatus::kShed:
      return "shed";
    case ResponseStatus::kExpired:
      return "expired";
    case ResponseStatus::kStopped:
      return "stopped";
    case ResponseStatus::kError:
      return "error";
  }
  return "unknown";
}

// ---- Payload codecs -----------------------------------------------------

std::vector<std::uint8_t> encode_payload(const Eq4Job& job) {
  ByteWriter w;
  w.u64(job.request_id);
  put_eq4_inputs(w, job.inputs);
  w.f64(job.lo);
  w.f64(job.hi);
  w.i32(job.steps);
  return w.take();
}

Eq4Job decode_eq4_job(const std::vector<std::uint8_t>& payload) {
  ByteReader r(payload);
  Eq4Job job;
  job.request_id = r.u64();
  job.inputs = get_eq4_inputs(r);
  job.lo = r.f64();
  job.hi = r.f64();
  job.steps = r.i32("eq4 steps");
  r.expect_end();
  return job;
}

std::vector<std::uint8_t> encode_payload(const RiskJob& job) {
  ByteWriter w;
  w.u64(job.request_id);
  put_uncertain_inputs(w, job.inputs);
  w.f64(job.s_d);
  w.i32(job.samples);
  w.u64(job.seed);
  w.f64(job.die_budget);
  return w.take();
}

RiskJob decode_risk_job(const std::vector<std::uint8_t>& payload) {
  ByteReader r(payload);
  RiskJob job;
  job.request_id = r.u64();
  job.inputs = get_uncertain_inputs(r);
  job.s_d = r.f64();
  job.samples = r.i32("risk samples");
  job.seed = r.u64();
  job.die_budget = r.f64();
  r.expect_end();
  return job;
}

std::vector<std::uint8_t> encode_payload(const CampaignJob& job) {
  ByteWriter w;
  w.u64(job.request_id);
  w.f64(job.wafer_diameter_mm);
  w.f64(job.wafer_edge_exclusion_mm);
  w.f64(job.wafer_scribe_mm);
  w.f64(job.die_width_mm);
  w.f64(job.die_height_mm);
  w.f64(job.size_xmin_um);
  w.f64(job.size_peak_um);
  w.f64(job.size_xmax_um);
  w.f64(job.size_q);
  w.f64(job.defect_density_per_cm2);
  w.f64(job.cluster_alpha);
  w.flag(job.clustered);
  w.f64(job.radial_edge_boost);
  w.f64(job.radial_sharpness);
  w.f64(job.wire_width_um);
  w.f64(job.wire_spacing_um);
  w.f64(job.wire_length_um);
  w.i32(job.wire_count);
  w.i64(job.n_wafers);
  w.u64(job.seed);
  w.i64(job.max_chunks);
  return w.take();
}

CampaignJob decode_campaign_job(const std::vector<std::uint8_t>& payload) {
  ByteReader r(payload);
  CampaignJob job;
  job.request_id = r.u64();
  job.wafer_diameter_mm = r.f64();
  job.wafer_edge_exclusion_mm = r.f64();
  job.wafer_scribe_mm = r.f64();
  job.die_width_mm = r.f64();
  job.die_height_mm = r.f64();
  job.size_xmin_um = r.f64();
  job.size_peak_um = r.f64();
  job.size_xmax_um = r.f64();
  job.size_q = r.f64();
  job.defect_density_per_cm2 = r.f64();
  job.cluster_alpha = r.f64();
  job.clustered = r.flag("campaign clustered flag");
  job.radial_edge_boost = r.f64();
  job.radial_sharpness = r.f64();
  job.wire_width_um = r.f64();
  job.wire_spacing_um = r.f64();
  job.wire_length_um = r.f64();
  job.wire_count = r.i32("campaign wire count");
  job.n_wafers = r.i64();
  job.seed = r.u64();
  job.max_chunks = r.i64();
  r.expect_end();
  return job;
}

std::vector<std::uint8_t> encode_payload(const Response& response) {
  ByteWriter w;
  w.u64(response.request_id);
  w.u8(static_cast<std::uint8_t>(response.status));
  w.str(response.message);
  w.bytes(response.result);
  w.f64(response.completeness);
  w.i64(response.frontier_chunks);
  w.u64(response.artifact_hits);
  w.flag(response.coalesced);
  return w.take();
}

Response decode_response(const std::vector<std::uint8_t>& payload) {
  ByteReader r(payload);
  Response response;
  response.request_id = r.u64();
  const std::uint8_t status = r.u8();
  if (status > static_cast<std::uint8_t>(ResponseStatus::kError)) {
    throw std::runtime_error("serve response declares unknown status code " +
                             std::to_string(status));
  }
  response.status = static_cast<ResponseStatus>(status);
  response.message = r.str();
  response.result = r.bytes();
  response.completeness = r.f64();
  response.frontier_chunks = r.i64();
  response.artifact_hits = r.u64();
  response.coalesced = r.flag("response coalesced flag");
  r.expect_end();
  return response;
}

std::vector<std::uint8_t> encode_payload(const StatsReport& report) {
  ByteWriter w;
  w.u64(report.request_id);
  w.str(report.server_version);
  w.str(report.simd_level);
  w.u64(report.hardware_concurrency);
  w.u64(report.pid);
  w.u64(report.uptime_ms);
  w.bytes(report.stats);
  return w.take();
}

StatsReport decode_stats_report(const std::vector<std::uint8_t>& payload) {
  ByteReader r(payload);
  StatsReport report;
  report.request_id = r.u64();
  report.server_version = r.str();
  report.simd_level = r.str();
  report.hardware_concurrency = r.u64_as_u32("hardware concurrency");
  report.pid = r.u64();
  report.uptime_ms = r.u64();
  report.stats = r.bytes();
  r.expect_end();
  return report;
}

std::vector<std::uint8_t> encode_payload(const HelloRequest& hello) {
  ByteWriter w;
  w.u64(hello.request_id);
  w.u64(hello.protocol_version);
  w.str(hello.build_version);
  w.str(hello.tenant);
  w.u64(hello.attempt);
  return w.take();
}

HelloRequest decode_hello(const std::vector<std::uint8_t>& payload) {
  ByteReader r(payload);
  HelloRequest hello;
  hello.request_id = r.u64();
  hello.protocol_version = r.u64_as_u32("protocol version");
  hello.build_version = r.str();
  hello.tenant = r.str();
  hello.attempt = r.u64_as_u32("attempt");
  r.expect_end();
  return hello;
}

std::vector<std::uint8_t> encode_payload(const HelloAck& ack) {
  ByteWriter w;
  w.u64(ack.request_id);
  w.u64(ack.protocol_version);
  w.str(ack.build_version);
  return w.take();
}

HelloAck decode_hello_ack(const std::vector<std::uint8_t>& payload) {
  ByteReader r(payload);
  HelloAck ack;
  ack.request_id = r.u64();
  ack.protocol_version = r.u64_as_u32("protocol version");
  ack.build_version = r.str();
  r.expect_end();
  return ack;
}

std::uint64_t peek_request_id(const std::vector<std::uint8_t>& payload) noexcept {
  return payload.size() < 8 ? 0 : ByteReader(payload).u64();
}

// ---- Coalescing keys ----------------------------------------------------

cache::Digest128 job_key(const Eq4Job& job) {
  return cache::sweep_eq4_key(job.inputs, job.lo, job.hi, job.steps);
}

cache::Digest128 job_key(const RiskJob& job) {
  return cache::monte_carlo_cost_key(job.inputs, job.s_d, job.samples, job.seed,
                                     job.die_budget);
}

cache::Digest128 job_key(const CampaignJob& job) {
  // The run key addresses the computation; max_chunks shapes how much
  // of it this submission performs, so it must split coalescing groups.
  return cache::KeyBuilder("serve.campaign")
      .sub("run", cache::fabsim_run_key(simulator_config(job), job.n_wafers, job.seed))
      .i64("max_chunks", job.max_chunks)
      .digest();
}

// ---- Execution ----------------------------------------------------------

Response execute(const Eq4Job& job, exec::ThreadPool* pool) {
  Response r;
  r.request_id = job.request_id;
  const std::vector<core::SweepPoint> points =
      cache::sweep_eq4_cached(job.inputs, job.lo, job.hi, job.steps, pool);
  r.result = cache::encode(points);
  r.frontier_chunks = job.steps;
  return r;
}

Response execute(const RiskJob& job, double budget_ms, exec::ThreadPool* pool) {
  Response r;
  r.request_id = job.request_id;
  // No budget: the invalid token, which never trips.
  const core::PartialRisk p = core::monte_carlo_cost_partial(
      job.inputs, job.s_d, job.samples, job.seed, job.die_budget, pool,
      budget_ms > 0.0 ? robust::CancelToken::with_deadline(budget_ms) : robust::CancelToken{});
  r.result = cache::encode(p.result);
  r.completeness = p.completeness;
  r.frontier_chunks = p.frontier_chunks;
  if (p.cancelled) {
    r.status = ResponseStatus::kPartial;
    r.message = "partial: the request budget truncated the run at chunk frontier " +
                std::to_string(p.frontier_chunks) + "; resubmit to refine";
  }
  return r;
}

}  // namespace nanocost::serve
