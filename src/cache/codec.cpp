#include "nanocost/cache/codec.hpp"

namespace nanocost::cache {

namespace {

void put_breakdown(ByteWriter& w, const core::Eq4Breakdown& b) {
  w.f64(b.manufacturing.value());
  w.f64(b.design.value());
  w.f64(b.total.value());
  w.f64(b.cd_sq.value());
  w.f64(b.design_nre.value());
  w.f64(b.per_die.value());
}

core::Eq4Breakdown get_breakdown(ByteReader& r) {
  core::Eq4Breakdown b;
  b.manufacturing = units::Money{r.f64()};
  b.design = units::Money{r.f64()};
  b.total = units::Money{r.f64()};
  b.cd_sq = units::CostPerArea{r.f64()};
  b.design_nre = units::Money{r.f64()};
  b.per_die = units::Money{r.f64()};
  return b;
}

}  // namespace

std::vector<std::uint8_t> encode(const core::RiskResult& r) {
  ByteWriter w;
  w.f64(r.mean);
  w.f64(r.stddev);
  w.f64(r.p10);
  w.f64(r.p50);
  w.f64(r.p90);
  w.f64(r.prob_over_budget);
  return w.take();
}

core::RiskResult decode_risk_result(const std::vector<std::uint8_t>& blob) {
  ByteReader r(blob);
  core::RiskResult out;
  out.mean = r.f64();
  out.stddev = r.f64();
  out.p10 = r.f64();
  out.p50 = r.f64();
  out.p90 = r.f64();
  out.prob_over_budget = r.f64();
  r.expect_end();
  return out;
}

std::vector<std::uint8_t> encode(const core::RobustOptimum& r) {
  ByteWriter w;
  w.f64(r.s_d);
  w.f64(r.quantile_cost);
  return w.take();
}

core::RobustOptimum decode_robust_optimum(const std::vector<std::uint8_t>& blob) {
  ByteReader r(blob);
  core::RobustOptimum out;
  out.s_d = r.f64();
  out.quantile_cost = r.f64();
  r.expect_end();
  return out;
}

std::vector<std::uint8_t> encode(const std::vector<core::SweepPoint>& r) {
  ByteWriter w;
  w.u64(r.size());
  for (const core::SweepPoint& p : r) {
    w.f64(p.s_d);
    put_breakdown(w, p.breakdown);
  }
  return w.take();
}

std::vector<core::SweepPoint> decode_sweep_points(const std::vector<std::uint8_t>& blob) {
  ByteReader r(blob);
  std::vector<core::SweepPoint> out(r.count(56));
  for (core::SweepPoint& p : out) {
    p.s_d = r.f64();
    p.breakdown = get_breakdown(r);
  }
  r.expect_end();
  return out;
}

std::vector<std::uint8_t> encode(const fabsim::LotResult& r) {
  ByteWriter w;
  w.u64(r.wafers.size());
  for (const fabsim::WaferResult& wafer : r.wafers) {
    w.i64(wafer.gross_dies);
    w.i64(wafer.good_dies);
    w.i64(wafer.defects);
    w.i64(wafer.defects_on_dies);
  }
  w.i64(r.total_dies);
  w.i64(r.good_dies);
  w.u64(r.fault_histogram.size());
  for (const std::int64_t count : r.fault_histogram) w.i64(count);
  return w.take();
}

fabsim::LotResult decode_lot_result(const std::vector<std::uint8_t>& blob) {
  ByteReader r(blob);
  fabsim::LotResult out;
  out.wafers.resize(r.count(32));
  for (fabsim::WaferResult& wafer : out.wafers) {
    wafer.gross_dies = r.i64();
    wafer.good_dies = r.i64();
    wafer.defects = r.i64();
    wafer.defects_on_dies = r.i64();
  }
  out.total_dies = r.i64();
  out.good_dies = r.i64();
  out.fault_histogram.resize(r.count(8));
  for (std::int64_t& count : out.fault_histogram) count = r.i64();
  r.expect_end();
  return out;
}

}  // namespace nanocost::cache
