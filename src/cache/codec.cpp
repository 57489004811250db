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

std::vector<std::uint8_t> encode(const std::vector<regularity::WindowSweepPoint>& r) {
  ByteWriter w;
  w.u64(r.size());
  for (const regularity::WindowSweepPoint& p : r) {
    w.i64(p.window);
    w.i64(p.total_windows);
    w.i64(p.unique_patterns);
    w.f64(p.regularity_index);
  }
  return w.take();
}

std::vector<regularity::WindowSweepPoint> decode_window_sweep_points(
    const std::vector<std::uint8_t>& blob) {
  ByteReader r(blob);
  std::vector<regularity::WindowSweepPoint> out(r.count(32));
  for (regularity::WindowSweepPoint& p : out) {
    p.window = r.i64();
    p.total_windows = r.i64();
    p.unique_patterns = r.i64();
    p.regularity_index = r.f64();
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

std::vector<std::uint8_t> encode(const place::MultistartResult& r) {
  ByteWriter w;
  const place::Placement& p = r.best.placement;
  w.i32(p.rows());
  w.i32(p.cols());
  w.i32(p.gate_count());
  for (std::int32_t g = 0; g < p.gate_count(); ++g) w.i32(p.site_of(g));
  w.f64(r.best.initial_hpwl);
  w.f64(r.best.final_hpwl);
  w.i64(r.best.moves_tried);
  w.i64(r.best.moves_accepted);
  w.i32(r.best_start);
  w.i32(r.starts);
  w.u64(r.start_hpwls.size());
  for (const double h : r.start_hpwls) w.f64(h);
  return w.take();
}

place::MultistartResult decode_multistart_result(const std::vector<std::uint8_t>& blob) {
  ByteReader r(blob);
  const std::int32_t rows = r.i32();
  const std::int32_t cols = r.i32();
  const std::int32_t gates = r.i32();
  place::Placement placement(rows, cols, gates);
  for (std::int32_t g = 0; g < gates; ++g) placement.assign(g, r.i32());
  place::MultistartResult out{place::PlaceResult{std::move(placement), 0.0, 0.0, 0, 0}, 0, 0,
                              {}};
  out.best.initial_hpwl = r.f64();
  out.best.final_hpwl = r.f64();
  out.best.moves_tried = r.i64();
  out.best.moves_accepted = r.i64();
  out.best_start = r.i32();
  out.starts = r.i32();
  out.start_hpwls.resize(r.count(8));
  for (double& h : out.start_hpwls) h = r.f64();
  r.expect_end();
  return out;
}

}  // namespace nanocost::cache
