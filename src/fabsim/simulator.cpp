#include "nanocost/fabsim/simulator.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <optional>
#include <stdexcept>

#include "nanocost/exec/parallel.hpp"
#include "nanocost/exec/rng_batch.hpp"
#include "nanocost/exec/seed.hpp"
#include "nanocost/obs/metrics.hpp"
#include "nanocost/obs/trace.hpp"
#include "nanocost/robust/fault_injection.hpp"

#if (defined(__x86_64__) || defined(__i386__)) && (defined(__GNUC__) || defined(__clang__))
#define NANOCOST_X86_SIMD 1
#include <immintrin.h>
#endif

namespace nanocost::fabsim {

namespace {

/// Injection site evaluated once per simulated wafer; the unit index is
/// the (lot- or ramp-global) wafer index.
constexpr robust::FaultSite kWaferFaultSite{"fabsim.wafer"};

/// Wafers per parallel chunk.  The chunk grid is a function of the lot
/// size only, never of the thread count.
constexpr std::int64_t kWaferGrain = 4;

}  // namespace

DieKillModel::DieKillModel(defect::WireArray array, units::SquareCentimeters die_area)
    : array_(std::move(array)), die_area_(die_area) {
  units::require_positive(die_area_, "die area");
}

double DieKillModel::kill_probability(units::Micrometers size) const {
  const double ca = array_.short_critical_area(size).value() +
                    array_.open_critical_area(size).value();
  const double ratio = ca / array_.footprint().value();
  return std::min(ratio, 1.0);
}

namespace {

/// Composite Simpson over [a, b], n even subintervals.
template <typename Fn>
double simpson(Fn&& f, double a, double b, int n) {
  const double h = (b - a) / n;
  double sum = f(a) + f(b);
  for (int i = 1; i < n; ++i) {
    sum += f(a + i * h) * (i % 2 == 1 ? 4.0 : 2.0);
  }
  return sum * h / 3.0;
}

}  // namespace

double DieKillModel::mean_faults_per_die(double defect_density_per_cm2,
                                         const defect::DefectSizeDistribution& sizes) const {
  units::require_non_negative(defect_density_per_cm2, "defect density");
  // E[kill probability] over the size distribution, integrating the
  // *same* capped per-size probability the simulation samples (the
  // uncapped sum of short+open averages would over-count huge defects
  // that saturate both mechanisms at once).
  const auto integrand = [&](double x) {
    return kill_probability(units::Micrometers{x}) * sizes.pdf(units::Micrometers{x});
  };
  const double a = sizes.xmin().value();
  const double x0 = sizes.peak().value();
  const double b = sizes.xmax().value();
  const double below = simpson(integrand, a, x0, 512);
  const auto log_integrand = [&](double t) {
    const double x = std::exp(t);
    return integrand(x) * x;
  };
  const double above = simpson(log_integrand, std::log(x0), std::log(b), 2048);
  const double expected_kill = below + above;
  return defect_density_per_cm2 * die_area_.value() * expected_kill;
}

KillProbabilityLut::KillProbabilityLut(const DieKillModel& model, units::Micrometers xmin,
                                       units::Micrometers xmax, int bins)
    : model_(model) {
  if (!(xmin.value() > 0.0 && xmin.value() < xmax.value())) {
    throw std::invalid_argument("kill LUT needs 0 < xmin < xmax");
  }
  if (bins < 8) {
    throw std::invalid_argument("kill LUT needs at least 8 bins");
  }
  const double log_xmin = std::log(xmin.value());
  const double dlog = (std::log(xmax.value()) - log_xmin) / bins;

  node_x_.resize(static_cast<std::size_t>(bins) + 1);
  node_p_.resize(node_x_.size());
  for (int i = 0; i <= bins; ++i) {
    // Pin the endpoints so range checks against node_x_ are exact.
    const double x = i == 0      ? xmin.value()
                     : i == bins ? xmax.value()
                                 : std::exp(log_xmin + i * dlog);
    node_x_[static_cast<std::size_t>(i)] = x;
    node_p_[static_cast<std::size_t>(i)] = model_.kill_probability(units::Micrometers{x});
  }

  slope_.resize(static_cast<std::size_t>(bins));
  interp_ok_.resize(static_cast<std::size_t>(bins));
  for (int i = 0; i < bins; ++i) {
    const double a = node_x_[static_cast<std::size_t>(i)];
    const double b = node_x_[static_cast<std::size_t>(i) + 1];
    const double pa = node_p_[static_cast<std::size_t>(i)];
    const double pb = node_p_[static_cast<std::size_t>(i) + 1];
    const double slope = (pb - pa) / (b - a);
    slope_[static_cast<std::size_t>(i)] = slope;
    // The kill probability is piecewise linear in size; a bin whose
    // chord matches the model at three interior points contains no
    // breakpoint and interpolates exactly.  Bins straddling a kink keep
    // direct evaluation.
    bool linear = true;
    for (const double t : {0.25, 0.5, 0.75}) {
      const double x = a + t * (b - a);
      const double direct = model_.kill_probability(units::Micrometers{x});
      const double interp = pa + slope * (x - a);
      if (std::abs(direct - interp) > 1e-12 + 1e-9 * std::abs(direct)) {
        linear = false;
        break;
      }
    }
    interp_ok_[static_cast<std::size_t>(i)] = linear ? 1 : 0;
  }

  // Bin-location hint table.  The IEEE bit pattern of a positive finite
  // double is monotone in its value, so the top bits of
  // bits(x) - bits(xmin) index a uniform grid over the support in
  // "exponent+mantissa" space -- log-like resolution without a log.
  // Each cell stores the last bin starting at or below the cell's lower
  // edge; a lookup then only ever nudges upward, typically 0-1 steps.
  bits_min_ = std::bit_cast<std::int64_t>(node_x_.front());
  const auto bits_max = std::bit_cast<std::int64_t>(node_x_.back());
  const std::int64_t span = bits_max - bits_min_;
  hint_shift_ = 0;
  while ((span >> hint_shift_) >= 8191) ++hint_shift_;
  const auto cells = static_cast<std::size_t>(span >> hint_shift_) + 1;
  hint_.resize(cells);
  const auto last = static_cast<std::int64_t>(slope_.size()) - 1;
  for (std::size_t k = 0; k < cells; ++k) {
    const double cell_lo = std::bit_cast<double>(
        bits_min_ + (static_cast<std::int64_t>(k) << hint_shift_));
    const auto it = std::upper_bound(node_x_.begin(), node_x_.end(), cell_lo);
    const auto bin = std::clamp(static_cast<std::int64_t>(it - node_x_.begin()) - 1,
                                std::int64_t{0}, last);
    hint_[k] = static_cast<std::int32_t>(bin);
  }
}

double KillProbabilityLut::evaluate(double x) const noexcept {
  if (!(x >= node_x_.front() && x <= node_x_.back())) {
    return model_.kill_probability(units::Micrometers{x});
  }
  const std::int64_t cell = (std::bit_cast<std::int64_t>(x) - bits_min_) >> hint_shift_;
  const auto last = static_cast<std::int64_t>(slope_.size()) - 1;
  std::int64_t i = hint_[static_cast<std::size_t>(cell)];
  // The hint is at or below the bracketing bin; nudge upward only.
  while (i < last && x > node_x_[static_cast<std::size_t>(i) + 1]) ++i;
  if (!interp_ok_[static_cast<std::size_t>(i)]) {
    return model_.kill_probability(units::Micrometers{x});
  }
  return node_p_[static_cast<std::size_t>(i)] +
         slope_[static_cast<std::size_t>(i)] * (x - node_x_[static_cast<std::size_t>(i)]);
}

double KillProbabilityLut::operator()(units::Micrometers size) const noexcept {
  return evaluate(size.value());
}

#if defined(NANOCOST_X86_SIMD)

namespace {

/// Raw pointers into the LUT columns for the vector lane (the lane is a
/// free function so it can carry a target attribute).
struct LutView final {
  const double* node_x;
  const double* node_p;
  const double* slope;
  const std::uint8_t* interp_ok;
  const std::int32_t* hint;
  std::int64_t bits_min;
  int shift;
  std::int64_t last;
  double front;
  double back;
};

/// 4-wide LUT lookup.  Every arithmetic step mirrors evaluate():
/// identical bit-key, identical upward nudge, identical interpolation
/// parse (mul then add; intrinsics never fuse).  Quads with an
/// out-of-support (or NaN) lane, and lanes landing in a non-linear bin,
/// fall back to the scalar path, so those return the same values too.
__attribute__((target("avx2"))) void lut_evaluate_avx2(const KillProbabilityLut& lut,
                                                       const LutView& v, const double* x,
                                                       double* out, std::size_t n) {
  const __m256d front = _mm256_set1_pd(v.front);
  const __m256d back = _mm256_set1_pd(v.back);
  const __m256i bits_min = _mm256_set1_epi64x(v.bits_min);
  const __m256i last = _mm256_set1_epi64x(v.last);
  const __m256i one = _mm256_set1_epi64x(1);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d xs = _mm256_loadu_pd(x + i);
    const __m256d in = _mm256_and_pd(_mm256_cmp_pd(xs, front, _CMP_GE_OQ),
                                     _mm256_cmp_pd(xs, back, _CMP_LE_OQ));
    if (_mm256_movemask_pd(in) != 0xF) {
      for (std::size_t j = i; j < i + 4; ++j) out[j] = lut(units::Micrometers{x[j]});
      continue;
    }
    const __m256i cell =
        _mm256_srli_epi64(_mm256_sub_epi64(_mm256_castpd_si256(xs), bits_min), v.shift);
    __m256i bin = _mm256_cvtepi32_epi64(_mm256_i64gather_epi32(v.hint, cell, 4));
    for (;;) {
      const __m256i bin1 = _mm256_add_epi64(bin, one);
      const __m256d next = _mm256_i64gather_pd(v.node_x, bin1, 8);
      const __m256i need =
          _mm256_and_si256(_mm256_castpd_si256(_mm256_cmp_pd(xs, next, _CMP_GT_OQ)),
                           _mm256_cmpgt_epi64(last, bin));
      if (_mm256_testz_si256(need, need)) break;
      bin = _mm256_sub_epi64(bin, need);  // need lanes are -1: subtracting adds 1
    }
    const __m256d px = _mm256_i64gather_pd(v.node_x, bin, 8);
    const __m256d pp = _mm256_i64gather_pd(v.node_p, bin, 8);
    const __m256d ps = _mm256_i64gather_pd(v.slope, bin, 8);
    _mm256_storeu_pd(out + i, _mm256_add_pd(pp, _mm256_mul_pd(ps, _mm256_sub_pd(xs, px))));
    alignas(32) std::int64_t idx[4];
    _mm256_store_si256(reinterpret_cast<__m256i*>(idx), bin);
    for (int j = 0; j < 4; ++j) {
      if (!v.interp_ok[static_cast<std::size_t>(idx[j])]) {
        out[i + static_cast<std::size_t>(j)] =
            lut(units::Micrometers{x[i + static_cast<std::size_t>(j)]});
      }
    }
  }
  for (; i < n; ++i) out[i] = lut(units::Micrometers{x[i]});
}

}  // namespace

#endif  // NANOCOST_X86_SIMD

void KillProbabilityLut::evaluate_batch_at(exec::SimdLevel level, const double* size_um,
                                           double* out, std::size_t n) const noexcept {
#if defined(NANOCOST_X86_SIMD)
  if (level == exec::SimdLevel::kAvx2) {
    const LutView v{node_x_.data(), node_p_.data(),    slope_.data(),
                    interp_ok_.data(), hint_.data(),   bits_min_,
                    hint_shift_,       static_cast<std::int64_t>(slope_.size()) - 1,
                    node_x_.front(),   node_x_.back()};
    lut_evaluate_avx2(*this, v, size_um, out, n);
    return;
  }
#endif
  // The SSE2 tier has no gather; the scalar path (already log-free via
  // the hint table) is the honest fallback for it.
  (void)level;
  for (std::size_t i = 0; i < n; ++i) out[i] = evaluate(size_um[i]);
}

void KillProbabilityLut::evaluate_batch(const double* size_um, double* out,
                                        std::size_t n) const noexcept {
  evaluate_batch_at(exec::simd_level(), size_um, out, n);
}

int KillProbabilityLut::interpolated_bins() const noexcept {
  int n = 0;
  for (const std::uint8_t ok : interp_ok_) n += ok;
  return n;
}

double LotResult::fault_mean() const noexcept {
  std::int64_t total = 0, weighted = 0;
  for (std::size_t k = 0; k < fault_histogram.size(); ++k) {
    total += fault_histogram[k];
    weighted += static_cast<std::int64_t>(k) * fault_histogram[k];
  }
  return total > 0 ? static_cast<double>(weighted) / static_cast<double>(total) : 0.0;
}

double LotResult::fault_variance() const noexcept {
  const double mean = fault_mean();
  std::int64_t total = 0;
  double ss = 0.0;
  for (std::size_t k = 0; k < fault_histogram.size(); ++k) {
    total += fault_histogram[k];
    const double d = static_cast<double>(k) - mean;
    ss += d * d * static_cast<double>(fault_histogram[k]);
  }
  return total > 1 ? ss / static_cast<double>(total - 1) : 0.0;
}

double LotResult::yield_stddev() const noexcept {
  if (wafers.size() < 2) return 0.0;
  double mean = 0.0;
  for (const WaferResult& w : wafers) mean += w.yield();
  mean /= static_cast<double>(wafers.size());
  double ss = 0.0;
  for (const WaferResult& w : wafers) {
    const double d = w.yield() - mean;
    ss += d * d;
  }
  return std::sqrt(ss / static_cast<double>(wafers.size() - 1));
}

FabSimulator::FabSimulator(geometry::WaferSpec wafer, geometry::DieSize die,
                           defect::DefectSizeDistribution sizes,
                           defect::DefectFieldParams field,
                           defect::WireArray representative_pattern)
    : wafer_(wafer), die_(die), sizes_(sizes), field_params_(field), map_(wafer, die),
      kill_(std::move(representative_pattern), die.area()),
      lut_(kill_, sizes.xmin(), sizes.xmax()) {
  if (map_.die_count() == 0) {
    throw std::invalid_argument("die does not fit on the wafer");
  }
}

cache::Digest128 FabSimulator::config_digest() const {
  cache::KeyBuilder key("fabsim.simulator");
  key.f64("wafer.diameter_mm", wafer_.diameter().value())
      .f64("wafer.edge_exclusion_mm", wafer_.edge_exclusion().value())
      .f64("wafer.scribe_street_mm", wafer_.scribe_street().value())
      .f64("die.width_mm", die_.width().value())
      .f64("die.height_mm", die_.height().value());
  key.f64("sizes.xmin_um", sizes_.xmin().value())
      .f64("sizes.peak_um", sizes_.peak().value())
      .f64("sizes.xmax_um", sizes_.xmax().value())
      .f64("sizes.q", sizes_.tail_exponent());
  key.f64("field.density_per_cm2", field_params_.density_per_cm2)
      .f64("field.cluster_alpha", field_params_.cluster_alpha)
      .boolean("field.clustered", field_params_.clustered)
      .f64("field.radial.edge_boost", field_params_.radial.edge_boost())
      .f64("field.radial.sharpness", field_params_.radial.sharpness());
  const defect::WireArray& array = kill_.array();
  key.f64("pattern.width_um", array.width().value())
      .f64("pattern.spacing_um", array.spacing().value())
      .f64("pattern.length_um", array.length().value())
      .i32("pattern.wires", array.wire_count());
  return key.digest();
}

double FabSimulator::analytic_mean_faults() const {
  return kill_.mean_faults_per_die(field_params_.density_per_cm2, sizes_);
}

void FabSimulator::simulate_wafer(exec::SplitMix64& rng, const defect::DefectField& field,
                                  WaferResult& result, WaferScratch& scratch) const {
  obs::ObsSpan span("fabsim.wafer");
  scratch.faults.assign(static_cast<std::size_t>(map_.die_count()), 0);
  field.sample_wafer(rng, scratch.defects);
  const std::size_t n = scratch.defects.size();
  result.defects = static_cast<std::int64_t>(n);
  result.gross_dies = map_.die_count();
  span.arg("defects", static_cast<std::uint64_t>(result.defects));
  if (obs::metrics_enabled()) {
    static obs::Counter& wafers = obs::counter("fabsim.wafers");
    static obs::Counter& defects = obs::counter("fabsim.defects");
    wafers.add();
    defects.add(static_cast<std::uint64_t>(result.defects));
  }

  // Locate every defect in one pass over the position columns, then
  // compact the on-die survivors so the kill stage runs dense: each
  // defect is written at the cursor, which advances only past on-die
  // ones -- no branch on the site.
  scratch.sites.resize(n);
  map_.site_at_batch(scratch.defects.x_mm.data(), scratch.defects.y_mm.data(),
                     scratch.sites.data(), n);
  scratch.on_die_size.resize(n);
  scratch.on_die_site.resize(n);
  std::size_t on_die = 0;
  for (std::size_t i = 0; i < n; ++i) {
    scratch.on_die_size[on_die] = scratch.defects.size_um[i];
    scratch.on_die_site[on_die] = scratch.sites[i];
    on_die += static_cast<std::size_t>(scratch.sites[i] >= 0);
  }
  result.defects_on_dies = static_cast<std::int64_t>(on_die);

  // Batch the kill stage: LUT over the size column, one batched block
  // of kill uniforms, then scatter the kills into per-site counts.
  scratch.kill_p.resize(on_die);
  scratch.kill_u.resize(on_die);
  lut_.evaluate_batch(scratch.on_die_size.data(), scratch.kill_p.data(), on_die);
  exec::uniform_unit_batch(rng, scratch.kill_u.data(), on_die);
  for (std::size_t i = 0; i < on_die; ++i) {
    if (scratch.kill_u[i] < scratch.kill_p[i]) {
      ++scratch.faults[static_cast<std::size_t>(scratch.on_die_site[i])];
    }
  }

  result.good_dies = 0;
  for (const std::int32_t f : scratch.faults) {
    if (f == 0) ++result.good_dies;
    if (static_cast<std::size_t>(f) >= scratch.histogram.size()) {
      scratch.histogram.resize(static_cast<std::size_t>(f) + 1, 0);
    }
    ++scratch.histogram[static_cast<std::size_t>(f)];
  }
}

std::vector<std::int32_t> FabSimulator::snapshot_faults(std::uint64_t seed) const {
  exec::SplitMix64 rng(seed);
  const defect::DefectField field(wafer_, sizes_, field_params_);
  WaferResult wafer_result;
  WaferScratch scratch;
  simulate_wafer(rng, field, wafer_result, scratch);
  return std::move(scratch.faults);
}

namespace {

/// Folds per-chunk histograms into the lot and totals up the wafers.
void finalize_lot(LotResult& lot, std::vector<std::int64_t>&& histogram) {
  if (histogram.size() > lot.fault_histogram.size()) {
    lot.fault_histogram.resize(histogram.size(), 0);
  }
  for (std::size_t k = 0; k < histogram.size(); ++k) {
    lot.fault_histogram[k] += histogram[k];
  }
}

void total_up(LotResult& lot) {
  for (const WaferResult& w : lot.wafers) {
    lot.total_dies += w.gross_dies;
    lot.good_dies += w.good_dies;
  }
}

}  // namespace

LotResult FabSimulator::run(std::int64_t n_wafers, std::uint64_t seed,
                            exec::ThreadPool* pool) const {
  if (n_wafers < 1) {
    throw std::invalid_argument("lot needs at least one wafer");
  }
  obs::ObsSpan span("fabsim.lot");
  span.arg("wafers", static_cast<std::uint64_t>(n_wafers));
  const defect::DefectField field(wafer_, sizes_, field_params_);

  LotResult lot;
  lot.fault_histogram.assign(4, 0);
  lot.wafers.assign(static_cast<std::size_t>(n_wafers), WaferResult{});
  exec::parallel_reduce(
      pool, n_wafers, kWaferGrain, [] { return WaferScratch{}; },
      [&](std::int64_t begin, std::int64_t end, WaferScratch& scratch) {
        for (std::int64_t i = begin; i < end; ++i) {
          robust::inject(kWaferFaultSite, static_cast<std::uint64_t>(i));
          exec::SplitMix64 rng(
              exec::SeedSequence::for_task(seed, static_cast<std::uint64_t>(i)));
          simulate_wafer(rng, field, lot.wafers[static_cast<std::size_t>(i)], scratch);
        }
      },
      [&](WaferScratch&& scratch) { finalize_lot(lot, std::move(scratch.histogram)); });
  total_up(lot);
  return lot;
}

PartialLot FabSimulator::run_partial(std::int64_t n_wafers, std::uint64_t seed,
                                     exec::ThreadPool* pool) const {
  if (n_wafers < 1) {
    throw std::invalid_argument("lot needs at least one wafer");
  }
  obs::ObsSpan span("fabsim.lot_partial");
  span.arg("wafers", static_cast<std::uint64_t>(n_wafers));
  const robust::CancelToken token = robust::current_cancel_token();
  const defect::DefectField field(wafer_, sizes_, field_params_);

  PartialLot out;
  LotResult& lot = out.lot;
  lot.fault_histogram.assign(4, 0);
  lot.wafers.assign(static_cast<std::size_t>(n_wafers), WaferResult{});
  const exec::LoopStatus status = exec::parallel_reduce_cancellable(
      pool, n_wafers, kWaferGrain, token, [] { return WaferScratch{}; },
      [&](std::int64_t begin, std::int64_t end, WaferScratch& scratch) {
        for (std::int64_t i = begin; i < end; ++i) {
          robust::inject(kWaferFaultSite, static_cast<std::uint64_t>(i));
          exec::SplitMix64 rng(
              exec::SeedSequence::for_task(seed, static_cast<std::uint64_t>(i)));
          simulate_wafer(rng, field, lot.wafers[static_cast<std::size_t>(i)], scratch);
        }
      },
      [&](WaferScratch&& scratch) { finalize_lot(lot, std::move(scratch.histogram)); });
  // Wafers at/after the frontier may have run out of order; discard them
  // so the lot is a pure function of the frontier.
  const std::int64_t completed =
      std::min(n_wafers, status.frontier * kWaferGrain);
  for (std::int64_t i = completed; i < n_wafers; ++i) {
    lot.wafers[static_cast<std::size_t>(i)] = WaferResult{};
  }
  total_up(lot);
  out.completed_wafers = completed;
  out.completeness = status.completeness();
  out.frontier_chunks = status.frontier;
  out.cancelled = status.cancelled;
  return out;
}

void FabSimulator::run_units(std::int64_t begin, std::int64_t end, std::uint64_t seed,
                             WaferResult* results,
                             std::vector<std::int64_t>& histogram) const {
  if (begin < 0 || end < begin) {
    throw std::invalid_argument("run_units needs 0 <= begin <= end");
  }
  obs::ObsSpan span("fabsim.units");
  span.arg("wafers", static_cast<std::uint64_t>(end - begin));
  const defect::DefectField field(wafer_, sizes_, field_params_);
  WaferScratch scratch;
  for (std::int64_t i = begin; i < end; ++i) {
    robust::inject(kWaferFaultSite, static_cast<std::uint64_t>(i));
    exec::SplitMix64 rng(exec::SeedSequence::for_task(seed, static_cast<std::uint64_t>(i)));
    simulate_wafer(rng, field, results[i - begin], scratch);
  }
  if (scratch.histogram.size() > histogram.size()) {
    histogram.resize(scratch.histogram.size(), 0);
  }
  for (std::size_t k = 0; k < scratch.histogram.size(); ++k) {
    histogram[k] += scratch.histogram[k];
  }
}

std::vector<LotResult> FabSimulator::run_ramp(const yield::LearningCurve& curve,
                                              std::int64_t total_wafers,
                                              std::int64_t checkpoint_wafers,
                                              std::uint64_t seed,
                                              exec::ThreadPool* pool) const {
  if (total_wafers < 1 || checkpoint_wafers < 1) {
    throw std::invalid_argument("ramp needs positive wafer counts");
  }
  // Per-chunk scratch carries the last defect field so consecutive
  // wafers at an (effectively) unchanged learning-curve density reuse
  // it instead of rebuilding the field per wafer.
  struct RampScratch {
    WaferScratch wafer;
    std::optional<defect::DefectField> field;
    double density = -1.0;
  };

  std::vector<LotResult> checkpoints;
  std::int64_t done = 0;
  while (done < total_wafers) {
    const std::int64_t batch = std::min(checkpoint_wafers, total_wafers - done);
    obs::ObsSpan span("fabsim.lot");
    span.arg("wafers", static_cast<std::uint64_t>(batch));
    LotResult lot;
    lot.fault_histogram.assign(4, 0);
    lot.wafers.assign(static_cast<std::size_t>(batch), WaferResult{});
    exec::parallel_reduce(
        pool, batch, kWaferGrain, [] { return RampScratch{}; },
        [&](std::int64_t begin, std::int64_t end, RampScratch& scratch) {
          for (std::int64_t i = begin; i < end; ++i) {
            const std::int64_t global = done + i;  // cross-checkpoint wafer index
            robust::inject(kWaferFaultSite, static_cast<std::uint64_t>(global));
            const double density = curve.density_at(static_cast<double>(global));
            if (!scratch.field || density != scratch.density) {
              defect::DefectFieldParams params = field_params_;
              params.density_per_cm2 = density;
              scratch.field.emplace(wafer_, sizes_, params);
              scratch.density = density;
            }
            exec::SplitMix64 rng(
                exec::SeedSequence::for_task(seed, static_cast<std::uint64_t>(global)));
            simulate_wafer(rng, *scratch.field, lot.wafers[static_cast<std::size_t>(i)],
                           scratch.wafer);
          }
        },
        [&](RampScratch&& scratch) {
          finalize_lot(lot, std::move(scratch.wafer.histogram));
        });
    total_up(lot);
    checkpoints.push_back(std::move(lot));
    done += batch;
  }
  return checkpoints;
}

}  // namespace nanocost::fabsim
