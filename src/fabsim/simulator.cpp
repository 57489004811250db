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

#if defined(NANOCOST_X86_SIMD)
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

struct FabsimMetrics {
  obs::Counter& wafers = obs::counter("fabsim.wafers");
  obs::Counter& defects = obs::counter("fabsim.defects");
};

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
NANOCOST_TARGET_AVX2 void lut_evaluate_avx2(const KillProbabilityLut& lut, const LutView& v,
                                            const double* x, double* out, std::size_t n) {
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

cache::Digest128 FabConfig::digest() const {
  cache::KeyBuilder key("fabsim.simulator");
  key.f64("wafer.diameter_mm", wafer.diameter().value())
      .f64("wafer.edge_exclusion_mm", wafer.edge_exclusion().value())
      .f64("wafer.scribe_street_mm", wafer.scribe_street().value())
      .f64("die.width_mm", die.width().value())
      .f64("die.height_mm", die.height().value());
  key.f64("sizes.xmin_um", sizes.xmin().value())
      .f64("sizes.peak_um", sizes.peak().value())
      .f64("sizes.xmax_um", sizes.xmax().value())
      .f64("sizes.q", sizes.tail_exponent());
  key.f64("field.density_per_cm2", field.density_per_cm2)
      .f64("field.cluster_alpha", field.cluster_alpha)
      .boolean("field.clustered", field.clustered)
      .f64("field.radial.edge_boost", field.radial.edge_boost())
      .f64("field.radial.sharpness", field.radial.sharpness());
  key.f64("pattern.width_um", pattern.width().value())
      .f64("pattern.spacing_um", pattern.spacing().value())
      .f64("pattern.length_um", pattern.length().value())
      .i32("pattern.wires", pattern.wire_count());
  return key.digest();
}

FabSimulator::FabSimulator(FabConfig config)
    : config_(std::move(config)), map_(config_.wafer, config_.die),
      kill_(config_.pattern, config_.die.area()),
      lut_(kill_, config_.sizes.xmin(), config_.sizes.xmax()) {
  if (map_.die_count() == 0) {
    throw std::invalid_argument("die does not fit on the wafer");
  }
}

double FabSimulator::analytic_mean_faults() const {
  return kill_.mean_faults_per_die(config_.field.density_per_cm2, config_.sizes);
}

namespace {

/// Frees `column` if it grew past FabSimulator::kRetainedColumnBytes.
template <typename T>
void release_if_oversized(std::vector<T>& column) noexcept {
  if (column.capacity() * sizeof(T) > FabSimulator::kRetainedColumnBytes) {
    std::vector<T>().swap(column);
  }
}

}  // namespace

struct FabSimulator::WaferScratch final {
  defect::DefectSoA defects;
  std::vector<std::int64_t> sites;     ///< site per defect (-1 off-die)
  std::vector<double> on_die_size;     ///< compacted sizes of on-die defects
  std::vector<std::int64_t> on_die_site;
  std::vector<double> kill_p;          ///< LUT kill probability column
  std::vector<double> kill_u;          ///< kill-draw uniform column
  std::vector<std::int32_t> faults;    ///< per-site fault counts

  /// Frees every column that grew past kRetainedColumnBytes.
  void release_oversized() noexcept {
    release_if_oversized(defects.x_mm);
    release_if_oversized(defects.y_mm);
    release_if_oversized(defects.size_um);
    release_if_oversized(sites);
    release_if_oversized(on_die_size);
    release_if_oversized(on_die_site);
    release_if_oversized(kill_p);
    release_if_oversized(kill_u);
    release_if_oversized(faults);
  }
};

FabSimulator::WaferScratch& FabSimulator::thread_scratch() noexcept {
  thread_local WaferScratch scratch;
  return scratch;
}

void FabSimulator::simulate_wafer(exec::SplitMix64& rng, const defect::DefectField& field,
                                  WaferResult& result, WaferScratch& scratch,
                                  std::vector<std::int64_t>& histogram) const {
  obs::ObsSpan span("fabsim.wafer");
  scratch.faults.assign(static_cast<std::size_t>(map_.die_count()), 0);
  field.sample_wafer(rng, scratch.defects);
  const std::size_t n = scratch.defects.size();
  result.defects = static_cast<std::int64_t>(n);
  result.gross_dies = map_.die_count();
  span.arg("defects", static_cast<std::uint64_t>(result.defects));
  if (auto* m = obs::metrics_table<FabsimMetrics>()) {
    m->wafers.add();
    m->defects.add(static_cast<std::uint64_t>(result.defects));
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
  // of kill uniforms, then scatter the kills into per-site counts.  The
  // scatter adds the comparison instead of branching on it: whether a
  // defect kills is a coin flip the branch predictor cannot learn.
  scratch.kill_p.resize(on_die);
  scratch.kill_u.resize(on_die);
  lut_.evaluate_batch(scratch.on_die_size.data(), scratch.kill_p.data(), on_die);
  exec::uniform_unit_batch(rng, scratch.kill_u.data(), on_die);
  for (std::size_t i = 0; i < on_die; ++i) {
    scratch.faults[static_cast<std::size_t>(scratch.on_die_site[i])] +=
        static_cast<std::int32_t>(scratch.kill_u[i] < scratch.kill_p[i]);
  }

  result.good_dies = 0;
  for (const std::int32_t f : scratch.faults) {
    if (f == 0) ++result.good_dies;
    if (static_cast<std::size_t>(f) >= histogram.size()) {
      histogram.resize(static_cast<std::size_t>(f) + 1, 0);
    }
    ++histogram[static_cast<std::size_t>(f)];
  }
}

template <typename FieldAt>
void FabSimulator::simulate_range(std::int64_t begin, std::int64_t end, std::uint64_t seed,
                                  FieldAt&& field_at, WaferResult* results,
                                  std::vector<std::int64_t>& histogram) const {
  // One scratch per thread is enough: nothing a wafer calls runs another
  // chunk on the same thread.  A throw mid-chunk (an injected fault, a
  // failed allocation) may leave the columns in any state, which is
  // harmless: every column is rewritten for each wafer.
  WaferScratch& scratch = thread_scratch();
  struct Release final {
    WaferScratch& scratch;
    ~Release() { scratch.release_oversized(); }
  } release{scratch};
  for (std::int64_t i = begin; i < end; ++i) {
    robust::inject(kWaferFaultSite, static_cast<std::uint64_t>(i));
    const defect::DefectField& field = field_at(i);
    exec::SplitMix64 rng(exec::SeedSequence::for_task(seed, static_cast<std::uint64_t>(i)));
    simulate_wafer(rng, field, results[i - begin], scratch, histogram);
  }
}

std::vector<std::int32_t> FabSimulator::snapshot_faults(std::uint64_t seed) const {
  exec::SplitMix64 rng(seed);
  const defect::DefectField field(config_.wafer, config_.sizes, config_.field);
  WaferResult wafer_result;
  WaferScratch scratch;
  std::vector<std::int64_t> histogram;
  simulate_wafer(rng, field, wafer_result, scratch, histogram);
  return std::move(scratch.faults);
}

namespace {

/// A chunk's die fault histogram, the only state a chunk carries (its
/// columns belong to the thread).  Four bins up front, as every chunk
/// blob has had.
std::vector<std::int64_t> chunk_histogram() { return std::vector<std::int64_t>(4, 0); }

/// Adds a chunk's histogram into a lot's (or a caller's) histogram.
void fold_histogram(std::vector<std::int64_t>& into, const std::vector<std::int64_t>& chunk) {
  if (chunk.size() > into.size()) into.resize(chunk.size(), 0);
  for (std::size_t k = 0; k < chunk.size(); ++k) into[k] += chunk[k];
}

/// field_at for a lot at one density.
auto same_field(const defect::DefectField& field) {
  return [&field](std::int64_t) -> const defect::DefectField& { return field; };
}

void total_up(LotResult& lot) {
  for (const WaferResult& w : lot.wafers) {
    lot.total_dies += w.gross_dies;
    lot.good_dies += w.good_dies;
  }
}

}  // namespace

PartialLot FabSimulator::run_lot(const char* span_name, std::int64_t n_wafers,
                                 std::uint64_t seed, exec::ThreadPool* pool,
                                 const robust::CancelToken& token) const {
  if (n_wafers < 1) {
    throw std::invalid_argument("lot needs at least one wafer");
  }
  obs::ObsSpan span(span_name);
  span.arg("wafers", static_cast<std::uint64_t>(n_wafers));
  const defect::DefectField field(config_.wafer, config_.sizes, config_.field);

  PartialLot out;
  LotResult& lot = out.lot;
  lot.fault_histogram.assign(4, 0);
  lot.wafers.assign(static_cast<std::size_t>(n_wafers), WaferResult{});
  const exec::LoopStatus status = exec::parallel_reduce(
      pool, n_wafers, kWaferGrain, chunk_histogram,
      [&](std::int64_t begin, std::int64_t end, std::vector<std::int64_t>& histogram) {
        simulate_range(begin, end, seed, same_field(field), lot.wafers.data() + begin,
                       histogram);
      },
      [&](const std::vector<std::int64_t>& h) { fold_histogram(lot.fault_histogram, h); },
      token);
  // Wafers at/after the frontier may have run out of order; discard them
  // so the lot is a pure function of the frontier.
  const std::int64_t completed = std::min(n_wafers, status.frontier * kWaferGrain);
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

LotResult FabSimulator::run(std::int64_t n_wafers, std::uint64_t seed,
                            exec::ThreadPool* pool) const {
  return run_lot("fabsim.lot", n_wafers, seed, pool, robust::CancelToken{}).lot;
}

PartialLot FabSimulator::run_partial(std::int64_t n_wafers, std::uint64_t seed,
                                     exec::ThreadPool* pool,
                                     const robust::CancelToken& token) const {
  return run_lot("fabsim.lot_partial", n_wafers, seed, pool, token);
}

void FabSimulator::run_units(std::int64_t begin, std::int64_t end, std::uint64_t seed,
                             WaferResult* results,
                             std::vector<std::int64_t>& histogram) const {
  if (begin < 0 || end < begin) {
    throw std::invalid_argument("run_units needs 0 <= begin <= end");
  }
  obs::ObsSpan span("fabsim.units");
  span.arg("wafers", static_cast<std::uint64_t>(end - begin));
  const defect::DefectField field(config_.wafer, config_.sizes, config_.field);
  // Folded only once every wafer is done, so a fault's throw leaves
  // `histogram` as it was.
  std::vector<std::int64_t> chunk = chunk_histogram();
  simulate_range(begin, end, seed, same_field(field), results, chunk);
  fold_histogram(histogram, chunk);
}

std::vector<LotResult> FabSimulator::run_ramp(const yield::LearningCurve& curve,
                                              std::int64_t total_wafers,
                                              std::int64_t checkpoint_wafers,
                                              std::uint64_t seed,
                                              exec::ThreadPool* pool) const {
  if (total_wafers < 1 || checkpoint_wafers < 1) {
    throw std::invalid_argument("ramp needs positive wafer counts");
  }
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
        pool, batch, kWaferGrain, chunk_histogram,
        [&](std::int64_t begin, std::int64_t end, std::vector<std::int64_t>& histogram) {
          // Consecutive wafers at an (effectively) unchanged
          // learning-curve density share one defect field instead of
          // rebuilding it per wafer.  Seeds and fault sites take the
          // cross-checkpoint wafer index.
          std::optional<defect::DefectField> field;
          double field_density = -1.0;
          const auto field_at = [&](std::int64_t wafer) -> const defect::DefectField& {
            const double density = curve.density_at(static_cast<double>(wafer));
            if (!field || density != field_density) {
              defect::DefectFieldParams params = config_.field;
              params.density_per_cm2 = density;
              field.emplace(config_.wafer, config_.sizes, params);
              field_density = density;
            }
            return *field;
          };
          simulate_range(done + begin, done + end, seed, field_at, lot.wafers.data() + begin,
                         histogram);
        },
        [&](const std::vector<std::int64_t>& h) { fold_histogram(lot.fault_histogram, h); });
    total_up(lot);
    checkpoints.push_back(std::move(lot));
    done += batch;
  }
  return checkpoints;
}

}  // namespace nanocost::fabsim
