// Monte-Carlo fabline simulator.
//
// The paper's cost models take yield Y as an input; a real fab produces
// it.  Lacking a fab, we simulate one end-to-end: wafers receive
// spatially-distributed defects (optionally clustered and radially
// skewed), each defect landing on a die kills it with a probability set
// by the die's critical-area profile at that defect size, and yield is
// whatever survives.  The simulator validates the analytic yield models
// (Poisson / negative binomial emerge from the defect statistics) and
// feeds measured yields back into the cost models.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "nanocost/cache/hash.hpp"
#include "nanocost/defect/critical_area.hpp"
#include "nanocost/defect/spatial.hpp"
#include "nanocost/exec/rng.hpp"
#include "nanocost/exec/simd.hpp"
#include "nanocost/geometry/wafer_map.hpp"
#include "nanocost/units/probability.hpp"
#include "nanocost/yield/learning.hpp"

namespace nanocost::exec {
class ThreadPool;
}

namespace nanocost::fabsim {

/// Probability that a defect of a given size landing uniformly on the
/// die is fatal: size-resolved critical area over die area, using a
/// representative wire-array pattern scaled to the die's density.
class DieKillModel final {
 public:
  /// `array` is the representative layout pattern; `die_area` the die
  /// it stands for.  The per-area fault sensitivity of the array is
  /// applied uniformly across the die.
  DieKillModel(defect::WireArray array, units::SquareCentimeters die_area);

  /// P(fatal | defect of size x landed somewhere on the die body).
  [[nodiscard]] double kill_probability(units::Micrometers size) const;

  /// Expected faults per die at defect density D: D * A_die * ratio,
  /// where ratio is the size-averaged critical-area fraction.  This is
  /// the lambda the analytic models should be driven with.
  [[nodiscard]] double mean_faults_per_die(double defect_density_per_cm2,
                                           const defect::DefectSizeDistribution& sizes) const;

  /// The representative pattern -- part of the simulator's input
  /// closure, exposed for content-hashed cache keys.
  [[nodiscard]] const defect::WireArray& array() const noexcept { return array_; }

 private:
  defect::WireArray array_;
  units::SquareCentimeters die_area_;
};

/// Log-spaced lookup table over defect size for DieKillModel::
/// kill_probability.  Built once per simulator; evaluating a defect then
/// costs a hint-table bin lookup (no log) + one linear interpolation
/// instead of two critical-area evaluations.  The kill probability is
/// piecewise linear in the defect size, so bins verified linear at
/// construction interpolate *exactly*; the handful of bins containing a
/// slope breakpoint (spacing/width onsets, saturation, the probability
/// cap) fall back to direct evaluation -- the table agrees with the
/// model to rounding error everywhere on the support.
class KillProbabilityLut final {
 public:
  KillProbabilityLut(const DieKillModel& model, units::Micrometers xmin,
                     units::Micrometers xmax, int bins = 2048);

  /// P(fatal | defect size); sizes outside [xmin, xmax] use the model.
  [[nodiscard]] double operator()(units::Micrometers size) const noexcept;

  /// Column form for the SoA wafer pipeline: out[i] = (*this)(size_um[i])
  /// for sizes in micrometers.  Bin location goes through an
  /// exponent-keyed hint table (no log per lookup); the AVX2 lane
  /// gathers nodes and interpolates four sizes at once, bitwise what the
  /// scalar path returns (simd_parity_test).
  void evaluate_batch(const double* size_um, double* out, std::size_t n) const noexcept;
  void evaluate_batch_at(exec::SimdLevel level, const double* size_um, double* out,
                         std::size_t n) const noexcept;

  [[nodiscard]] int bins() const noexcept { return static_cast<int>(slope_.size()); }
  /// Bins served by interpolation (the rest fall back to the model).
  [[nodiscard]] int interpolated_bins() const noexcept;

 private:
  DieKillModel model_;
  std::vector<double> node_x_;
  std::vector<double> node_p_;
  std::vector<double> slope_;
  std::vector<std::uint8_t> interp_ok_;
  // Bin-location hint table, keyed on the upper bits of the size's IEEE
  // representation (monotone for the positive finite support):
  // hint_[(bits(x) - bits_min_) >> hint_shift_] underestimates the
  // bracketing bin by at most a step or two, fixed by an upward nudge.
  std::int64_t bits_min_ = 0;
  int hint_shift_ = 0;
  std::vector<std::int32_t> hint_;

  /// Scalar reference lookup: the value operator() and every batch lane
  /// must reproduce bitwise.
  [[nodiscard]] double evaluate(double x) const noexcept;
};

/// One simulated wafer.
struct WaferResult final {
  std::int64_t gross_dies = 0;
  std::int64_t good_dies = 0;
  std::int64_t defects = 0;
  std::int64_t defects_on_dies = 0;
  [[nodiscard]] double yield() const noexcept {
    return gross_dies > 0 ? static_cast<double>(good_dies) / static_cast<double>(gross_dies)
                          : 0.0;
  }
};

/// Aggregate over a lot / run.
struct LotResult final {
  std::vector<WaferResult> wafers;
  std::int64_t total_dies = 0;
  std::int64_t good_dies = 0;
  /// Die-level fault-count histogram (index = faults on die).
  std::vector<std::int64_t> fault_histogram;

  [[nodiscard]] double yield() const noexcept {
    return total_dies > 0 ? static_cast<double>(good_dies) / static_cast<double>(total_dies)
                          : 0.0;
  }
  /// Mean and variance of per-die fault counts; variance/mean > 1
  /// indicates clustering (negative-binomial statistics).
  [[nodiscard]] double fault_mean() const noexcept;
  [[nodiscard]] double fault_variance() const noexcept;
  /// Wafer-to-wafer standard deviation of yield.
  [[nodiscard]] double yield_stddev() const noexcept;
};

/// A lot assembled from a partial source: a degraded campaign
/// (fabsim::FabLotCampaign::assemble) or a deadline-truncated
/// FabSimulator::run_partial.
struct PartialLot final {
  /// Wafer slots of quarantined/uncompleted chunks stay
  /// default-initialised; the aggregate fields count completed wafers
  /// only.
  LotResult lot;
  double completeness = 1.0;
  std::int64_t completed_wafers = 0;
  std::vector<std::int64_t> failed_wafers;  ///< ascending wafer indices
  /// Completed leading chunks (the cancellation frontier); the lot is
  /// bitwise a fresh run truncated at frontier_chunks * grain wafers.
  std::int64_t frontier_chunks = 0;
  /// true when a cancel token / deadline truncated the run.
  bool cancelled = false;
};

/// The simulator: one die product on one process.
class FabSimulator final {
 public:
  FabSimulator(geometry::WaferSpec wafer, geometry::DieSize die,
               defect::DefectSizeDistribution sizes, defect::DefectFieldParams field,
               defect::WireArray representative_pattern);

  /// Simulate `n_wafers` at constant defect density.  Wafers execute in
  /// parallel on `pool` (null: the global pool); wafer i always consumes
  /// the RNG stream seeded with SeedSequence::for_task(seed, i), so the
  /// result is identical for every thread count and schedule.
  [[nodiscard]] LotResult run(std::int64_t n_wafers, std::uint64_t seed = 42,
                              exec::ThreadPool* pool = nullptr) const;

  /// Deadline-aware run(): honors the caller's ambient cancel token
  /// (robust::CancelScope) at wafer-chunk granularity.  On expiry the
  /// returned lot covers exactly the completed chunk frontier --
  /// bitwise what run() on frontier_chunks * grain wafers produces, at
  /// any thread count -- with completeness and the frontier reported.
  /// With no ambient token this is run() plus one relaxed atomic load.
  [[nodiscard]] PartialLot run_partial(std::int64_t n_wafers, std::uint64_t seed = 42,
                                       exec::ThreadPool* pool = nullptr) const;

  /// Simulates wafers [begin, end) of the lot seeded with `seed`
  /// serially on the calling thread: results[i - begin] receives wafer
  /// i, and the chunk's die-level fault counts fold into `histogram`.
  /// Wafer i consumes exactly the stream it consumes under run(), so a
  /// union of ranges reproduces run() bitwise -- this is the campaign
  /// engine's chunk kernel (fabsim::FabLotCampaign).
  void run_units(std::int64_t begin, std::int64_t end, std::uint64_t seed,
                 WaferResult* results, std::vector<std::int64_t>& histogram) const;

  /// Simulate a maturity ramp: defect density follows the learning
  /// curve as cumulative wafers accrue.  Returns one LotResult per
  /// checkpoint of `checkpoint_wafers` wafers.  Parallel and
  /// deterministic like run(); wafer seeds are derived from the global
  /// (cross-checkpoint) wafer index.
  [[nodiscard]] std::vector<LotResult> run_ramp(const yield::LearningCurve& curve,
                                                std::int64_t total_wafers,
                                                std::int64_t checkpoint_wafers,
                                                std::uint64_t seed = 42,
                                                exec::ThreadPool* pool = nullptr) const;

  [[nodiscard]] const geometry::WaferMap& wafer_map() const noexcept { return map_; }
  /// Content digest of the configuration -- every field of the
  /// accessors below, under cache::kKeySchemaVersion.  The one field
  /// list behind cache::fabsim_run_key and FabLotCampaign's fingerprint:
  /// simulators that differ in any field get different digests.
  [[nodiscard]] cache::Digest128 config_digest() const;
  // Configuration accessors: the full input closure of run()/run_ramp().
  [[nodiscard]] const geometry::WaferSpec& wafer_spec() const noexcept { return wafer_; }
  [[nodiscard]] const geometry::DieSize& die() const noexcept { return die_; }
  [[nodiscard]] const defect::DefectSizeDistribution& size_distribution() const noexcept {
    return sizes_;
  }
  [[nodiscard]] const defect::DefectFieldParams& field_params() const noexcept {
    return field_params_;
  }
  [[nodiscard]] const DieKillModel& kill_model() const noexcept { return kill_; }
  [[nodiscard]] const KillProbabilityLut& kill_lut() const noexcept { return lut_; }
  /// The analytic mean faults per die this configuration implies.
  [[nodiscard]] double analytic_mean_faults() const;

  /// Per-site fault counts of one simulated wafer -- for wafer-map
  /// visualization and spatial statistics.  Indexed like
  /// wafer_map().sites().
  [[nodiscard]] std::vector<std::int32_t> snapshot_faults(std::uint64_t seed) const;

 private:
  geometry::WaferSpec wafer_;
  geometry::DieSize die_;
  defect::DefectSizeDistribution sizes_;
  defect::DefectFieldParams field_params_;
  geometry::WaferMap map_;
  DieKillModel kill_;
  KillProbabilityLut lut_;

  /// Per-chunk scratch for the SoA wafer pipeline: one set of columns
  /// reused across a chunk's wafers, so a lot run allocates O(chunks).
  struct WaferScratch {
    defect::DefectSoA defects;
    std::vector<std::int64_t> sites;     ///< site per defect (-1 off-die)
    std::vector<double> on_die_size;     ///< compacted sizes of on-die defects
    std::vector<std::int64_t> on_die_site;
    std::vector<double> kill_p;          ///< LUT kill probability column
    std::vector<double> kill_u;          ///< kill-draw uniform column
    std::vector<std::int32_t> faults;    ///< per-site fault counts
    std::vector<std::int64_t> histogram = std::vector<std::int64_t>(4, 0);
  };

  /// One wafer through the SoA pipeline: sample the defect population in
  /// column form, locate every defect's site in one pass, batch-evaluate
  /// the kill LUT over the on-die sizes, draw all kill uniforms through
  /// the batched RNG, then scatter the kills into per-site fault counts.
  void simulate_wafer(exec::SplitMix64& rng, const defect::DefectField& field,
                      WaferResult& result, WaferScratch& scratch) const;
};

}  // namespace nanocost::fabsim
