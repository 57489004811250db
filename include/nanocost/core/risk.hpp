// Cost risk: eq. (4) under uncertainty.
//
// Every input of the cost model is a forecast -- yield, wafer cost,
// design effort, and most of all volume.  The paper's Sec. 3.1 warns
// that the optimum moves "substantially with the volume and yield";
// this module quantifies how much a *point* optimum is worth when the
// inputs are distributions, and whether a robust (sparser) design
// choice beats the nominal optimum in expectation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "nanocost/core/transistor_cost.hpp"
#include "nanocost/exec/simd.hpp"
#include "nanocost/robust/cancel.hpp"

namespace nanocost::exec {
class ThreadPool;
}

namespace nanocost::core {

/// Relative uncertainties on the eq.-4 inputs.  Multiplicative factors
/// are lognormal (median 1); yield is a clamped normal around nominal.
struct UncertainInputs final {
  Eq4Inputs nominal{};
  double yield_sigma = 0.08;          ///< absolute, on the yield value
  double cm_sq_sigma_rel = 0.15;      ///< lognormal sigma of ln(Cm_sq factor)
  double design_cost_sigma_rel = 0.4; ///< lognormal sigma on A0 (effort risk)
  double volume_sigma_rel = 0.5;      ///< lognormal sigma on N_w (demand risk)
};

/// Appends every UncertainInputs field to `key`: the nominal eq.-4
/// inputs (append_eq4_inputs), then the four sigmas in declaration
/// order.  The one field list behind every key over uncertain inputs.
void append_uncertain_inputs(cache::KeyBuilder& key, const UncertainInputs& in);

/// Scenarios per chunk of every risk Monte-Carlo loop: the granularity
/// at which monte_carlo_cost_partial polls its token, and so the unit of
/// its frontier.
inline constexpr std::int64_t kRiskGrain = 128;

/// Distribution summary of C_tr at one s_d.
struct RiskResult final {
  double mean = 0.0;
  double stddev = 0.0;
  double p10 = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
  /// Fraction of scenarios whose per-die cost exceeds the budget (0 if
  /// no budget given).
  double prob_over_budget = 0.0;
};

/// C_tr of scenario `index` at density s_d: one lognormal/clamped-normal
/// draw of the eq.-4 inputs priced through the cost model.  A pure
/// function of (inputs, s_d, seed, index) -- the same scenario no matter
/// which thread, grid point, or campaign chunk evaluates it.  The scalar
/// reference: no entry point prices scenarios with it directly, but
/// risk_sample_cost_batch falls back to it for inputs or draws the cost
/// model rejects, so its exceptions surface unchanged.
[[nodiscard]] double risk_sample_cost(const UncertainInputs& inputs, double s_d,
                                      std::uint64_t seed, std::uint64_t index);

/// SoA batch form of risk_sample_cost: fills out[0..n) with scenarios
/// index0..index0+n-1, bitwise what n scalar calls return (checked by
/// simd_parity_test).  The batch amortizes everything constant across
/// scenarios -- the eq.-6 pow() terms, validation, the seed derivation
/// -- and draws the per-scenario uniforms through the vectorized
/// rng_batch columns; only the transcendental tail (log/sincos/exp of
/// the Gaussian draws) stays scalar, in all paths.  The one kernel that
/// prices scenarios: monte_carlo_cost, monte_carlo_cost_partial (the
/// served risk job) and robust_sd run it per chunk.
void risk_sample_cost_batch(const UncertainInputs& inputs, double s_d, std::uint64_t seed,
                            std::uint64_t index0, std::size_t n, double* out);

/// Lane-pinned variant for parity testing; everything else should use
/// risk_sample_cost_batch, which dispatches on exec::simd_level().
void risk_sample_cost_batch_at(exec::SimdLevel level, const UncertainInputs& inputs,
                               double s_d, std::uint64_t seed, std::uint64_t index0,
                               std::size_t n, double* out);

/// Distribution summary over an explicit cost-sample vector (needs >= 2
/// samples): exactly the reduction monte_carlo_cost applies, exposed so
/// a partial run's completed samples are summarized identically.
[[nodiscard]] RiskResult summarize_cost_samples(std::vector<double> costs,
                                                const UncertainInputs& inputs,
                                                double die_budget = 0.0);

/// Monte-Carlo propagation of the uncertainties through eq. (4) at a
/// fixed s_d.  `die_budget` (optional, <= 0 disables) sets the
/// over-budget probability threshold on per-die cost.  Samples are
/// generated in parallel on `pool` (null: global pool); sample i always
/// consumes the stream seeded with SeedSequence::for_task(seed, i), so
/// the result is identical for every thread count.
[[nodiscard]] RiskResult monte_carlo_cost(const UncertainInputs& inputs, double s_d,
                                          int samples = 4000, std::uint64_t seed = 1,
                                          double die_budget = 0.0,
                                          exec::ThreadPool* pool = nullptr);

/// monte_carlo_cost_partial's summary: over every scenario, or over the
/// completed prefix when its token truncated the run.
struct PartialRisk final {
  /// Summary of the completed scenarios (monte_carlo_cost's reduction).
  RiskResult result;
  double completeness = 1.0;
  std::int64_t completed_samples = 0;
  /// 95% confidence interval on the mean, over the *completed* sample
  /// count -- fewer survivors, wider interval.
  double mean_ci_lo = 0.0;
  double mean_ci_hi = 0.0;
  /// Completed leading chunks; the summary covers exactly the samples
  /// of chunks [0, frontier_chunks).
  std::int64_t frontier_chunks = 0;
  /// true when the cancel token / deadline truncated the run.
  bool cancelled = false;
};

/// Deadline-aware monte_carlo_cost(): polls `token` once per chunk of
/// kRiskGrain samples.  On expiry the summary covers exactly the
/// completed leading chunks -- bitwise what monte_carlo_cost over that
/// sample prefix computes, at any thread count -- with the 95% CI on the
/// mean widened by the smaller survivor count.  Fewer than 2 completed
/// samples leaves `result` zeroed.  With an invalid token this is
/// monte_carlo_cost.
[[nodiscard]] PartialRisk monte_carlo_cost_partial(const UncertainInputs& inputs, double s_d,
                                                   int samples, std::uint64_t seed,
                                                   double die_budget, exec::ThreadPool* pool,
                                                   const robust::CancelToken& token);

/// Robust density choice: the s_d minimizing the `quantile` (e.g. 0.9)
/// of the C_tr distribution over a log grid [lo, hi] with `steps`
/// points.  Compare against optimal_sd_eq4 on the nominal inputs:
/// the robust optimum sits sparser whenever volume risk dominates.
struct RobustOptimum final {
  double s_d = 0.0;
  double quantile_cost = 0.0;
};

/// Grid points run in parallel; every grid point draws the *same*
/// scenario set (seeds derive from `seed` and the sample index, never
/// from the grid point or thread), preserving common random numbers
/// across the grid.
[[nodiscard]] RobustOptimum robust_sd(const UncertainInputs& inputs, double quantile,
                                      double lo, double hi, int steps, int samples = 2000,
                                      std::uint64_t seed = 1,
                                      exec::ThreadPool* pool = nullptr);

}  // namespace nanocost::core
