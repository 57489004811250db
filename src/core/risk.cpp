#include "nanocost/core/risk.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <vector>

#include "nanocost/exec/parallel.hpp"
#include "nanocost/exec/rng.hpp"
#include "nanocost/exec/rng_batch.hpp"
#include "nanocost/exec/seed.hpp"
#include "nanocost/robust/fault_injection.hpp"
#include "nanocost/robust/finite_guard.hpp"

namespace nanocost::core {

namespace {

/// Injection site evaluated once per Monte-Carlo scenario; the unit
/// index is the sample index.  NaN faults poison the sampled cost,
/// which the risk.samples FiniteGuard then catches by name.
constexpr robust::FaultSite kSampleFaultSite{"risk.sample"};

/// The k-th smallest of `v`, moved into v[k].  v[0, from) is already
/// settled: v[from - 1] is in its sorted place and nothing after it is
/// smaller, so only v[from, end) is searched, and k == from is the
/// minimum of the rest.  Calls take ascending k; a k below `from` is one
/// an earlier call placed.
double select_rank(std::vector<double>& v, std::size_t& from, std::size_t k) {
  if (k >= from) {
    const auto nth = v.begin() + static_cast<std::ptrdiff_t>(k);
    if (k == from) {
      std::iter_swap(nth, std::min_element(nth, v.end()));
    } else {
      std::nth_element(v.begin() + static_cast<std::ptrdiff_t>(from), nth, v.end());
    }
    from = k + 1;
  }
  return v[k];
}

/// The q-quantile of `v`, interpolated between the two order statistics
/// around q * (n - 1) exactly as on the sorted vector, but found by
/// selection instead of a full sort.  Quantiles of one vector go in
/// ascending q through the shared `from` (start it at 0), so each one
/// searches only the part above the previous one.
double select_percentile(std::vector<double>& v, std::size_t& from, double q) {
  const double idx = q * (static_cast<double>(v.size()) - 1.0);
  const auto lo = static_cast<std::size_t>(idx);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double t = idx - static_cast<double>(lo);
  const double below = select_rank(v, from, lo);
  const double above = select_rank(v, from, hi);
  return below * (1.0 - t) + above * t;
}

/// Samples per parallel chunk; the chunk grid depends only on the
/// sample count, so results are thread-count invariant.
constexpr std::int64_t kSampleGrain = 128;

std::vector<double> sample_costs(const UncertainInputs& inputs, double s_d, int samples,
                                 std::uint64_t seed, exec::ThreadPool* pool) {
  if (samples < 10) {
    throw std::invalid_argument("risk analysis needs at least 10 samples");
  }
  std::vector<double> costs(static_cast<std::size_t>(samples));
  exec::parallel_for(pool, samples, kSampleGrain, [&](std::int64_t begin, std::int64_t end) {
    risk_sample_cost_batch(inputs, s_d, seed, static_cast<std::uint64_t>(begin),
                           static_cast<std::size_t>(end - begin),
                           costs.data() + begin);
  });
  return costs;
}

}  // namespace

double risk_sample_cost(const UncertainInputs& inputs, double s_d, std::uint64_t seed,
                        std::uint64_t index) {
  // One RNG per scenario, derived from the sample index: scenario i
  // is the same no matter which thread (or grid point) evaluates it.
  // SplitMix64 + Box-Muller (exec/rng.hpp): the scenario needs exactly
  // four Gaussians, a Mersenne Twister's construction (312-word state
  // expansion) cost more than the whole pricing, and the
  // fixed-consumption stream is also what lets risk_sample_cost_batch
  // reproduce this function bitwise.
  exec::SplitMix64 rng(exec::SeedSequence::for_task(seed, index));
  const exec::GaussPair g12 = exec::gauss_pair(rng);
  const exec::GaussPair g34 = exec::gauss_pair(rng);

  Eq4Inputs draw = inputs.nominal;
  const double y = inputs.nominal.yield.value() + inputs.yield_sigma * g12.z0;
  draw.yield = units::Probability::clamped(std::max(y, 0.01));
  draw.manufacturing_cost =
      inputs.nominal.manufacturing_cost * std::exp(inputs.cm_sq_sigma_rel * g12.z1);
  draw.n_wafers = inputs.nominal.n_wafers * std::exp(inputs.volume_sigma_rel * g34.z0);
  cost::DesignCostParams params = inputs.nominal.design_model.params();
  params.a0 *= std::exp(inputs.design_cost_sigma_rel * g34.z1);
  draw.design_model = cost::DesignCostModel{params};

  return robust::observe(kSampleFaultSite, index,
                         cost_per_transistor_eq4(draw, s_d).total.value());
}

void risk_sample_cost_batch_at(exec::SimdLevel level, const UncertainInputs& inputs,
                               double s_d, std::uint64_t seed, std::uint64_t index0,
                               std::size_t n, double* out) {
  const Eq4Inputs& nom = inputs.nominal;
  const cost::DesignCostParams& params = nom.design_model.params();

  // Everything the scalar kernel validates per sample that does not
  // depend on the draws is checked once here; a violation routes the
  // whole batch through the scalar kernel so the exact per-sample
  // exception (and its message) fires unchanged.
  const bool nominal_ok =
      std::isfinite(s_d) && s_d > 0.0 && std::isfinite(nom.lambda.value()) &&
      nom.lambda.value() > 0.0 && std::isfinite(nom.manufacturing_cost.value()) &&
      nom.manufacturing_cost.value() > 0.0 && std::isfinite(nom.transistors_per_chip) &&
      nom.transistors_per_chip > 0.0 && std::isfinite(nom.yield.value()) &&
      nom.utilization.value() > 0.0 && std::isfinite(nom.mask_cost.value()) &&
      nom.mask_cost.value() >= 0.0 && std::isfinite(nom.wafer_area.value()) &&
      nom.wafer_area.value() > 0.0 && s_d > params.s_d0;
  if (!nominal_ok) {
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = risk_sample_cost(inputs, s_d, seed, index0 + i);
    }
    return;
  }

  // Constants of the eq.-4/eq.-6 evaluation that the scalar kernel
  // recomputes per scenario: the two pow() terms (by far its hottest
  // libm calls), lambda^2, and the clamp bound.  Reused verbatim, the
  // batched arithmetic below stays bitwise equal to the scalar chain.
  const double pow_t = std::pow(nom.transistors_per_chip, params.p1);
  const double pow_den = std::pow(s_d - params.s_d0, params.p2);
  const double l_cm = nom.lambda.to_centimeters().value();
  const double l2 = l_cm * l_cm;
  const double util = nom.utilization.value();
  const double nominal_yield = nom.yield.value();
  const double nominal_mc = nom.manufacturing_cost.value();
  const double nominal_nw = nom.n_wafers;
  const double nominal_a0 = params.a0;
  const double mask = nom.mask_cost.value();
  const double area = nom.wafer_area.value();

  constexpr std::size_t kTile = 128;
  std::uint64_t seeds[kTile];
  std::uint64_t col[kTile];
  double u1a[kTile], u2a[kTile], u1b[kTile], u2b[kTile];

  for (std::size_t t0 = 0; t0 < n; t0 += kTile) {
    const std::size_t tn = n - t0 < kTile ? n - t0 : kTile;
    // Columns: output j of every scenario's stream at once.  Outputs
    // 1/3 feed the (0,1] u1 mapping of the two gauss_pair calls,
    // outputs 2/4 the [0,1) u2 mapping -- the identical bits the
    // scalar kernel consumes.
    exec::for_task_batch_at(level, seed, index0 + t0, seeds, tn);
    exec::mix_add_batch_at(level, seeds, 1 * exec::kGoldenGamma, col, tn);
    exec::u53_to_unit_pos_batch_at(level, col, u1a, tn);
    exec::mix_add_batch_at(level, seeds, 2 * exec::kGoldenGamma, col, tn);
    exec::u53_to_unit_batch_at(level, col, u2a, tn);
    exec::mix_add_batch_at(level, seeds, 3 * exec::kGoldenGamma, col, tn);
    exec::u53_to_unit_pos_batch_at(level, col, u1b, tn);
    exec::mix_add_batch_at(level, seeds, 4 * exec::kGoldenGamma, col, tn);
    exec::u53_to_unit_batch_at(level, col, u2b, tn);

    for (std::size_t i = 0; i < tn; ++i) {
      const std::uint64_t index = index0 + t0 + i;
      // Box-Muller exactly as exec::gauss_pair spells it.
      const double r1 = std::sqrt(-2.0 * std::log(u1a[i]));
      const double t1 = exec::kTwoPi * u2a[i];
      const double g_yield = r1 * std::cos(t1);
      const double g_mc = r1 * std::sin(t1);
      const double r2 = std::sqrt(-2.0 * std::log(u1b[i]));
      const double t2 = exec::kTwoPi * u2b[i];
      const double g_nw = r2 * std::cos(t2);
      const double g_a0 = r2 * std::sin(t2);

      // std::max(y, 0.01) then Probability::clamped, written out.
      const double y = nominal_yield + inputs.yield_sigma * g_yield;
      const double y_floored = y < 0.01 ? 0.01 : y;
      const double mc = nominal_mc * std::exp(inputs.cm_sq_sigma_rel * g_mc);
      const double nw = nominal_nw * std::exp(inputs.volume_sigma_rel * g_nw);
      const double a0 = nominal_a0 * std::exp(inputs.design_cost_sigma_rel * g_a0);
      const double c_de = a0 * pow_t / pow_den;
      // A draw the validators would reject (NaN sigma, exp overflow to
      // inf, underflow to zero) goes back through the scalar kernel so
      // its exception surfaces identically.
      if (!(y_floored > 0.0) || !(std::isfinite(mc) && mc > 0.0) ||
          !(std::isfinite(nw) && nw > 0.0) || !(std::isfinite(a0) && a0 > 0.0) ||
          !std::isfinite(c_de)) {
        out[t0 + i] = risk_sample_cost(inputs, s_d, seed, index);
        continue;
      }
      const double yield_v = y_floored > 1.0 ? 1.0 : y_floored;
      const double cd_sq = (mask + c_de) / (area * nw);  // eq. (5)
      const double uy = util * yield_v;
      const double manufacturing = l2 * s_d * mc / uy;  // eq. (4)
      const double design = l2 * s_d * cd_sq / uy;
      out[t0 + i] = robust::observe(kSampleFaultSite, index, manufacturing + design);
    }
  }
}

void risk_sample_cost_batch(const UncertainInputs& inputs, double s_d, std::uint64_t seed,
                            std::uint64_t index0, std::size_t n, double* out) {
  risk_sample_cost_batch_at(exec::simd_level(), inputs, s_d, seed, index0, n, out);
}

RiskResult summarize_cost_samples(std::vector<double> costs, const UncertainInputs& inputs,
                                  double die_budget) {
  if (costs.size() < 2) {
    throw std::invalid_argument("risk summary needs at least 2 cost samples");
  }
  RiskResult result;
  double sum = 0.0;
  int over = 0;
  for (const double c : costs) {
    sum += c;
    if (die_budget > 0.0 &&
        c * inputs.nominal.transistors_per_chip > die_budget) {
      ++over;
    }
  }
  result.mean = sum / static_cast<double>(costs.size());
  double ss = 0.0;
  for (const double c : costs) ss += (c - result.mean) * (c - result.mean);
  result.stddev = std::sqrt(ss / static_cast<double>(costs.size() - 1));
  std::size_t placed = 0;
  result.p10 = select_percentile(costs, placed, 0.10);
  result.p50 = select_percentile(costs, placed, 0.50);
  result.p90 = select_percentile(costs, placed, 0.90);
  result.prob_over_budget =
      die_budget > 0.0 ? static_cast<double>(over) / static_cast<double>(costs.size())
                       : 0.0;
  return result;
}

RiskResult monte_carlo_cost(const UncertainInputs& inputs, double s_d, int samples,
                            std::uint64_t seed, double die_budget,
                            exec::ThreadPool* pool) {
  std::vector<double> costs = sample_costs(inputs, s_d, samples, seed, pool);
  // risk -> consumer boundary: a NaN sample (model escape or injected
  // poison) must surface as a named diagnostic, not as a NaN mean that
  // silently corrupts every quantile and optimizer decision downstream.
  robust::check_finite_range(costs.data(), costs.size(), "risk.samples");
  return summarize_cost_samples(std::move(costs), inputs, die_budget);
}

namespace {

struct SweepOutcome {
  RobustOptimum best;
  exec::LoopStatus status;
};

SweepOutcome robust_sd_impl(const UncertainInputs& inputs, double quantile, double lo,
                            double hi, int steps, int samples, std::uint64_t seed,
                            exec::ThreadPool* pool, const robust::CancelToken& token) {
  if (!(quantile > 0.0 && quantile < 1.0)) {
    throw std::invalid_argument("quantile must be in (0, 1)");
  }
  if (!(lo > 0.0 && lo < hi) || steps < 2) {
    throw std::invalid_argument("robust sweep needs 0 < lo < hi and steps >= 2");
  }
  const double ratio = std::log(hi / lo) / (steps - 1);
  std::vector<double> grid(static_cast<std::size_t>(steps));
  for (int i = 0; i < steps; ++i) grid[static_cast<std::size_t>(i)] = lo * std::exp(ratio * i);

  // Grid points are independent and run in parallel; common random
  // numbers hold because scenario seeds derive from (seed, sample
  // index) only -- every grid point prices the identical scenario set.
  // The nested sample_costs loop runs inline on the worker lane.
  std::vector<double> quantile_cost(grid.size());
  const exec::LoopStatus status = exec::parallel_for_cancellable(
      pool, steps, 1, token, [&](std::int64_t begin, std::int64_t end) {
        for (std::int64_t i = begin; i < end; ++i) {
          std::vector<double> costs =
              sample_costs(inputs, grid[static_cast<std::size_t>(i)], samples, seed, pool);
          std::size_t placed = 0;
          quantile_cost[static_cast<std::size_t>(i)] =
              select_percentile(costs, placed, quantile);
        }
      });

  // risk -> optimizer boundary: the sweep must not pick an optimum off
  // a poisoned quantile.  Only the completed prefix is trusted.
  robust::check_finite_range(quantile_cost.data(),
                             static_cast<std::size_t>(status.frontier), "risk.quantile");

  SweepOutcome out;
  out.status = status;
  if (status.frontier > 0) {
    out.best.quantile_cost = 1e300;
    for (std::int64_t i = 0; i < status.frontier; ++i) {
      if (quantile_cost[static_cast<std::size_t>(i)] < out.best.quantile_cost) {
        out.best.quantile_cost = quantile_cost[static_cast<std::size_t>(i)];
        out.best.s_d = grid[static_cast<std::size_t>(i)];
      }
    }
  }
  return out;
}

}  // namespace

RobustOptimum robust_sd(const UncertainInputs& inputs, double quantile, double lo,
                        double hi, int steps, int samples, std::uint64_t seed,
                        exec::ThreadPool* pool) {
  // An invalid token never cancels: the loop delegates to the plain
  // parallel_for and the frontier always spans the whole grid.
  return robust_sd_impl(inputs, quantile, lo, hi, steps, samples, seed, pool,
                        robust::CancelToken{})
      .best;
}

PartialSweep robust_sd_partial(const UncertainInputs& inputs, double quantile, double lo,
                               double hi, int steps, int samples, std::uint64_t seed,
                               exec::ThreadPool* pool) {
  const SweepOutcome o = robust_sd_impl(inputs, quantile, lo, hi, steps, samples, seed,
                                        pool, robust::current_cancel_token());
  PartialSweep out;
  out.optimum = o.best;
  out.completed_steps = static_cast<int>(o.status.frontier);
  out.completeness = o.status.completeness();
  out.frontier_chunks = o.status.frontier;
  out.cancelled = o.status.cancelled;
  return out;
}

}  // namespace nanocost::core
