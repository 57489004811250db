// Reproducibility of the parallel Monte-Carlo hot paths: every parallel
// entry point must produce bitwise-identical results for thread counts
// {1, 2, hardware_concurrency} and across repeated invocations with the
// same seed, and the kill-probability LUT must agree with the direct
// critical-area evaluation across the defect-size support.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "nanocost/core/optimizer.hpp"
#include "nanocost/core/risk.hpp"
#include "nanocost/exec/thread_pool.hpp"
#include "nanocost/fabsim/simulator.hpp"
#include "nanocost/layout/generators.hpp"
#include "nanocost/netlist/generator.hpp"
#include "nanocost/place/placer.hpp"
#include "nanocost/regularity/window_sweep.hpp"

namespace nanocost {
namespace {

using units::Micrometers;
using units::Millimeters;

std::vector<int> test_thread_counts() {
  std::vector<int> counts{1, 2};
  const int hw = exec::ThreadPool::default_thread_count();
  if (hw != 1 && hw != 2) counts.push_back(hw);
  return counts;
}

defect::WireArray reference_pattern() {
  return defect::WireArray{Micrometers{0.25}, Micrometers{0.25}, Micrometers{100.0}, 50};
}

fabsim::FabSimulator make_simulator(double density, bool clustered = false,
                                    double alpha = 2.0) {
  defect::DefectFieldParams field;
  field.density_per_cm2 = density;
  field.clustered = clustered;
  field.cluster_alpha = alpha;
  return fabsim::FabSimulator{fabsim::FabConfig{
      geometry::WaferSpec::mm200(), geometry::DieSize{Millimeters{12.0}, Millimeters{12.0}},
      defect::DefectSizeDistribution::for_feature_size(Micrometers{0.25}), field,
      reference_pattern()}};
}

void expect_identical(const fabsim::LotResult& a, const fabsim::LotResult& b) {
  EXPECT_EQ(a.total_dies, b.total_dies);
  EXPECT_EQ(a.good_dies, b.good_dies);
  ASSERT_EQ(a.wafers.size(), b.wafers.size());
  for (std::size_t i = 0; i < a.wafers.size(); ++i) {
    EXPECT_EQ(a.wafers[i].gross_dies, b.wafers[i].gross_dies) << "wafer " << i;
    EXPECT_EQ(a.wafers[i].good_dies, b.wafers[i].good_dies) << "wafer " << i;
    EXPECT_EQ(a.wafers[i].defects, b.wafers[i].defects) << "wafer " << i;
    EXPECT_EQ(a.wafers[i].defects_on_dies, b.wafers[i].defects_on_dies) << "wafer " << i;
  }
  EXPECT_EQ(a.fault_histogram, b.fault_histogram);
}

TEST(Determinism, FabRunIsThreadCountInvariant) {
  const auto sim = make_simulator(0.8, true, 1.0);
  exec::ThreadPool serial(1);
  const fabsim::LotResult reference = sim.run(60, 7, &serial);
  for (const int threads : test_thread_counts()) {
    exec::ThreadPool pool(threads);
    expect_identical(sim.run(60, 7, &pool), reference);
  }
  // Same seed, same pool, second invocation: identical again.
  exec::ThreadPool pool(2);
  expect_identical(sim.run(60, 7, &pool), sim.run(60, 7, &pool));
  // A different seed must not reproduce the lot.
  EXPECT_NE(sim.run(60, 8, &serial).good_dies, reference.good_dies);
}

TEST(Determinism, FabRampIsThreadCountInvariant) {
  const auto sim = make_simulator(1.0);
  const yield::LearningCurve curve{2.0, 0.2, 500.0};
  exec::ThreadPool serial(1);
  const auto reference = sim.run_ramp(curve, 900, 300, 31, &serial);
  ASSERT_EQ(reference.size(), 3u);
  for (const int threads : test_thread_counts()) {
    exec::ThreadPool pool(threads);
    const auto run = sim.run_ramp(curve, 900, 300, 31, &pool);
    ASSERT_EQ(run.size(), reference.size());
    for (std::size_t c = 0; c < run.size(); ++c) expect_identical(run[c], reference[c]);
  }
}

TEST(Determinism, MonteCarloCostIsThreadCountInvariant) {
  core::UncertainInputs inputs;
  inputs.nominal.transistors_per_chip = 1e7;
  inputs.nominal.n_wafers = 10000.0;
  exec::ThreadPool serial(1);
  const core::RiskResult reference = core::monte_carlo_cost(inputs, 300.0, 4000, 9, 0.0,
                                                            &serial);
  for (const int threads : test_thread_counts()) {
    exec::ThreadPool pool(threads);
    const core::RiskResult run = core::monte_carlo_cost(inputs, 300.0, 4000, 9, 0.0, &pool);
    EXPECT_EQ(run.mean, reference.mean);
    EXPECT_EQ(run.stddev, reference.stddev);
    EXPECT_EQ(run.p10, reference.p10);
    EXPECT_EQ(run.p50, reference.p50);
    EXPECT_EQ(run.p90, reference.p90);
    EXPECT_EQ(run.prob_over_budget, reference.prob_over_budget);
  }
  // Repeat invocation with the same seed: bitwise identical.
  const core::RiskResult again = core::monte_carlo_cost(inputs, 300.0, 4000, 9, 0.0,
                                                        &serial);
  EXPECT_EQ(again.mean, reference.mean);
  EXPECT_EQ(again.p90, reference.p90);
}

TEST(Determinism, RobustSdIsThreadCountInvariant) {
  core::UncertainInputs inputs;
  inputs.nominal.transistors_per_chip = 1e7;
  inputs.nominal.n_wafers = 10000.0;
  exec::ThreadPool serial(1);
  const core::RobustOptimum reference =
      core::robust_sd(inputs, 0.9, 120.0, 1500.0, 12, 600, 3, &serial);
  for (const int threads : test_thread_counts()) {
    exec::ThreadPool pool(threads);
    const core::RobustOptimum run =
        core::robust_sd(inputs, 0.9, 120.0, 1500.0, 12, 600, 3, &pool);
    EXPECT_EQ(run.s_d, reference.s_d);
    EXPECT_EQ(run.quantile_cost, reference.quantile_cost);
  }
}

TEST(Determinism, SweepsAreThreadCountInvariant) {
  core::Eq4Inputs eq4;
  eq4.n_wafers = 5000.0;
  exec::ThreadPool serial(1);
  const auto reference = core::sweep_eq4(eq4, 120.0, 1500.0, 40, &serial);
  for (const int threads : test_thread_counts()) {
    exec::ThreadPool pool(threads);
    const auto run = core::sweep_eq4(eq4, 120.0, 1500.0, 40, &pool);
    ASSERT_EQ(run.size(), reference.size());
    for (std::size_t i = 0; i < run.size(); ++i) {
      EXPECT_EQ(run[i].s_d, reference[i].s_d);
      EXPECT_EQ(run[i].breakdown.total.value(), reference[i].breakdown.total.value());
    }
  }

  layout::Library lib;
  const layout::Cell* sram = layout::make_sram_array(lib, 32, 32);
  const auto window_reference = regularity::sweep_windows(*sram, 12, 5, false, &serial);
  for (const int threads : test_thread_counts()) {
    exec::ThreadPool pool(threads);
    const auto run = regularity::sweep_windows(*sram, 12, 5, false, &pool);
    ASSERT_EQ(run.size(), window_reference.size());
    for (std::size_t i = 0; i < run.size(); ++i) {
      EXPECT_EQ(run[i].window, window_reference[i].window);
      EXPECT_EQ(run[i].total_windows, window_reference[i].total_windows);
      EXPECT_EQ(run[i].unique_patterns, window_reference[i].unique_patterns);
      EXPECT_EQ(run[i].regularity_index, window_reference[i].regularity_index);
    }
  }
}

TEST(KillLut, AgreesWithDirectEvaluationAcrossTheSupport) {
  const auto sizes = defect::DefectSizeDistribution::for_feature_size(Micrometers{0.25});
  const fabsim::DieKillModel kill{reference_pattern(), units::SquareCentimeters{1.44}};
  const fabsim::KillProbabilityLut lut{kill, sizes.xmin(), sizes.xmax()};
  EXPECT_GT(lut.interpolated_bins(), lut.bins() / 2);

  const double a = sizes.xmin().value();
  const double b = sizes.xmax().value();
  // Dense log grid plus random draws from the actual distribution.
  const int grid = 20000;
  const double step = std::log(b / a) / grid;
  exec::SplitMix64 rng(404);
  std::vector<double> drawn(2000);
  sizes.sample_batch_at(exec::simd_level(), rng, drawn.data(), drawn.size());
  for (int i = 0; i <= grid + 2000; ++i) {
    const double x = i <= grid ? a * std::exp(i * step)
                               : drawn[static_cast<std::size_t>(i - grid - 1)];
    const double direct = kill.kill_probability(Micrometers{x});
    const double tabulated = lut(Micrometers{x});
    EXPECT_LE(std::abs(tabulated - direct), 1e-6 * std::max(direct, 1e-300))
        << "size " << x;
  }
  // Outside the support the LUT falls back to the model.
  EXPECT_EQ(lut(Micrometers{a * 0.5}), kill.kill_probability(Micrometers{a * 0.5}));
  EXPECT_EQ(lut(Micrometers{b * 2.0}), kill.kill_probability(Micrometers{b * 2.0}));
}

TEST(KillLut, ValidatesInputs) {
  const fabsim::DieKillModel kill{reference_pattern(), units::SquareCentimeters{1.44}};
  EXPECT_THROW(fabsim::KillProbabilityLut(kill, Micrometers{1.0}, Micrometers{0.5}),
               std::invalid_argument);
  EXPECT_THROW(fabsim::KillProbabilityLut(kill, Micrometers{0.1}, Micrometers{10.0}, 2),
               std::invalid_argument);
}

TEST(Determinism, MultistartPlacementIsThreadCountInvariant) {
  netlist::GeneratorParams gen;
  gen.gate_count = 150;
  gen.locality = 0.4;
  const netlist::Netlist nl = netlist::generate_random_logic(gen);

  place::AnnealParams params;
  params.seed = 13;
  exec::ThreadPool serial(1);
  const place::MultistartResult reference =
      place::anneal_place_multistart(nl, 12, 16, 6, params, &serial);
  ASSERT_EQ(reference.starts, 6);
  ASSERT_EQ(reference.start_hpwls.size(), 6u);

  for (const int threads : test_thread_counts()) {
    exec::ThreadPool pool(threads);
    const place::MultistartResult run =
        place::anneal_place_multistart(nl, 12, 16, 6, params, &pool);
    // Bitwise-identical winner (HPWL doubles and the full placement),
    // start index, and the whole per-start HPWL vector.
    EXPECT_EQ(run.best_start, reference.best_start);
    EXPECT_EQ(run.best.final_hpwl, reference.best.final_hpwl);
    EXPECT_EQ(run.best.initial_hpwl, reference.best.initial_hpwl);
    EXPECT_EQ(run.start_hpwls, reference.start_hpwls);
    for (std::int32_t g = 0; g < nl.gate_count(); ++g) {
      ASSERT_EQ(run.best.placement.site_of(g), reference.best.placement.site_of(g));
    }
  }
}

TEST(Determinism, GlobalPoolPathMatchesExplicitPools) {
  // The default (null pool) entry points route to the global pool and
  // must agree with an explicit serial pool.
  const auto sim = make_simulator(0.5);
  exec::ThreadPool serial(1);
  expect_identical(sim.run(20, 11), sim.run(20, 11, &serial));
}

}  // namespace
}  // namespace nanocost
