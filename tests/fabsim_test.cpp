#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "nanocost/fabsim/economics.hpp"
#include "nanocost/fabsim/simulator.hpp"
#include "nanocost/yield/models.hpp"

namespace nanocost::fabsim {
namespace {

using units::Micrometers;
using units::Millimeters;
using units::SquareCentimeters;

defect::WireArray reference_pattern() {
  return defect::WireArray{Micrometers{0.25}, Micrometers{0.25}, Micrometers{100.0}, 50};
}

FabSimulator make_simulator(double density, bool clustered = false,
                            double alpha = 2.0) {
  defect::DefectFieldParams field;
  field.density_per_cm2 = density;
  field.clustered = clustered;
  field.cluster_alpha = alpha;
  return FabSimulator{FabConfig{geometry::WaferSpec::mm200(),
                      geometry::DieSize{Millimeters{12.0}, Millimeters{12.0}},
                      defect::DefectSizeDistribution::for_feature_size(Micrometers{0.25}),
                      field, reference_pattern()}};
}

TEST(KillModel, ProbabilityIsBoundedAndMonotone) {
  const DieKillModel kill{reference_pattern(), SquareCentimeters{1.44}};
  double prev = -1.0;
  for (double x = 0.1; x < 30.0; x *= 1.4) {
    const double p = kill.kill_probability(Micrometers{x});
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
    EXPECT_GE(p, prev);
    prev = p;
  }
  // Defects below spacing and width are harmless.
  EXPECT_DOUBLE_EQ(kill.kill_probability(Micrometers{0.2}), 0.0);
}

TEST(KillModel, MeanFaultsScaleWithDensityAndArea) {
  const auto sizes = defect::DefectSizeDistribution::for_feature_size(Micrometers{0.25});
  const DieKillModel small{reference_pattern(), SquareCentimeters{1.0}};
  const DieKillModel large{reference_pattern(), SquareCentimeters{2.0}};
  EXPECT_NEAR(small.mean_faults_per_die(1.0, sizes) * 2.0,
              large.mean_faults_per_die(1.0, sizes), 1e-12);
  EXPECT_NEAR(small.mean_faults_per_die(0.5, sizes) * 2.0,
              small.mean_faults_per_die(1.0, sizes), 1e-12);
}

TEST(Simulator, ZeroDefectsMeansPerfectYield) {
  const auto sim = make_simulator(0.0);
  const LotResult lot = sim.run(5);
  EXPECT_DOUBLE_EQ(lot.yield(), 1.0);
  EXPECT_EQ(lot.good_dies, lot.total_dies);
}

TEST(Simulator, MatchesPoissonAnalyticYield) {
  // Uniform (unclustered) defects -> die kills are Poisson with the
  // analytic mean; measured yield must match exp(-lambda) within MC
  // error over a decent run.
  const auto sim = make_simulator(0.4);
  const double lambda = sim.analytic_mean_faults();
  ASSERT_GT(lambda, 0.05);
  const LotResult lot = sim.run(300, 99);
  const double expected = std::exp(-lambda);
  EXPECT_NEAR(lot.yield(), expected, 0.02);
}

TEST(Simulator, FaultCountStatisticsArePoissonWhenUnclustered) {
  const auto sim = make_simulator(0.8);
  const LotResult lot = sim.run(200, 5);
  // Poisson: variance == mean (allow MC slack).
  const double ratio = lot.fault_variance() / lot.fault_mean();
  EXPECT_NEAR(ratio, 1.0, 0.15);
}

TEST(Simulator, ClusteringInflatesFaultVarianceAndYield) {
  const double alpha = 0.5;
  const auto plain = make_simulator(0.8);
  const auto clustered = make_simulator(0.8, true, alpha);
  const LotResult lot_plain = plain.run(2000, 5);
  const LotResult lot_clustered = clustered.run(2000, 5);
  // Gamma-mixed Poisson faults: variance / mean = 1 + lambda / alpha
  // (1.658 here).  Over seeds a 2000-wafer lot spreads by about 0.04.
  const double ratio = lot_clustered.fault_variance() / lot_clustered.fault_mean();
  EXPECT_GT(ratio, 1.5);
  EXPECT_NEAR(ratio, 1.0 + clustered.analytic_mean_faults() / alpha, 0.2);
  // Same mean defect pressure, but clustering spares more dies.
  EXPECT_GT(lot_clustered.yield(), lot_plain.yield());
}

TEST(Simulator, ClusteredYieldTracksNegativeBinomial) {
  const double alpha = 1.0;
  const auto sim = make_simulator(0.6, true, alpha);
  const double lambda = sim.analytic_mean_faults();
  const LotResult lot = sim.run(400, 123);
  const double expected = yield::NegativeBinomialYield{alpha}.yield(lambda).value();
  EXPECT_NEAR(lot.yield(), expected, 0.03);
}

TEST(Simulator, HigherDensityLowersYield) {
  const LotResult clean = make_simulator(0.2).run(50, 3);
  const LotResult dirty = make_simulator(1.5).run(50, 3);
  EXPECT_GT(clean.yield(), dirty.yield());
}

TEST(Simulator, RampImprovesYieldOverTime) {
  const auto sim = make_simulator(1.0);
  const yield::LearningCurve curve{2.0, 0.2, 2000.0};
  const auto checkpoints = sim.run_ramp(curve, 6000, 2000, 31);
  ASSERT_EQ(checkpoints.size(), 3u);
  EXPECT_LT(checkpoints.front().yield(), checkpoints.back().yield());
}

TEST(Simulator, ResultBookkeepingConsistent) {
  const auto sim = make_simulator(0.7);
  const LotResult lot = sim.run(20, 9);
  ASSERT_EQ(lot.wafers.size(), 20u);
  std::int64_t good = 0, total = 0, hist_total = 0;
  for (const WaferResult& w : lot.wafers) {
    EXPECT_LE(w.good_dies, w.gross_dies);
    EXPECT_LE(w.defects_on_dies, w.defects);
    good += w.good_dies;
    total += w.gross_dies;
  }
  for (const std::int64_t h : lot.fault_histogram) hist_total += h;
  EXPECT_EQ(good, lot.good_dies);
  EXPECT_EQ(total, lot.total_dies);
  EXPECT_EQ(hist_total, lot.total_dies);
}

TEST(Simulator, Validation) {
  EXPECT_THROW(make_simulator(0.5).run(0), std::invalid_argument);
  defect::DefectFieldParams field;
  EXPECT_THROW(FabSimulator(FabConfig{geometry::WaferSpec::mm150(),
                            geometry::DieSize{Millimeters{200.0}, Millimeters{200.0}},
                            defect::DefectSizeDistribution::for_feature_size(
                                Micrometers{0.25}),
                            field, reference_pattern()}),
               std::invalid_argument);
}

TEST(Economics, PricesLotFromMeasuredYield) {
  const auto sim = make_simulator(0.5);
  const LotResult lot = sim.run(50, 21);
  const cost::WaferCostModel wafer_model{Micrometers{0.25}, geometry::WaferSpec::mm200(),
                                         24};
  const RunEconomics econ = price_lot(lot, wafer_model, 1e7);
  EXPECT_GT(econ.good_dies, 0);
  EXPECT_NEAR(econ.total_cost.value(), econ.wafer_cost.value() * 50.0, 1e-6);
  EXPECT_NEAR(econ.cost_per_good_die.value(),
              econ.total_cost.value() / static_cast<double>(econ.good_dies), 1e-9);
  EXPECT_NEAR(econ.cost_per_good_transistor.value(),
              econ.cost_per_good_die.value() / 1e7, 1e-18);
  EXPECT_DOUBLE_EQ(econ.measured_yield, lot.yield());
}

TEST(Economics, WorseYieldMeansPricierDies) {
  const cost::WaferCostModel wafer_model{Micrometers{0.25}, geometry::WaferSpec::mm200(),
                                         24};
  const RunEconomics clean = price_lot(make_simulator(0.2).run(50, 2), wafer_model, 1e7);
  const RunEconomics dirty = price_lot(make_simulator(1.5).run(50, 2), wafer_model, 1e7);
  EXPECT_GT(dirty.cost_per_good_die.value(), clean.cost_per_good_die.value());
}

TEST(Simulator, SnapshotFaultsMatchesMapSites) {
  const auto sim = make_simulator(1.0);
  const auto faults = sim.snapshot_faults(5);
  EXPECT_EQ(static_cast<std::int64_t>(faults.size()), sim.wafer_map().die_count());
  std::int64_t total = 0;
  for (const std::int32_t f : faults) {
    EXPECT_GE(f, 0);
    total += f;
  }
  EXPECT_GT(total, 0);  // at 1 defect/cm^2 some dies are hit
  // Deterministic per seed.
  EXPECT_EQ(sim.snapshot_faults(5), faults);
  EXPECT_NE(sim.snapshot_faults(6), faults);
}

TEST(Economics, RejectsEmptyLots) {
  const cost::WaferCostModel wafer_model{Micrometers{0.25}, geometry::WaferSpec::mm200(),
                                         24};
  EXPECT_THROW(price_lot(LotResult{}, wafer_model, 1e7), std::invalid_argument);
}

}  // namespace
}  // namespace nanocost::fabsim
