#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <functional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "nanocost/exec/thread_pool.hpp"
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

FabSimulator make_simulator(double density, bool clustered = false, double alpha = 2.0,
                            geometry::WaferSpec wafer = geometry::WaferSpec::mm200(),
                            double die_mm = 12.0) {
  defect::DefectFieldParams field;
  field.density_per_cm2 = density;
  field.clustered = clustered;
  field.cluster_alpha = alpha;
  return FabSimulator{FabConfig{wafer, geometry::DieSize{Millimeters{die_mm}, Millimeters{die_mm}},
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

/// Every output of a run, flattened for exact comparison: each wafer's
/// fields, then the die fault histogram, then the totals.
std::vector<std::int64_t> flatten(const WaferResult* wafers, std::size_t n,
                                  const std::vector<std::int64_t>& histogram,
                                  std::int64_t total_dies = 0, std::int64_t good_dies = 0) {
  std::vector<std::int64_t> out;
  for (std::size_t i = 0; i < n; ++i) {
    out.insert(out.end(), {wafers[i].gross_dies, wafers[i].good_dies, wafers[i].defects,
                           wafers[i].defects_on_dies});
  }
  out.insert(out.end(), histogram.begin(), histogram.end());
  out.insert(out.end(), {total_dies, good_dies});
  return out;
}

TEST(Simulator, ThreadScratchReuseIsInvisible) {
  // Wafer columns belong to the thread, so each call below inherits what
  // the one before left in them: other die counts, other densities, and
  // wafers past the retention cap.  Each must equal the same call on a
  // fresh thread, whose columns start empty.
  exec::ThreadPool serial(1);  // run() inline on the calling thread
  const auto mm300 = geometry::WaferSpec::mm300();
  const FabSimulator dense = make_simulator(3.0, true, 2.0, mm300, 13.0);
  const FabSimulator small_dies = make_simulator(1.0, false, 2.0, geometry::WaferSpec::mm200(),
                                                 4.0);
  const FabSimulator sparse = make_simulator(0.3, true, 0.5, geometry::WaferSpec::mm150(), 20.0);
  const FabSimulator huge = make_simulator(200.0, false, 2.0, mm300, 13.0);

  const auto units = [](const FabSimulator& sim, std::int64_t begin, std::int64_t end,
                        std::uint64_t seed) {
    return [&sim, begin, end, seed] {
      std::vector<WaferResult> wafers(static_cast<std::size_t>(end - begin));
      std::vector<std::int64_t> histogram;
      sim.run_units(begin, end, seed, wafers.data(), histogram);
      return flatten(wafers.data(), wafers.size(), histogram);
    };
  };
  const auto run = [&serial](const FabSimulator& sim, std::int64_t n, std::uint64_t seed) {
    return [&sim, &serial, n, seed] {
      const LotResult lot = sim.run(n, seed, &serial);
      return flatten(lot.wafers.data(), lot.wafers.size(), lot.fault_histogram,
                     lot.total_dies, lot.good_dies);
    };
  };
  const std::vector<std::function<std::vector<std::int64_t>()>> calls = {
      units(dense, 0, 6, 11),  run(small_dies, 5, 12), units(huge, 2, 4, 13),
      run(sparse, 7, 14),      units(small_dies, 1, 4, 15), run(dense, 9, 16),
      run(huge, 2, 17),        units(sparse, 3, 9, 18),     units(dense, 5, 6, 19),
  };
  for (std::size_t c = 0; c < calls.size(); ++c) {
    const std::vector<std::int64_t> reused = calls[c]();
    std::vector<std::int64_t> fresh;
    std::thread([&] { fresh = calls[c](); }).join();
    EXPECT_EQ(reused, fresh) << "call " << c;
  }

  // The huge configuration really does pass the cap.
  WaferResult wafer;
  std::vector<std::int64_t> histogram;
  huge.run_units(0, 1, 13, &wafer, histogram);
  EXPECT_GT(static_cast<std::size_t>(wafer.defects) * sizeof(double),
            2 * FabSimulator::kRetainedColumnBytes);
}

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

/// This process's peak resident set (VmHWM) in KiB; 0 when unreadable.
std::int64_t peak_rss_kib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stoll(line.substr(6));
  }
  return 0;
}

TEST(Simulator, LotMemoryIsBoundedByThreadsNotWafers) {
  if (kSanitized) GTEST_SKIP() << "sanitizer allocators hold on to freed memory";
  exec::ThreadPool pool(4);
  const FabSimulator sim = make_simulator(3.0, true, 2.0, geometry::WaferSpec::mm300(), 13.0);
  const std::int64_t before = peak_rss_kib();
  if (before == 0) GTEST_SKIP() << "no VmHWM in /proc/self/status";
  const LotResult lot = sim.run(2000, 7, &pool);
  const std::int64_t growth_kib = peak_rss_kib() - before;
  ASSERT_EQ(lot.wafers.size(), 2000u);
  // Four lanes' columns (under 1 MiB each for this lot) and 500 small
  // chunk histograms.  A column set per chunk, kept until the merge,
  // grows this lot's peak by over 100 MiB.
  EXPECT_LT(growth_kib, 16 * 1024);
}

TEST(Economics, RejectsEmptyLots) {
  const cost::WaferCostModel wafer_model{Micrometers{0.25}, geometry::WaferSpec::mm200(),
                                         24};
  EXPECT_THROW(price_lot(LotResult{}, wafer_model, 1e7), std::invalid_argument);
}

}  // namespace
}  // namespace nanocost::fabsim
