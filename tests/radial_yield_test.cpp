#include <gtest/gtest.h>

#include <stdexcept>

#include "nanocost/fabsim/simulator.hpp"
#include "nanocost/yield/models.hpp"
#include "nanocost/yield/radial.hpp"

namespace nanocost::yield {
namespace {

using units::Micrometers;
using units::Millimeters;

geometry::WaferMap reference_map() {
  return geometry::WaferMap{geometry::WaferSpec::mm200(),
                            geometry::DieSize{Millimeters{12.0}, Millimeters{12.0}}};
}

TEST(RadialYield, FlatProfileMatchesUniformModel) {
  const geometry::WaferMap map = reference_map();
  const PoissonYield model;
  const double density = 0.5;
  const RadialYieldResult r =
      radial_yield(map, model, density, defect::RadialProfile{});
  const double uniform = model.yield(density * map.die().area().value()).value();
  EXPECT_NEAR(r.wafer_yield.value(), uniform, 1e-12);
  EXPECT_NEAR(r.center_yield.value(), uniform, 1e-12);
  EXPECT_NEAR(r.edge_yield.value(), uniform, 1e-12);
}

TEST(RadialYield, EdgeDiesYieldWorse) {
  const geometry::WaferMap map = reference_map();
  const PoissonYield model;
  const RadialYieldResult r =
      radial_yield(map, model, 0.8, defect::RadialProfile{3.0, 2.0});
  EXPECT_GT(r.center_yield.value(), r.edge_yield.value());
  // Wafer yield sits between the extremes.
  EXPECT_GT(r.wafer_yield.value(), r.edge_yield.value());
  EXPECT_LT(r.wafer_yield.value(), r.center_yield.value());
  EXPECT_EQ(r.site_yield.size(), map.sites().size());
}

TEST(RadialYield, JensenEffectBeatsUniformAtSameMeanDensity) {
  // The profile is normalized to the same wafer-mean density; convexity
  // of exp(-x) makes the skewed wafer yield *higher* than uniform.
  const geometry::WaferMap map = reference_map();
  const PoissonYield model;
  const double density = 1.0;
  const double uniform = model.yield(density * map.die().area().value()).value();
  const RadialYieldResult skewed =
      radial_yield(map, model, density, defect::RadialProfile{4.0, 2.0});
  EXPECT_GT(skewed.wafer_yield.value(), uniform);
}

TEST(RadialYield, CriticalAreaRatioScalesFaults) {
  const geometry::WaferMap map = reference_map();
  const PoissonYield model;
  const RadialYieldResult full = radial_yield(map, model, 0.5, defect::RadialProfile{}, 1.0);
  const RadialYieldResult half = radial_yield(map, model, 0.5, defect::RadialProfile{}, 0.5);
  EXPECT_GT(half.wafer_yield.value(), full.wafer_yield.value());
}

TEST(RadialYield, AgreesWithMonteCarloFab) {
  // The analytic radial model vs the simulator with the same profile.
  const geometry::WaferSpec wafer = geometry::WaferSpec::mm200();
  const geometry::DieSize die{Millimeters{12.0}, Millimeters{12.0}};
  const defect::RadialProfile profile{2.0, 2.0};
  const double density = 0.6;

  defect::DefectFieldParams field;
  field.density_per_cm2 = density;
  field.radial = profile;
  const defect::WireArray pattern{Micrometers{0.25}, Micrometers{0.25}, Micrometers{100.0},
                                  50};
  const fabsim::FabSimulator sim(fabsim::FabConfig{
      wafer, die, defect::DefectSizeDistribution::for_feature_size(Micrometers{0.25}),
      field, pattern});

  // The simulator kills with the capped size-dependent probability; its
  // effective faults/die divided by (density * area) is the CA ratio to
  // feed the analytic model.
  const double ca_ratio = sim.analytic_mean_faults() / (density * die.area().value());
  const geometry::WaferMap map(wafer, die);
  const RadialYieldResult analytic =
      radial_yield(map, PoissonYield{}, density, profile, ca_ratio);

  const auto lot = sim.run(300, 11);
  EXPECT_NEAR(lot.yield(), analytic.wafer_yield.value(), 0.02);
}

TEST(RadialYield, RejectsEmptyMap) {
  // A die too large to place yields an empty map -- constructing the
  // map itself is fine, the radial computation must reject it.
  const geometry::WaferMap empty{geometry::WaferSpec::mm150(),
                                 geometry::DieSize{Millimeters{300.0}, Millimeters{300.0}}};
  EXPECT_THROW(radial_yield(empty, PoissonYield{}, 0.5, defect::RadialProfile{}),
               std::invalid_argument);
}

}  // namespace
}  // namespace nanocost::yield
