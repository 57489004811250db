// Cross-module integration tests: the flows a user of the library
// actually runs, end to end.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "nanocost/core/itrs_analysis.hpp"
#include "nanocost/core/optimizer.hpp"
#include "nanocost/core/regularity_link.hpp"
#include "nanocost/core/transistor_cost.hpp"
#include "nanocost/data/table_a1.hpp"
#include "nanocost/fabsim/economics.hpp"
#include "nanocost/fabsim/simulator.hpp"
#include "nanocost/layout/design.hpp"
#include "nanocost/layout/generators.hpp"
#include "nanocost/regularity/extractor.hpp"
#include "nanocost/roadmap/roadmap.hpp"
#include "nanocost/yield/models.hpp"

namespace nanocost {
namespace {

using units::Micrometers;
using units::Millimeters;
using units::Money;
using units::Probability;

TEST(Integration, LayoutToDensityToCostPipeline) {
  // Generate a std-cell block, measure its s_d, and price it with
  // eq. (4) -- the full "design attribute to dollars" path.
  layout::Library lib;
  layout::StdCellBlockParams params;
  params.rows = 16;
  params.row_width_lambda = 512;
  const layout::Cell* block = layout::make_stdcell_block(lib, params);
  auto shared = std::make_shared<layout::Library>(std::move(lib));
  const layout::Design design(shared, block, Micrometers{0.25});

  const double sd = design.density().decompression_index;
  ASSERT_GT(sd, 100.0);  // above the eq.-6 wall, as real ASICs are

  core::Eq4Inputs inputs;
  inputs.transistors_per_chip = 1e7;
  const core::Eq4Breakdown cost = core::cost_per_transistor_eq4(inputs, sd);
  EXPECT_GT(cost.total.value(), 0.0);
  EXPECT_GT(cost.manufacturing.value(), 0.0);
  EXPECT_GT(cost.design.value(), 0.0);
}

TEST(Integration, RegularityMeasuredOnRealFabricFeedsCostModel) {
  // SRAM (regular) vs random custom (irregular): the measured
  // regularity reports must produce a cheaper design term for the SRAM.
  layout::Library lib;
  const layout::Cell* sram = layout::make_sram_array(lib, 48, 48);
  const layout::Cell* custom = layout::make_random_custom(lib, 2000, 300.0, 11);

  regularity::ExtractorParams ep;
  ep.window = 48;
  const auto report_sram = regularity::extract_patterns(*sram, ep);
  const auto report_custom = regularity::extract_patterns(*custom, ep);

  core::Eq4Inputs base;
  base.n_wafers = 5000.0;
  const double sd = 250.0;
  const double cost_sram =
      core::cost_per_transistor_eq4(core::apply_regularity(base, report_sram), sd)
          .design.value();
  const double cost_custom =
      core::cost_per_transistor_eq4(core::apply_regularity(base, report_custom), sd)
          .design.value();
  EXPECT_LT(cost_sram, cost_custom);
}

TEST(Integration, SimulatedFabYieldPricedThroughEq1MatchesEq3) {
  // Run the Monte-Carlo fab, price the lot via eq. (1) with measured
  // N_ch and Y, and check eq. (3) with the same Cm_sq / s_d / Y gives
  // the same answer -- the rearrangement the paper derives.
  const geometry::WaferSpec wafer = geometry::WaferSpec::mm200();
  const geometry::DieSize die{Millimeters{12.0}, Millimeters{12.0}};
  defect::DefectFieldParams field;
  field.density_per_cm2 = 0.4;
  const fabsim::FabSimulator sim(fabsim::FabConfig{
      wafer, die, defect::DefectSizeDistribution::for_feature_size(Micrometers{0.25}),
      field, defect::WireArray{Micrometers{0.25}, Micrometers{0.25}, Micrometers{100.0}, 50}});
  const fabsim::LotResult lot = sim.run(200, 77);

  const cost::WaferCostModel wafer_model{Micrometers{0.25}, wafer, 24};
  const double n_wafers = 200.0;
  const double transistors = 1e7;
  const fabsim::RunEconomics econ = fabsim::price_lot(lot, wafer_model, transistors);

  // Eq. (3) with s_d implied by the die and transistor count.  Note
  // eq. (3) divides by *total* wafer area, so the wafer-map packing
  // loss (dies lost at the round edge) makes eq. (1) slightly worse.
  const double sd = layout::decompression_index(die.area(), transistors, Micrometers{0.25});
  const Money eq3 = core::cost_per_transistor_eq3(
      wafer_model.cost_per_cm2(n_wafers), Micrometers{0.25}, sd,
      Probability::clamped(lot.yield()));
  EXPECT_GT(econ.cost_per_good_transistor.value(), eq3.value());
  EXPECT_LT(econ.cost_per_good_transistor.value(), eq3.value() * 1.5);
}

TEST(Integration, TableA1DesignsPricedAcrossTheBoard) {
  // Every Table A1 row with s_d above the design-cost wall can be
  // priced end to end; denser-era devices cost less per transistor at
  // equal volume (lambda^2 shrink dominates).
  core::Eq4Inputs inputs;
  inputs.n_wafers = 50000.0;
  double old_cost = 0.0, new_cost = 0.0;
  for (const data::DesignRecord& r : data::table_a1()) {
    const double sd = r.overall_sd();
    if (sd <= 105.0) continue;
    inputs.lambda = r.feature_size;
    inputs.transistors_per_chip = r.total_transistors;
    const auto b = core::cost_per_transistor_eq4(inputs, sd);
    EXPECT_GT(b.total.value(), 0.0) << "row " << r.id;
    if (r.id == 1) old_cost = b.total.value();     // 1.5 um CPU
    if (r.id == 17) new_cost = b.total.value();    // 0.18 um K7
  }
  ASSERT_GT(old_cost, 0.0);
  ASSERT_GT(new_cost, 0.0);
  EXPECT_LT(new_cost, old_cost / 10.0);
}

TEST(Integration, RoadmapNodesSupportFullGeneralizedModel) {
  // Every roadmap node yields a working generalized model whose
  // optimum is feasible and interior.
  const roadmap::Roadmap itrs = roadmap::Roadmap::itrs1999();
  for (const roadmap::TechnologyNode& node : itrs.nodes()) {
    core::ProductScenario scenario;
    scenario.transistors = node.mpu_transistors;
    scenario.lambda = node.lambda();
    scenario.wafer = geometry::WaferSpec{node.wafer_diameter, Millimeters{3.0},
                                         Millimeters{0.1}};
    scenario.mask_count = node.mask_count;
    scenario.n_wafers = 50000.0;
    const core::GeneralizedCostModel model(scenario);
    const core::Optimum opt = core::optimal_sd(model, 2000.0);
    EXPECT_GT(opt.s_d, 100.0) << node.name;
    EXPECT_GT(opt.cost_per_transistor.value(), 0.0) << node.name;
  }
}

TEST(Integration, GateArrayUtilizationMatchesUParameter) {
  // A 60%-utilized gate array priced per *useful* transistor via the
  // uY substitution costs 1/0.6 of the fully-used fabric.
  core::Eq4Inputs inputs;
  const double sd = 160.0;
  const double full = core::cost_per_transistor_eq4(inputs, sd).total.value();
  inputs.utilization = Probability{0.6};
  const double partial = core::cost_per_transistor_eq4(inputs, sd).total.value();
  EXPECT_NEAR(partial * 0.6, full, full * 1e-9);
}

TEST(Integration, EndToEndStoryOfThePaper) {
  // The whole argument in one test:
  // 1. Industry trend says s_d rises as lambda falls (Fig. 1).
  const data::TrendFit trend = data::fit_sd_trend_all();
  EXPECT_LT(trend.slope, 0.0);

  // 2. ITRS needs s_d to *fall* to hold die cost (Figs. 2-3).
  const auto fig3 = core::constant_die_cost_sd(roadmap::Roadmap::itrs1999());
  EXPECT_GT(fig3.back().ratio, fig3.front().ratio);

  // 3. The resolution is cost-optimal density (Fig. 4)...
  core::Eq4Inputs inputs;
  inputs.n_wafers = 5000.0;
  inputs.yield = Probability{0.4};
  const core::Optimum opt = core::optimal_sd_eq4(inputs);
  EXPECT_GT(opt.s_d, inputs.design_model.params().s_d0);

  // 4. ...and regularity, which strictly reduces cost at any s_d.
  regularity::RegularityReport regular;
  regular.total_windows = 10000;
  regular.unique_patterns = 20;
  const double with_reg =
      core::cost_per_transistor_eq4(core::apply_regularity(inputs, regular), opt.s_d)
          .total.value();
  EXPECT_LT(with_reg, opt.cost_per_transistor.value());
}

}  // namespace
}  // namespace nanocost
