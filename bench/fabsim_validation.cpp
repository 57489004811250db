// Validation: the Monte-Carlo fabline against the analytic yield models
// it should reproduce -- Poisson for uniform defects, negative binomial
// for gamma-clustered defects -- across defect density, die size, and
// clustering, plus a maturity-ramp run and the lot economics roll-up.
#include <cstdio>

#include "nanocost/fabsim/economics.hpp"
#include "nanocost/fabsim/simulator.hpp"
#include "nanocost/report/table.hpp"
#include "nanocost/units/format.hpp"
#include "nanocost/yield/models.hpp"

namespace {

using namespace nanocost;

fabsim::FabSimulator make_sim(double die_mm, double density, bool clustered, double alpha) {
  defect::DefectFieldParams field;
  field.density_per_cm2 = density;
  field.clustered = clustered;
  field.cluster_alpha = alpha;
  return fabsim::FabSimulator{fabsim::FabConfig{
      geometry::WaferSpec::mm200(),
      geometry::DieSize{units::Millimeters{die_mm}, units::Millimeters{die_mm}},
      defect::DefectSizeDistribution::for_feature_size(units::Micrometers{0.25}), field,
      defect::WireArray{units::Micrometers{0.25}, units::Micrometers{0.25},
                        units::Micrometers{100.0}, 50}}};
}

}  // namespace

int main() {
  std::puts("=== Fab simulator vs analytic yield models ===\n");

  std::puts("--- uniform defects: measured yield vs Poisson exp(-lambda) ---");
  report::Table poisson({"die [mm]", "D0 [/cm^2]", "lambda", "MC yield", "Poisson",
                         "error"});
  bool all_ok = true;
  for (const double die : {8.0, 12.0, 16.0}) {
    for (const double d0 : {0.2, 0.5, 1.0}) {
      const auto sim = make_sim(die, d0, false, 2.0);
      const double lambda = sim.analytic_mean_faults();
      const auto lot = sim.run(150, 42);
      const double expected = yield::PoissonYield{}.yield(lambda).value();
      const double err = lot.yield() - expected;
      all_ok = all_ok && std::abs(err) < 0.03;
      poisson.add_row({units::format_fixed(die, 0), units::format_fixed(d0, 1),
                       units::format_fixed(lambda, 3), units::format_fixed(lot.yield(), 3),
                       units::format_fixed(expected, 3), units::format_fixed(err, 3)});
    }
  }
  std::fputs(poisson.to_string().c_str(), stdout);
  std::printf("all within +-0.03: [%s]\n\n", all_ok ? "ok" : "FAIL");

  std::puts("--- clustered defects: measured yield vs negative binomial ---");
  report::Table negbin({"alpha", "lambda", "MC yield", "negbin", "Poisson",
                        "var/mean faults"});
  for (const double alpha : {0.5, 1.0, 2.0, 5.0}) {
    const auto sim = make_sim(12.0, 0.6, true, alpha);
    const double lambda = sim.analytic_mean_faults();
    const auto lot = sim.run(400, 1234);
    negbin.add_row(
        {units::format_fixed(alpha, 1), units::format_fixed(lambda, 3),
         units::format_fixed(lot.yield(), 3),
         units::format_fixed(yield::NegativeBinomialYield{alpha}.yield(lambda).value(), 3),
         units::format_fixed(yield::PoissonYield{}.yield(lambda).value(), 3),
         units::format_fixed(lot.fault_variance() / lot.fault_mean(), 2)});
  }
  std::fputs(negbin.to_string().c_str(), stdout);
  std::puts("(clustering: MC tracks the negbin column, not Poisson; var/mean > 1)\n");

  std::puts("--- maturity ramp: yield learning on the line ---");
  const auto sim = make_sim(12.0, 1.0, false, 2.0);
  const yield::LearningCurve curve{2.0, 0.25, 3000.0};
  const auto checkpoints = sim.run_ramp(curve, 12000, 3000, 7);
  report::Table ramp({"wafers", "defect density in", "measured yield"});
  std::int64_t done = 0;
  for (const auto& lot : checkpoints) {
    done += static_cast<std::int64_t>(lot.wafers.size());
    ramp.add_row({std::to_string(done),
                  units::format_fixed(curve.density_at(static_cast<double>(done)), 2),
                  units::format_fixed(lot.yield(), 3)});
  }
  std::fputs(ramp.to_string().c_str(), stdout);
  std::printf("yield improves along the ramp: [%s]\n\n",
              checkpoints.back().yield() > checkpoints.front().yield() ? "ok" : "FAIL");

  std::puts("--- lot economics (eq. (1) with measured N_ch and Y) ---");
  const auto lot = make_sim(12.0, 0.5, false, 2.0).run(100, 3);
  const cost::WaferCostModel wafer_model{units::Micrometers{0.25},
                                         geometry::WaferSpec::mm200(), 24};
  // The 100-wafer lot samples a 100k-wafer production run; wafers are
  // priced at run volume, not lot volume.
  const auto econ = fabsim::price_lot(lot, wafer_model, 1e7, 100000.0);
  std::printf("wafer cost %s, measured yield %.3f, good dies %lld\n",
              units::format_money(econ.wafer_cost).c_str(), econ.measured_yield,
              static_cast<long long>(econ.good_dies));
  std::printf("=> cost per good die %s, per good transistor %s\n",
              units::format_money(econ.cost_per_good_die).c_str(),
              units::format_money(econ.cost_per_good_transistor).c_str());
  return 0;
}
