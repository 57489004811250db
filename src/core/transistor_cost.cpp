#include "nanocost/core/transistor_cost.hpp"

#include <cmath>
#include <stdexcept>

#include "nanocost/units/quantity.hpp"

namespace nanocost::core {

namespace {

/// lambda^2 in cm^2 -- the unit Cm_sq/Cd_sq multiply against.
double lambda_squared_cm2(units::Micrometers lambda) {
  const double l_cm = lambda.to_centimeters().value();
  return l_cm * l_cm;
}

void require_yield_positive(units::Probability y, const char* what) {
  // Negated comparison so NaN (for which y > 0 is false) also throws.
  if (!(std::isfinite(y.value()) && y.value() > 0.0)) {
    throw std::domain_error(std::string(what) + " must be finite and > 0");
  }
}

}  // namespace

units::Money cost_per_transistor_eq1(units::Money wafer_cost, double transistors_per_chip,
                                     double chips_per_wafer, units::Probability yield) {
  units::require_positive(wafer_cost, "wafer cost");
  units::require_positive(transistors_per_chip, "transistors per chip");
  units::require_positive(chips_per_wafer, "chips per wafer");
  require_yield_positive(yield, "yield");
  return units::Money{wafer_cost.value() /
                      (transistors_per_chip * chips_per_wafer * yield.value())};
}

units::Money cost_per_transistor_eq3(units::CostPerArea manufacturing_cost,
                                     units::Micrometers lambda, double s_d,
                                     units::Probability yield) {
  units::require_positive(manufacturing_cost, "manufacturing cost per cm^2");
  units::require_positive(lambda, "lambda");
  units::require_positive(s_d, "s_d");
  require_yield_positive(yield, "yield");
  return units::Money{manufacturing_cost.value() * lambda_squared_cm2(lambda) * s_d /
                      yield.value()};
}

units::CostPerArea design_cost_per_area_eq5(units::Money mask_cost, units::Money design_cost,
                                            double n_wafers,
                                            units::SquareCentimeters wafer_area) {
  units::require_non_negative(mask_cost, "mask cost");
  units::require_non_negative(design_cost, "design cost");
  units::require_positive(n_wafers, "wafer count");
  units::require_positive(wafer_area, "wafer area");
  return (mask_cost + design_cost) / (wafer_area * n_wafers);
}

double sd_for_die_cost(units::Money die_cost_budget, units::Probability yield,
                       units::CostPerArea manufacturing_cost, double transistors_per_chip,
                       units::Micrometers lambda) {
  units::require_positive(die_cost_budget, "die cost budget");
  require_yield_positive(yield, "yield");
  units::require_positive(manufacturing_cost, "manufacturing cost per cm^2");
  units::require_positive(transistors_per_chip, "transistors per chip");
  units::require_positive(lambda, "lambda");
  // Per-die cost under eq. (3): C_die = C_sq * A_ch / Y with
  // A_ch = N_tr * s_d * lambda^2; solve for s_d.
  return die_cost_budget.value() * yield.value() /
         (manufacturing_cost.value() * transistors_per_chip * lambda_squared_cm2(lambda));
}

Eq4Breakdown cost_per_transistor_eq4(const Eq4Inputs& inputs, double s_d) {
  units::require_positive(s_d, "s_d");
  units::require_positive(inputs.lambda, "lambda");
  units::require_positive(inputs.manufacturing_cost, "manufacturing cost per cm^2");
  units::require_positive(inputs.transistors_per_chip, "transistors per chip");
  require_yield_positive(inputs.yield, "yield");
  require_yield_positive(inputs.utilization, "utilization");

  const units::Money c_de = inputs.design_model.cost(inputs.transistors_per_chip, s_d);
  const units::CostPerArea cd_sq =
      design_cost_per_area_eq5(inputs.mask_cost, c_de, inputs.n_wafers, inputs.wafer_area);

  const double l2 = lambda_squared_cm2(inputs.lambda);
  const double uy = inputs.utilization.value() * inputs.yield.value();
  Eq4Breakdown out;
  out.design_nre = c_de;
  out.cd_sq = cd_sq;
  out.manufacturing = units::Money{l2 * s_d * inputs.manufacturing_cost.value() / uy};
  out.design = units::Money{l2 * s_d * cd_sq.value() / uy};
  out.total = out.manufacturing + out.design;
  out.per_die = out.total * inputs.transistors_per_chip;
  return out;
}

void append_eq4_inputs(cache::KeyBuilder& key, const Eq4Inputs& in) {
  key.f64("lambda_um", in.lambda.value())
      .f64("yield", in.yield.value())
      .f64("cm_sq", in.manufacturing_cost.value())
      .f64("n_tr", in.transistors_per_chip)
      .f64("n_w", in.n_wafers)
      .f64("a_w_cm2", in.wafer_area.value())
      .f64("c_ma", in.mask_cost.value())
      .f64("design.a0", in.design_model.params().a0)
      .f64("design.p1", in.design_model.params().p1)
      .f64("design.p2", in.design_model.params().p2)
      .f64("design.s_d0", in.design_model.params().s_d0)
      .f64("utilization", in.utilization.value());
}

}  // namespace nanocost::core
