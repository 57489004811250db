// The paper's transistor cost models, eqs. (1), (3), (4)+(5).
//
// All costs are per *good* transistor: dollars of input divided by
// transistors that end up in fully functional dice.
#pragma once

#include "nanocost/cache/hash.hpp"
#include "nanocost/cost/design_cost.hpp"
#include "nanocost/units/area.hpp"
#include "nanocost/units/length.hpp"
#include "nanocost/units/money.hpp"
#include "nanocost/units/probability.hpp"

namespace nanocost::core {

/// Eq. (1): C_tr = C_w / (N_tr * N_ch * Y).
[[nodiscard]] units::Money cost_per_transistor_eq1(units::Money wafer_cost,
                                                   double transistors_per_chip,
                                                   double chips_per_wafer,
                                                   units::Probability yield);

/// Eq. (3): C_tr = C_sq * lambda^2 * s_d / Y.
[[nodiscard]] units::Money cost_per_transistor_eq3(units::CostPerArea manufacturing_cost,
                                                   units::Micrometers lambda, double s_d,
                                                   units::Probability yield);

/// Eq. (5): Cd_sq = (C_MA + C_DE) / (N_w * A_w) -- NRE amortized over
/// all fabricated silicon.
[[nodiscard]] units::CostPerArea design_cost_per_area_eq5(units::Money mask_cost,
                                                          units::Money design_cost,
                                                          double n_wafers,
                                                          units::SquareCentimeters wafer_area);

/// Inversion of eq. (3) for s_d at a fixed per-die cost budget -- the
/// computation behind Fig. 3:
///   s_d = C_die * Y / (C_sq * N_tr * lambda^2)
[[nodiscard]] double sd_for_die_cost(units::Money die_cost_budget, units::Probability yield,
                                     units::CostPerArea manufacturing_cost,
                                     double transistors_per_chip, units::Micrometers lambda);

/// Everything eq. (4) needs, bundled.  `design_model` supplies C_DE as
/// a function of (N_tr, s_d); the rest are scalars of the scenario.
struct Eq4Inputs final {
  units::Micrometers lambda{0.25};
  units::Probability yield{0.9};
  units::CostPerArea manufacturing_cost{8.0};   ///< Cm_sq
  double transistors_per_chip = 1e7;            ///< N_tr
  double n_wafers = 50000.0;                    ///< N_w
  units::SquareCentimeters wafer_area{314.16};  ///< A_w (200 mm wafer)
  units::Money mask_cost{600000.0};             ///< C_MA
  cost::DesignCostModel design_model{};         ///< C_DE(N_tr, s_d), eq. (6)
  units::Probability utilization{1.0};          ///< the u of Sec. 2.5 (uY substitution)
};

/// Appends every Eq4Inputs field to `key` in declaration order, the
/// design model expanded to its four eq.-6 parameters: the one field
/// list behind every key over eq.-4 inputs (cache/key.hpp).
void append_eq4_inputs(cache::KeyBuilder& key, const Eq4Inputs& in);

/// Per-transistor cost decomposition under eq. (4).
struct Eq4Breakdown final {
  units::Money manufacturing{};  ///< lambda^2 s_d Cm_sq / (u Y)
  units::Money design{};         ///< lambda^2 s_d Cd_sq / (u Y)
  units::Money total{};
  units::CostPerArea cd_sq{};    ///< the eq. (5) intermediate
  units::Money design_nre{};     ///< C_DE at this s_d
  /// Die-level view: total * N_tr.
  units::Money per_die{};
};

/// Eq. (4): C_tr = lambda^2 s_d (Cm_sq + Cd_sq) / (u Y), with Cd_sq
/// from eq. (5) and C_DE from eq. (6).
[[nodiscard]] Eq4Breakdown cost_per_transistor_eq4(const Eq4Inputs& inputs, double s_d);

}  // namespace nanocost::core
