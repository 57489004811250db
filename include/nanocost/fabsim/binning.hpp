// Speed binning: the parametric-yield counterpart of the kill
// simulator.  Each functional die gets a realized speed -- a systematic
// radial component (center dies are faster) plus random within-wafer
// variation -- and is sold into the fastest bin it clears.  Converts
// parametric spread into revenue per wafer, the quantity that decides
// whether chasing the last speed bin is worth a denser design.
#pragma once

#include <cstdint>
#include <vector>

#include "nanocost/geometry/wafer_map.hpp"
#include "nanocost/units/money.hpp"
#include "nanocost/units/probability.hpp"

namespace nanocost::fabsim {

/// Speed model and price book for a binned product.
struct BinningParams final {
  double nominal_frequency_mhz = 500.0;
  /// Relative sigma of random per-die variation.
  double sigma_random = 0.05;
  /// Fractional slowdown of the outermost die vs the center
  /// (systematic radial process gradient).
  double radial_slowdown = 0.08;
  /// Bin floors in MHz, descending (a die sells into the first bin
  /// whose floor it meets); dies below the last floor are scrap.
  std::vector<double> bin_floors_mhz{500.0, 450.0, 400.0};
  /// Price per bin, same order as bin_floors_mhz.
  std::vector<units::Money> bin_prices{units::Money{600.0}, units::Money{400.0},
                                       units::Money{250.0}};
};

/// Outcome of a binning run.
struct BinningResult final {
  std::vector<std::int64_t> bin_counts;  ///< per bin, then scrap appended last
  std::int64_t functional_dies = 0;
  double mean_frequency_mhz = 0.0;
  units::Money revenue{};

  [[nodiscard]] std::int64_t scrap() const noexcept { return bin_counts.back(); }
  [[nodiscard]] units::Money revenue_per_functional_die() const {
    return functional_dies > 0 ? revenue / static_cast<double>(functional_dies)
                               : units::Money{};
  }
};

/// Simulates `n_wafers` of binning.  `functional_yield` thins the map's
/// sites to functional dies first (defect losses are the kill
/// simulator's job; pass its measured yield here).  Every draw comes from
/// one exec::SplitMix64 stream seeded with `seed` (exec/rng.hpp), so the
/// result is the same on every standard library.
[[nodiscard]] BinningResult simulate_binning(const geometry::WaferMap& map,
                                             const BinningParams& params,
                                             units::Probability functional_yield,
                                             std::int64_t n_wafers, std::uint64_t seed = 42);

}  // namespace nanocost::fabsim
