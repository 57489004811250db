#include "nanocost/fabsim/binning.hpp"

#include <algorithm>
#include <stdexcept>

#include "nanocost/exec/rng.hpp"
#include "nanocost/units/quantity.hpp"

namespace nanocost::fabsim {

BinningResult simulate_binning(const geometry::WaferMap& map, const BinningParams& params,
                               units::Probability functional_yield, std::int64_t n_wafers,
                               std::uint64_t seed) {
  if (map.sites().empty()) {
    throw std::invalid_argument("binning needs a non-empty wafer map");
  }
  if (n_wafers < 1) {
    throw std::invalid_argument("binning needs at least one wafer");
  }
  if (params.bin_floors_mhz.empty() ||
      params.bin_floors_mhz.size() != params.bin_prices.size()) {
    throw std::invalid_argument("bin floors and prices must be non-empty and same-sized");
  }
  if (!std::is_sorted(params.bin_floors_mhz.rbegin(), params.bin_floors_mhz.rend())) {
    throw std::invalid_argument("bin floors must be descending");
  }
  units::require_positive(params.nominal_frequency_mhz, "nominal frequency");
  units::require_non_negative(params.sigma_random, "random sigma");
  units::require_non_negative(params.radial_slowdown, "radial slowdown");

  exec::SplitMix64 rng(seed);

  BinningResult result;
  result.bin_counts.assign(params.bin_floors_mhz.size() + 1, 0);  // + scrap
  const double wafer_radius = map.wafer().radius().value();
  double freq_sum = 0.0;

  for (std::int64_t w = 0; w < n_wafers; ++w) {
    for (const geometry::DieSite& site : map.sites()) {
      if (exec::uniform_unit(rng) >= functional_yield.value()) continue;  // defect loss
      ++result.functional_dies;
      const double u = site.radial_distance().value() / wafer_radius;
      const double systematic = 1.0 - params.radial_slowdown * u * u;
      const double random = 1.0 + params.sigma_random * exec::gauss_pair(rng).z0;
      const double freq = params.nominal_frequency_mhz * systematic * random;
      freq_sum += freq;

      bool sold = false;
      for (std::size_t b = 0; b < params.bin_floors_mhz.size(); ++b) {
        if (freq >= params.bin_floors_mhz[b]) {
          ++result.bin_counts[b];
          result.revenue += params.bin_prices[b];
          sold = true;
          break;
        }
      }
      if (!sold) ++result.bin_counts.back();
    }
  }
  result.mean_frequency_mhz =
      result.functional_dies > 0 ? freq_sum / static_cast<double>(result.functional_dies)
                                 : 0.0;
  return result;
}

}  // namespace nanocost::fabsim
