#include "nanocost/defect/spatial.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "nanocost/exec/rng_batch.hpp"
#include "nanocost/units/quantity.hpp"

namespace nanocost::defect {

RadialProfile::RadialProfile(double edge_boost, double sharpness)
    : edge_boost_(units::require_non_negative(edge_boost, "radial edge boost")),
      sharpness_(units::require_positive(sharpness, "radial sharpness")) {
  // Area-weighted mean multiplier over the unit disc:
  //   integral_0^1 (1 + b u^s) 2u du = 1 + 2b / (s + 2)
  norm_ = 1.0 / (1.0 + 2.0 * edge_boost_ / (sharpness_ + 2.0));
}

double RadialProfile::multiplier(double u) const noexcept {
  if (u < 0.0) u = 0.0;
  if (u > 1.0) u = 1.0;
  return norm_ * (1.0 + edge_boost_ * std::pow(u, sharpness_));
}

DefectField::DefectField(const geometry::WaferSpec& wafer, const DefectSizeDistribution& sizes,
                         DefectFieldParams params)
    : wafer_(wafer), sizes_(sizes), params_(params) {
  units::require_non_negative(params_.density_per_cm2, "defect density");
  if (params_.clustered) {
    units::require_positive(params_.cluster_alpha, "cluster alpha");
  }
}

double DefectField::expected_count() const noexcept {
  return params_.density_per_cm2 * wafer_.area().value();
}

namespace {

/// Exact Poisson draw by Knuth's product-of-uniforms method, applied to
/// additive chunks of the mean (Poisson(a + b) = Poisson(a) +
/// Poisson(b)) so exp(-chunk) never underflows.  Used instead of
/// std::poisson_distribution, whose stream is implementation-defined
/// and whose libstdc++ large-mean setup calls glibc lgamma() -- which
/// writes the global `signgam`, a data race when wafers are sampled
/// concurrently.  Consumption is data-dependent but scalar, hence
/// identical at every SimdLevel.
long sample_poisson(exec::SplitMix64& rng, double mean) {
  long total = 0;
  while (mean > 0.0) {
    const double chunk = std::min(mean, 60.0);
    const double limit = std::exp(-chunk);
    long k = -1;
    double prod = 1.0;
    do {
      prod *= exec::uniform_unit(rng);
      ++k;
    } while (prod > limit);
    total += k;
    mean -= chunk;
  }
  return total;
}

}  // namespace

void DefectField::sample_wafer_at(exec::SimdLevel level, exec::SplitMix64& rng,
                                  DefectSoA& out) const {
  out.clear();
  double mean = expected_count();
  if (params_.clustered) {
    // Gamma multiplier with shape alpha and mean 1: the gamma-mixed
    // Poisson whose die-level counts are negative binomial.  One scalar
    // draw per wafer, identical at every SimdLevel.
    mean *= exec::gamma_draw(rng, params_.cluster_alpha) / params_.cluster_alpha;
  }
  const long n = sample_poisson(rng, mean);
  const auto count = static_cast<std::size_t>(n);
  out.x_mm.reserve(count);
  out.y_mm.reserve(count);
  out.size_um.resize(count);

  const double radius_mm = wafer_.radius().value();
  if (params_.radial.is_flat()) {
    // Uniform over the disc by square rejection: each round draws 8
    // candidate points (16 uniforms) through the batched RNG and keeps
    // the ones inside the disc.  Whole 16-uniform blocks are always
    // consumed -- surplus acceptances in the final block are discarded
    // -- and the accept tests are plain scalar arithmetic on bitwise
    // identical uniforms, so the stream position after sampling agrees
    // across SimdLevels.
    double u[16];
    while (out.x_mm.size() < count) {
      exec::uniform_unit_batch_at(level, rng, u, 16);
      for (int i = 0; i < 8; ++i) {
        if (out.x_mm.size() == count) break;
        const double cx = (2.0 * u[i] - 1.0) * radius_mm;
        const double cy = (2.0 * u[8 + i] - 1.0) * radius_mm;
        if (cx * cx + cy * cy <= radius_mm * radius_mm) {
          out.x_mm.push_back(cx);
          out.y_mm.push_back(cy);
        }
      }
    }
  } else {
    // Radial profile: envelope rejection against the profile's maximum
    // (at the edge), scalar at every level (the win is in the RNG and
    // size columns).  sqrt of a uniform is uniform over the disc in
    // radius.
    const double max_mult = params_.radial.multiplier(1.0);
    for (std::size_t i = 0; i < count; ++i) {
      for (;;) {
        const double ur = std::sqrt(exec::uniform_unit(rng));
        if (exec::uniform_unit(rng) * max_mult > params_.radial.multiplier(ur)) continue;
        const double theta = exec::kTwoPi * exec::uniform_unit(rng);
        const double r = ur * radius_mm;
        out.x_mm.push_back(r * std::cos(theta));
        out.y_mm.push_back(r * std::sin(theta));
        break;
      }
    }
  }
  sizes_.sample_batch_at(level, rng, out.size_um.data(), count);
}

void DefectField::sample_wafer(exec::SplitMix64& rng, DefectSoA& out) const {
  sample_wafer_at(exec::simd_level(), rng, out);
}

}  // namespace nanocost::defect
