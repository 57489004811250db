#include "nanocost/defect/spatial.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
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

void sample_disc_at(exec::SimdLevel level, exec::SplitMix64& rng, double radius_mm,
                    std::size_t count, std::vector<double>& x_mm, std::vector<double>& y_mm) {
  constexpr std::size_t kRound = 16;      // uniforms per round: 8 x's, then 8 y's
  constexpr std::size_t kMaxRounds = 64;  // rounds per batched draw
  // Every candidate is written at the accept cursor, which the final
  // round can push up to 7 past `count`; the slack takes those writes.
  x_mm.resize(count + kRound / 2);
  y_mm.resize(count + kRound / 2);
  const std::uint64_t state0 = rng.state();
  double u[kMaxRounds * kRound];
  std::size_t have = 0;
  std::uint64_t rounds_used = 0;
  while (have < count) {
    // pi/4 of a round's 8 candidates (~6.3) land in the disc, so one
    // round per 6 points still needed seldom overdraws by more than one.
    const std::size_t rounds = std::min((count - have) / 6 + 1, kMaxRounds);
    exec::uniform_unit_batch_at(level, rng, u, rounds * kRound);
    for (std::size_t r = 0; r < rounds && have < count; ++r, ++rounds_used) {
      const double* ur = u + r * kRound;
      for (std::size_t i = 0; i < kRound / 2; ++i) {
        const double cx = (2.0 * ur[i] - 1.0) * radius_mm;
        const double cy = (2.0 * ur[kRound / 2 + i] - 1.0) * radius_mm;
        x_mm[have] = cx;
        y_mm[have] = cy;
        have += static_cast<std::size_t>(cx * cx + cy * cy <= radius_mm * radius_mm);
      }
    }
  }
  x_mm.resize(count);
  y_mm.resize(count);
  // Rewind past the rounds drawn but not used.
  rng = exec::SplitMix64(state0);
  rng.advance(kRound * rounds_used);
}

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
  out.size_um.resize(count);

  const double radius_mm = wafer_.radius().value();
  if (params_.radial.is_flat()) {
    sample_disc_at(level, rng, radius_mm, count, out.x_mm, out.y_mm);
  } else {
    // Radial profile: envelope rejection against the profile's maximum
    // (at the edge), scalar at every level (the win is in the RNG and
    // size columns).  sqrt of a uniform is uniform over the disc in
    // radius.
    out.x_mm.reserve(count);
    out.y_mm.reserve(count);
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
