// Defect size distribution.
//
// The standard particle-size model used in yield analysis (Stapper; also
// the basis of Maly's critical-area work, refs [31],[32] of the paper):
// density rises ~x below a peak size x0 and falls ~1/x^3 above it.
//
//   f(x) = c * x / x0^2          for xmin <= x < x0
//   f(x) = c * x0 / x^3          ... wait -- see implementation notes:
//
// We use the continuous two-branch form
//   f(x) ∝ x / x0^2        (x < x0)
//   f(x) ∝ x0^(q-2) / x^q  (x >= x0),  q = 3 by default
// normalized over [xmin, xmax].
#pragma once

#include <cstddef>

#include "nanocost/exec/rng.hpp"
#include "nanocost/exec/simd.hpp"
#include "nanocost/units/length.hpp"

namespace nanocost::defect {

/// Two-branch power-law defect size distribution.
class DefectSizeDistribution final {
 public:
  /// `peak` is the most-likely defect size x0 (typically near the minimum
  /// feature size); `q` is the tail exponent (classically 3).  Support is
  /// [xmin, xmax]; sizes outside are never generated.
  DefectSizeDistribution(units::Micrometers xmin, units::Micrometers peak,
                         units::Micrometers xmax, double q = 3.0);

  /// Period-typical distribution for a process at feature size lambda:
  /// support [lambda/2, 100*lambda], peak at lambda, cubic tail.
  [[nodiscard]] static DefectSizeDistribution for_feature_size(units::Micrometers lambda);

  [[nodiscard]] units::Micrometers xmin() const noexcept { return xmin_; }
  [[nodiscard]] units::Micrometers peak() const noexcept { return peak_; }
  [[nodiscard]] units::Micrometers xmax() const noexcept { return xmax_; }
  [[nodiscard]] double tail_exponent() const noexcept { return q_; }

  /// Probability density at size x (0 outside the support).
  [[nodiscard]] double pdf(units::Micrometers x) const noexcept;
  /// Cumulative distribution P(size <= x).
  [[nodiscard]] double cdf(units::Micrometers x) const noexcept;
  /// Mean defect size.
  [[nodiscard]] units::Micrometers mean() const noexcept;

  /// Inverse-CDF sampling at lane `level`: draws n uniforms from `rng`
  /// (the exec/rng.hpp stream) and fills out[0..n) with sizes in
  /// micrometers.  The inversion of cdf() runs on precomputed tail
  /// constants, so the classic q = 3 tail inverts with one sqrt + one
  /// divide (IEEE-exact, hence vectorizable) instead of two pow()
  /// calls; general q falls back to scalar pow.  Bitwise identical at
  /// both SimdLevels (simd_parity_test).
  void sample_batch_at(exec::SimdLevel level, exec::SplitMix64& rng, double* out,
                       std::size_t n) const;

 private:
  units::Micrometers xmin_;
  units::Micrometers peak_;
  units::Micrometers xmax_;
  double q_;
  // Precomputed normalization: f(x) = norm_ * branch(x).
  double norm_ = 0.0;
  double below_mass_ = 0.0;  // unnormalized mass of the rising branch
  double total_mass_ = 0.0;  // unnormalized total mass

  [[nodiscard]] double unnormalized_branch(double x) const noexcept;
  [[nodiscard]] double unnormalized_cdf(double x) const noexcept;
};

}  // namespace nanocost::defect
