#include "nanocost/defect/size_distribution.hpp"

#include <cmath>
#include <stdexcept>

#include "nanocost/exec/rng_batch.hpp"
#include "nanocost/units/quantity.hpp"

#if defined(NANOCOST_X86_SIMD)
#include <immintrin.h>
#endif

namespace nanocost::defect {

// Unnormalized density, continuous at the peak x0:
//   g(x) = x / x0^2            xmin <= x < x0   (g(x0-) = 1/x0)
//   g(x) = x0^(q-1) / x^q      x0  <= x <= xmax (g(x0+) = 1/x0)

DefectSizeDistribution::DefectSizeDistribution(units::Micrometers xmin, units::Micrometers peak,
                                               units::Micrometers xmax, double q)
    : xmin_(units::require_positive(xmin, "defect size xmin")),
      peak_(units::require_positive(peak, "defect size peak")),
      xmax_(units::require_positive(xmax, "defect size xmax")),
      q_(q) {
  if (!(xmin_ < peak_ && peak_ < xmax_)) {
    throw std::domain_error("defect size distribution requires xmin < peak < xmax");
  }
  if (!(q_ > 1.0)) {
    throw std::domain_error("defect size tail exponent q must be > 1");
  }
  const double x0 = peak_.value();
  const double a = xmin_.value();
  const double b = xmax_.value();
  below_mass_ = (x0 * x0 - a * a) / (2.0 * x0 * x0);
  const double above_mass =
      std::pow(x0, q_ - 1.0) * (std::pow(x0, 1.0 - q_) - std::pow(b, 1.0 - q_)) / (q_ - 1.0);
  total_mass_ = below_mass_ + above_mass;
  norm_ = 1.0 / total_mass_;
}

DefectSizeDistribution DefectSizeDistribution::for_feature_size(units::Micrometers lambda) {
  units::require_positive(lambda, "feature size");
  return DefectSizeDistribution{lambda / 2.0, lambda, lambda * 100.0, 3.0};
}

double DefectSizeDistribution::unnormalized_branch(double x) const noexcept {
  const double x0 = peak_.value();
  if (x < x0) return x / (x0 * x0);
  return std::pow(x0, q_ - 1.0) / std::pow(x, q_);
}

double DefectSizeDistribution::unnormalized_cdf(double x) const noexcept {
  const double x0 = peak_.value();
  const double a = xmin_.value();
  if (x <= a) return 0.0;
  if (x < x0) {
    return (x * x - a * a) / (2.0 * x0 * x0);
  }
  const double above =
      std::pow(x0, q_ - 1.0) * (std::pow(x0, 1.0 - q_) - std::pow(x, 1.0 - q_)) / (q_ - 1.0);
  return below_mass_ + above;
}

double DefectSizeDistribution::pdf(units::Micrometers x) const noexcept {
  const double v = x.value();
  if (v < xmin_.value() || v > xmax_.value()) return 0.0;
  return norm_ * unnormalized_branch(v);
}

double DefectSizeDistribution::cdf(units::Micrometers x) const noexcept {
  const double v = x.value();
  if (v >= xmax_.value()) return 1.0;
  return norm_ * unnormalized_cdf(v);
}

units::Micrometers DefectSizeDistribution::mean() const noexcept {
  const double x0 = peak_.value();
  const double a = xmin_.value();
  const double b = xmax_.value();
  const double below = (x0 * x0 * x0 - a * a * a) / (3.0 * x0 * x0);
  double above;
  if (q_ == 2.0) {
    above = x0 * std::log(b / x0);
  } else {
    above = std::pow(x0, q_ - 1.0) * (std::pow(b, 2.0 - q_) - std::pow(x0, 2.0 - q_)) /
            (2.0 - q_);
  }
  return units::Micrometers{norm_ * (below + above)};
}

namespace {

/// Precomputed inverse-CDF constants shared by the batch paths: with
///   t(m) = x0^(1-q) - (m - below_mass) * (q-1) / x0^(q-1)
/// the tail inverse is x = t^(1/(1-q)), which for the classic q = 3
/// collapses to x = 1/sqrt(t) -- sqrt and divide, both IEEE-exact.
struct TailConstants {
  double x0 = 0.0, a = 0.0, xmax = 0.0;
  double below_mass = 0.0, total_mass = 0.0;
  double c1 = 0.0;  ///< x0^(1-q)
  double c2 = 0.0;  ///< (q-1) / x0^(q-1)
};

/// One sample from one uniform; the scalar reference the vector lanes
/// must match bitwise (q == 3 form).
inline double invert_size_q3(const TailConstants& k, double u) {
  const double m = u * k.total_mass;
  if (m <= k.below_mass) {
    return std::sqrt(k.a * k.a + 2.0 * k.x0 * k.x0 * m);
  }
  const double t = k.c1 - (m - k.below_mass) * k.c2;
  const double x = 1.0 / std::sqrt(t);
  return x > k.xmax ? k.xmax : x;
}

#if defined(NANOCOST_X86_SIMD)

/// 4-wide q = 3 inversion: both branches evaluate (sqrt of a negative
/// in a masked-off lane is a quiet NaN, discarded by the blend) and
/// every operation is IEEE-exact, so each lane equals invert_size_q3.
NANOCOST_TARGET_AVX2 void invert_size_q3_avx2(const TailConstants& k, const double* u,
                                              double* out, std::size_t n) {
  const __m256d total = _mm256_set1_pd(k.total_mass);
  const __m256d below = _mm256_set1_pd(k.below_mass);
  const __m256d a2 = _mm256_set1_pd(k.a * k.a);
  const __m256d two_x02 = _mm256_set1_pd(2.0 * k.x0 * k.x0);
  const __m256d c1 = _mm256_set1_pd(k.c1);
  const __m256d c2 = _mm256_set1_pd(k.c2);
  const __m256d xmax = _mm256_set1_pd(k.xmax);
  const __m256d one = _mm256_set1_pd(1.0);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d m = _mm256_mul_pd(_mm256_loadu_pd(u + i), total);
    const __m256d rising =
        _mm256_sqrt_pd(_mm256_add_pd(a2, _mm256_mul_pd(two_x02, m)));
    const __m256d t =
        _mm256_sub_pd(c1, _mm256_mul_pd(_mm256_sub_pd(m, below), c2));
    __m256d tail = _mm256_div_pd(one, _mm256_sqrt_pd(t));
    // x > xmax ? xmax : x, spelled as a blend so the NaN semantics of
    // the scalar comparison carry over exactly.
    const __m256d over = _mm256_cmp_pd(tail, xmax, _CMP_GT_OQ);
    tail = _mm256_blendv_pd(tail, xmax, over);
    const __m256d use_rising = _mm256_cmp_pd(m, below, _CMP_LE_OQ);
    _mm256_storeu_pd(out + i, _mm256_blendv_pd(tail, rising, use_rising));
  }
  for (; i < n; ++i) out[i] = invert_size_q3(k, u[i]);
}

#endif  // NANOCOST_X86_SIMD

}  // namespace

void DefectSizeDistribution::sample_batch_at(exec::SimdLevel level, exec::SplitMix64& rng,
                                             double* out, std::size_t n) const {
  // The uniforms land in the output array and are transformed in place
  // (each size depends only on its own uniform).
  exec::uniform_unit_batch_at(level, rng, out, n);

  TailConstants k;
  k.x0 = peak_.value();
  k.a = xmin_.value();
  k.xmax = xmax_.value();
  k.below_mass = below_mass_;
  k.total_mass = total_mass_;
  k.c1 = std::pow(k.x0, 1.0 - q_);
  k.c2 = (q_ - 1.0) / std::pow(k.x0, q_ - 1.0);

  if (q_ == 3.0) {
#if defined(NANOCOST_X86_SIMD)
    if (level == exec::SimdLevel::kAvx2) return invert_size_q3_avx2(k, out, out, n);
#endif
    for (std::size_t i = 0; i < n; ++i) out[i] = invert_size_q3(k, out[i]);
    return;
  }
  // General q: the tail needs a data-dependent pow, which stays scalar
  // libm at every level.
  const double inv_exp = 1.0 / (1.0 - q_);
  for (std::size_t i = 0; i < n; ++i) {
    const double m = out[i] * k.total_mass;
    if (m <= k.below_mass) {
      out[i] = std::sqrt(k.a * k.a + 2.0 * k.x0 * k.x0 * m);
      continue;
    }
    const double t = k.c1 - (m - k.below_mass) * k.c2;
    const double x = std::pow(t, inv_exp);
    out[i] = x > k.xmax ? k.xmax : x;
  }
}

}  // namespace nanocost::defect
