// In-repo random draws with a standard-library-independent stream.
//
// The std:: distributions are implementation-defined: libstdc++ and
// libc++ consume the engine differently and return different values
// from the same seed, so any result produced through them is only
// reproducible on one standard library.  Every nanocost kernel that
// promises a deterministic stream (the placer, multi-start seeds, the
// fab simulator, speed binning, risk propagation) draws through these
// helpers instead: a splitmix64 engine plus Lemire's debiased
// multiply-shift bounded draw, a 53-bit mantissa unit-interval draw,
// Box-Muller normals and Marsaglia-Tsang gammas, all fully specified
// here (up to libm).
#pragma once

#include <cmath>
#include <cstdint>
#include <limits>

#include "nanocost/exec/seed.hpp"

namespace nanocost::exec {

/// splitmix64 engine (Steele, Lea, Flood 2014): a Weyl sequence through
/// the splitmix64 output function.  Satisfies UniformRandomBitGenerator.
///
/// The engine is counter-based: output i of a stream seeded with s is
/// splitmix64(s + (i+1) * gamma), a pure function of (s, i).  That is
/// what makes the batched API in exec/rng_batch.hpp possible -- a
/// vector lane can compute outputs i..i+7 of the *same* stream without
/// serial state chaining, and advance() lets scalar and batched
/// consumers interleave on one stream without drift.
class SplitMix64 final {
 public:
  using result_type = std::uint64_t;

  explicit constexpr SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  constexpr std::uint64_t next() noexcept {
    state_ += 0x9E3779B97F4A7C15ULL;  // golden-ratio increment
    return splitmix64(state_);
  }
  constexpr std::uint64_t operator()() noexcept { return next(); }

  /// The Weyl state; outputs continue at splitmix64(state() + gamma).
  [[nodiscard]] constexpr std::uint64_t state() const noexcept { return state_; }

  /// Skips the next `n` outputs in O(1) -- the Weyl sequence advances
  /// by n * gamma.  Batched draws use this to keep the engine in step.
  constexpr void advance(std::uint64_t n) noexcept {
    state_ += n * 0x9E3779B97F4A7C15ULL;
  }

  [[nodiscard]] static constexpr std::uint64_t min() noexcept { return 0; }
  [[nodiscard]] static constexpr std::uint64_t max() noexcept {
    return std::numeric_limits<std::uint64_t>::max();
  }

 private:
  std::uint64_t state_;
};

namespace detail {

/// Lemire's multiply-shift applied to the 32-bit word `x`, drawing
/// fresh words from `rng` in the (probability < n / 2^32) rejection
/// case.  Factored out so one engine output can seed several draws.
[[nodiscard]] inline std::uint32_t lemire_bounded(SplitMix64& rng, std::uint32_t x,
                                                  std::uint32_t n) {
  std::uint64_t m = static_cast<std::uint64_t>(x) * n;
  auto low = static_cast<std::uint32_t>(m);
  if (low < n) {
    const std::uint32_t threshold = (0u - n) % n;
    while (low < threshold) {
      x = static_cast<std::uint32_t>(rng.next() >> 32);
      m = static_cast<std::uint64_t>(x) * n;
      low = static_cast<std::uint32_t>(m);
    }
  }
  return static_cast<std::uint32_t>(m >> 32);
}

}  // namespace detail

/// Uniform draw in [0, n) for n >= 1: Lemire's multiply-shift with
/// rejection of the biased low fraction (Lemire 2019, "Fast Random
/// Integer Generation in an Interval").  Exactly uniform; the rejection
/// loop runs with probability < n / 2^32 per draw.
[[nodiscard]] inline std::uint32_t bounded_u32(SplitMix64& rng, std::uint32_t n) {
  return detail::lemire_bounded(rng, static_cast<std::uint32_t>(rng.next() >> 32), n);
}

/// Uniform draw in [0, n) as a signed 32-bit index (n >= 1).
[[nodiscard]] inline std::int32_t bounded_i32(SplitMix64& rng, std::int32_t n) {
  return static_cast<std::int32_t>(bounded_u32(rng, static_cast<std::uint32_t>(n)));
}

/// Two uniform draws -- first in [0, n0), second in [0, n1) -- paying
/// for one engine output: the high and low halves each go through the
/// debiased multiply-shift above (rejections, essentially never taken,
/// fall back to fresh outputs), so both draws stay exactly uniform.
/// The placer's gate+site pick is the intended caller: it halves the
/// inner loop's engine cost.
struct I32Pair final {
  std::int32_t first = 0, second = 0;
};
[[nodiscard]] inline I32Pair bounded_i32_pair(SplitMix64& rng, std::int32_t n0, std::int32_t n1) {
  const std::uint64_t bits = rng.next();
  const auto a = detail::lemire_bounded(rng, static_cast<std::uint32_t>(bits >> 32),
                                        static_cast<std::uint32_t>(n0));
  const auto b = detail::lemire_bounded(rng, static_cast<std::uint32_t>(bits),
                                        static_cast<std::uint32_t>(n1));
  return I32Pair{static_cast<std::int32_t>(a), static_cast<std::int32_t>(b)};
}

/// Uniform double in [0, 1): the top 53 bits of one engine output
/// scaled by 2^-53 (every representable value equally likely).
[[nodiscard]] inline double uniform_unit(SplitMix64& rng) {
  return static_cast<double>(rng.next() >> 11) * 0x1.0p-53;
}

/// 2*pi at double precision -- shared by every Box-Muller consumer so
/// scalar and batched draws use the identical constant.
inline constexpr double kTwoPi = 6.283185307179586476925286766559;

/// A pair of independent standard-normal draws.
struct GaussPair final {
  double z0 = 0.0, z1 = 0.0;
};

/// Box-Muller from exactly two engine outputs (fixed consumption: no
/// rejection, so batched and scalar callers stay in lockstep).  u1 is
/// mapped into (0, 1] -- the +1 before scaling -- so the log never sees
/// zero; u2 keeps the standard [0, 1) mapping.  Used instead of
/// std::normal_distribution for the same reason as the draws above: the
/// standard library's algorithm (and hence the stream) is
/// implementation-defined, and its ziggurat/polar rejection loops
/// consume a data-dependent number of outputs.
[[nodiscard]] inline GaussPair gauss_pair(SplitMix64& rng) {
  const double u1 = static_cast<double>((rng.next() >> 11) + 1) * 0x1.0p-53;
  const double u2 = static_cast<double>(rng.next() >> 11) * 0x1.0p-53;
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double t = kTwoPi * u2;
  return GaussPair{r * std::cos(t), r * std::sin(t)};
}

/// One Gamma(shape, 1) draw, shape > 0: Marsaglia & Tsang (2000), "A
/// Simple Method for Generating Gamma Variables", with their
/// Gamma(shape + 1) * U^(1/shape) boost below shape 1.  Each normal is
/// gauss_pair(rng).z0 and each uniform is uniform_unit(rng), so the
/// stream is fully specified here -- unlike std::gamma_distribution,
/// whose algorithm differs between standard libraries.  Consumption is
/// data-dependent (rejection), hence scalar-only.
[[nodiscard]] inline double gamma_draw(SplitMix64& rng, double shape) {
  if (shape < 1.0) {
    const double boosted = gamma_draw(rng, shape + 1.0);
    return boosted * std::pow(uniform_unit(rng), 1.0 / shape);
  }
  const double d = shape - 1.0 / 3.0;
  const double c = 1.0 / std::sqrt(9.0 * d);
  for (;;) {
    double x = 0.0;
    double v = 0.0;
    do {
      x = gauss_pair(rng).z0;
      v = 1.0 + c * x;
    } while (v <= 0.0);
    v = v * v * v;
    const double u = uniform_unit(rng);
    const double x2 = x * x;
    if (u < 1.0 - 0.0331 * x2 * x2) return d * v;  // squeeze
    if (std::log(u) < 0.5 * x2 + d * (1.0 - v + std::log(v))) return d * v;
  }
}

}  // namespace nanocost::exec
