#include "nanocost/geometry/wafer_map.hpp"

#include <array>
#include <cmath>
#include <limits>
#include <numbers>

#if (defined(__x86_64__) || defined(__i386__)) && (defined(__GNUC__) || defined(__clang__))
#define NANOCOST_X86_SIMD 1
#include <immintrin.h>
#endif

namespace nanocost::geometry {

namespace {

struct GridParams {
  double step_x;    // die + street, mm
  double step_y;    // die + street, mm
  double offset_x;  // die-center offset of column 0 from wafer center, in steps
  double offset_y;
};

/// Whether a die whose center is (cx, cy) lies fully within radius r.
/// Only the die body (not its street share) must fit.
bool die_fits(double cx, double cy, double half_w, double half_h, double r) {
  const double x = std::fabs(cx) + half_w;
  const double y = std::fabs(cy) + half_h;
  return x * x + y * y <= r * r;
}

/// Enumerate all die centers for a given per-axis anchor; calls `fn(cx, cy,
/// col, row)` for each fitting die and returns the count.
template <typename Fn>
std::int64_t enumerate_fits(const WaferSpec& wafer, const DieSize& die, bool die_centered_x,
                            bool die_centered_y, Fn&& fn) {
  const double street = wafer.scribe_street().value();
  const double step_x = die.width().value() + street;
  const double step_y = die.height().value() + street;
  const double half_w = die.width().value() / 2.0;
  const double half_h = die.height().value() / 2.0;
  const double r = wafer.usable_radius().value();

  // Die centers at (i + ax) * step where ax = 0 for die-centered axis,
  // 0.5 for street-centered axis; i ranges over all integers with any
  // chance of fitting.
  const double ax = die_centered_x ? 0.0 : 0.5;
  const double ay = die_centered_y ? 0.0 : 0.5;
  const auto lo_index = [r](double step, double a) {
    return static_cast<std::int32_t>(std::floor((-r) / step - a)) - 1;
  };
  const auto hi_index = [r](double step, double a) {
    return static_cast<std::int32_t>(std::ceil(r / step - a)) + 1;
  };

  std::int64_t count = 0;
  for (std::int32_t j = lo_index(step_y, ay); j <= hi_index(step_y, ay); ++j) {
    const double cy = (j + ay) * step_y;
    if (std::fabs(cy) + half_h > r) continue;
    for (std::int32_t i = lo_index(step_x, ax); i <= hi_index(step_x, ax); ++i) {
      const double cx = (i + ax) * step_x;
      if (die_fits(cx, cy, half_w, half_h, r)) {
        fn(cx, cy, i, j);
        ++count;
      }
    }
  }
  return count;
}

struct AnchorChoice {
  bool die_centered_x;
  bool die_centered_y;
};

/// For kBestOfBoth, evaluate all four per-axis anchor combinations and
/// return the best one (ties broken toward die-centered for determinism).
AnchorChoice best_anchor(const WaferSpec& wafer, const DieSize& die) {
  static constexpr std::array<AnchorChoice, 4> kChoices{{
      {true, true},
      {true, false},
      {false, true},
      {false, false},
  }};
  AnchorChoice best = kChoices[0];
  std::int64_t best_count = -1;
  for (const auto& c : kChoices) {
    const std::int64_t n = enumerate_fits(wafer, die, c.die_centered_x, c.die_centered_y,
                                          [](double, double, std::int32_t, std::int32_t) {});
    if (n > best_count) {
      best_count = n;
      best = c;
    }
  }
  return best;
}

AnchorChoice resolve_anchor(const WaferSpec& wafer, const DieSize& die, GridAnchor anchor) {
  switch (anchor) {
    case GridAnchor::kDieCentered:
      return {true, true};
    case GridAnchor::kStreetCentered:
      return {false, false};
    case GridAnchor::kBestOfBoth:
      return best_anchor(wafer, die);
  }
  return {true, true};
}

}  // namespace

units::Millimeters DieSite::radial_distance() const noexcept {
  return units::Millimeters{std::hypot(center_x.value(), center_y.value())};
}

std::int64_t gross_die_per_wafer(const WaferSpec& wafer, const DieSize& die, GridAnchor anchor) {
  const AnchorChoice c = resolve_anchor(wafer, die, anchor);
  return enumerate_fits(wafer, die, c.die_centered_x, c.die_centered_y,
                        [](double, double, std::int32_t, std::int32_t) {});
}

double gross_die_per_wafer_analytic(const WaferSpec& wafer, const DieSize& die) {
  const double street = wafer.scribe_street().value();
  const double step_area_mm2 =
      (die.width().value() + street) * (die.height().value() + street);
  const double d = 2.0 * wafer.usable_radius().value();
  const double n = std::numbers::pi * d * d / (4.0 * step_area_mm2) -
                   std::numbers::pi * d / std::sqrt(2.0 * step_area_mm2);
  return n > 0.0 ? n : 0.0;
}

WaferMap::WaferMap(const WaferSpec& wafer, const DieSize& die, GridAnchor anchor)
    : wafer_(wafer), die_(die) {
  const AnchorChoice c = resolve_anchor(wafer, die, anchor);
  const double street = wafer.scribe_street().value();
  step_x_mm_ = die.width().value() + street;
  step_y_mm_ = die.height().value() + street;
  const double ax = c.die_centered_x ? 0.0 : 0.5;
  const double ay = c.die_centered_y ? 0.0 : 0.5;

  std::int32_t min_i = 0, max_i = 0, min_j = 0, max_j = 0;
  bool first = true;
  enumerate_fits(wafer, die, c.die_centered_x, c.die_centered_y,
                 [&](double cx, double cy, std::int32_t i, std::int32_t j) {
                   DieSite site;
                   site.col = i;
                   site.row = j;
                   site.center_x = units::Millimeters{cx};
                   site.center_y = units::Millimeters{cy};
                   sites_.push_back(site);
                   if (first) {
                     min_i = max_i = i;
                     min_j = max_j = j;
                     first = false;
                   } else {
                     min_i = std::min(min_i, i);
                     max_i = std::max(max_i, i);
                     min_j = std::min(min_j, j);
                     max_j = std::max(max_j, j);
                   }
                 });

  // Re-base row/col so indices start at zero, and build the reverse grid.
  if (!sites_.empty()) {
    cols_ = max_i - min_i + 1;
    rows_ = max_j - min_j + 1;
    site_index_.assign(static_cast<std::size_t>(cols_) * rows_, -1);
    for (std::size_t k = 0; k < sites_.size(); ++k) {
      sites_[k].col -= min_i;
      sites_[k].row -= min_j;
      site_index_[static_cast<std::size_t>(sites_[k].row) * cols_ + sites_[k].col] =
          static_cast<std::int64_t>(k);
    }
    // Step-cell origin of (row 0, col 0): die center minus half a step.
    origin_x_mm_ = (min_i + ax) * step_x_mm_ - step_x_mm_ / 2.0;
    origin_y_mm_ = (min_j + ay) * step_y_mm_ - step_y_mm_ / 2.0;
  }
  center_x_mm_.reserve(sites_.size());
  center_y_mm_.reserve(sites_.size());
  for (const DieSite& s : sites_) {
    center_x_mm_.push_back(s.center_x.value());
    center_y_mm_.push_back(s.center_y.value());
  }
}

double WaferMap::area_utilization() const noexcept {
  const double die_area = die_.area().value();
  const double covered = die_area * static_cast<double>(sites_.size());
  const double usable = wafer_.usable_area().value();
  return usable > 0.0 ? covered / usable : 0.0;
}

std::int64_t WaferMap::site_at(units::Millimeters x, units::Millimeters y) const noexcept {
  if (sites_.empty()) return -1;
  const double gx = std::floor((x.value() - origin_x_mm_) / step_x_mm_);
  const double gy = std::floor((y.value() - origin_y_mm_) / step_y_mm_);
  // Range-test in double, so far-off and non-finite points never reach
  // the integer conversion.
  if (!(gx >= 0.0 && gx < cols_ && gy >= 0.0 && gy < rows_)) return -1;
  const auto col = static_cast<std::size_t>(gx);
  const auto row = static_cast<std::size_t>(gy);
  const std::int64_t idx = site_index_[row * static_cast<std::size_t>(cols_) + col];
  if (idx < 0) return -1;
  // The point must land on the die body, not its street margin.
  const DieSite& s = sites_[static_cast<std::size_t>(idx)];
  const double half_w = die_.width().value() / 2.0;
  const double half_h = die_.height().value() / 2.0;
  if (std::fabs(x.value() - s.center_x.value()) > half_w) return -1;
  if (std::fabs(y.value() - s.center_y.value()) > half_h) return -1;
  return idx;
}

#if defined(NANOCOST_X86_SIMD)

namespace {

/// Raw views of the grid for the vector lane (the lane is a free
/// function so it can carry a target attribute).
struct SiteGridView final {
  const std::int64_t* site_index;
  const double* center_x;
  const double* center_y;
  double origin_x;
  double origin_y;
  double step_x;
  double step_y;
  std::int32_t cols;
  std::int32_t rows;
  double half_w;
  double half_h;
};

/// 4-wide site_at.  Every step mirrors the scalar form: the same
/// subtract and correctly rounded divide, floor by vroundpd, the range
/// test in double, then masked gathers of the cell's site index and of
/// that site's center for the body test.  Masked-off lanes load
/// nothing, so out-of-grid and non-finite points are safe.
__attribute__((target("avx2"))) void site_at_avx2(const WaferMap& map, const SiteGridView& v,
                                                  const double* x, const double* y,
                                                  std::int64_t* out, std::size_t n) {
  const __m256d origin_x = _mm256_set1_pd(v.origin_x);
  const __m256d origin_y = _mm256_set1_pd(v.origin_y);
  const __m256d step_x = _mm256_set1_pd(v.step_x);
  const __m256d step_y = _mm256_set1_pd(v.step_y);
  const __m256d zero = _mm256_setzero_pd();
  const __m256d cols = _mm256_set1_pd(v.cols);
  const __m256d rows = _mm256_set1_pd(v.rows);
  const __m128i cols_i32 = _mm_set1_epi32(v.cols);
  const __m256d half_w = _mm256_set1_pd(v.half_w);
  const __m256d half_h = _mm256_set1_pd(v.half_h);
  const __m256d abs_mask =
      _mm256_castsi256_pd(_mm256_set1_epi64x(std::numeric_limits<std::int64_t>::max()));
  const __m256i none = _mm256_set1_epi64x(-1);
  const auto* site_index = reinterpret_cast<const long long*>(v.site_index);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d xs = _mm256_loadu_pd(x + i);
    const __m256d ys = _mm256_loadu_pd(y + i);
    const __m256d gx = _mm256_round_pd(_mm256_div_pd(_mm256_sub_pd(xs, origin_x), step_x),
                                       _MM_FROUND_TO_NEG_INF | _MM_FROUND_NO_EXC);
    const __m256d gy = _mm256_round_pd(_mm256_div_pd(_mm256_sub_pd(ys, origin_y), step_y),
                                       _MM_FROUND_TO_NEG_INF | _MM_FROUND_NO_EXC);
    const __m256d in_x = _mm256_and_pd(_mm256_cmp_pd(gx, zero, _CMP_GE_OQ),
                                       _mm256_cmp_pd(gx, cols, _CMP_LT_OQ));
    const __m256d in_y = _mm256_and_pd(_mm256_cmp_pd(gy, zero, _CMP_GE_OQ),
                                       _mm256_cmp_pd(gy, rows, _CMP_LT_OQ));
    const __m256i in = _mm256_castpd_si256(_mm256_and_pd(in_x, in_y));
    // In-grid lanes hold exact small integers, so the truncating
    // conversion and the 32-bit cell arithmetic are exact there; the
    // other lanes' values are never used.
    const __m128i cell = _mm_add_epi32(_mm_mullo_epi32(_mm256_cvttpd_epi32(gy), cols_i32),
                                       _mm256_cvttpd_epi32(gx));
    const __m256i idx = _mm256_mask_i32gather_epi64(none, site_index, cell, in, 8);
    const __m256i on_site = _mm256_cmpgt_epi64(idx, none);
    const __m256d on_site_pd = _mm256_castsi256_pd(on_site);
    const __m256d cx = _mm256_mask_i64gather_pd(zero, v.center_x, idx, on_site_pd, 8);
    const __m256d cy = _mm256_mask_i64gather_pd(zero, v.center_y, idx, on_site_pd, 8);
    // The point must land on the die body: !(|x - cx| > half_w), and
    // likewise in y.
    const __m256d dx = _mm256_and_pd(_mm256_sub_pd(xs, cx), abs_mask);
    const __m256d dy = _mm256_and_pd(_mm256_sub_pd(ys, cy), abs_mask);
    const __m256d body = _mm256_and_pd(_mm256_cmp_pd(dx, half_w, _CMP_NGT_UQ),
                                       _mm256_cmp_pd(dy, half_h, _CMP_NGT_UQ));
    const __m256i keep = _mm256_and_si256(on_site, _mm256_castpd_si256(body));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), _mm256_blendv_epi8(none, idx, keep));
  }
  for (; i < n; ++i) out[i] = map.site_at(units::Millimeters{x[i]}, units::Millimeters{y[i]});
}

}  // namespace

#endif  // NANOCOST_X86_SIMD

void WaferMap::site_at_batch_at(exec::SimdLevel level, const double* x_mm, const double* y_mm,
                                std::int64_t* out, std::size_t n) const noexcept {
#if defined(NANOCOST_X86_SIMD)
  // The lane's cell index is 32-bit; a grid too large for it (billions
  // of cells) keeps the scalar loop.
  if (level == exec::SimdLevel::kAvx2 && !sites_.empty() &&
      site_index_.size() <= static_cast<std::size_t>(std::numeric_limits<std::int32_t>::max())) {
    const SiteGridView v{site_index_.data(), center_x_mm_.data(), center_y_mm_.data(),
                         origin_x_mm_, origin_y_mm_, step_x_mm_, step_y_mm_, cols_, rows_,
                         die_.width().value() / 2.0, die_.height().value() / 2.0};
    site_at_avx2(*this, v, x_mm, y_mm, out, n);
    return;
  }
#endif
  // SSE2 has no floor instruction; the scalar loop is its honest
  // fallback, as for the kill LUT.
  (void)level;
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = site_at(units::Millimeters{x_mm[i]}, units::Millimeters{y_mm[i]});
  }
}

void WaferMap::site_at_batch(const double* x_mm, const double* y_mm, std::int64_t* out,
                             std::size_t n) const noexcept {
  site_at_batch_at(exec::simd_level(), x_mm, y_mm, out, n);
}

}  // namespace nanocost::geometry
