// Wafer map: explicit placement of every complete die on a wafer.
//
// The gross die-per-wafer count is the N_ch of the paper's eq. (1).  We
// provide (a) an exact grid-placement enumeration with offset search,
// (b) the classic analytic approximation, and (c) the full map with die
// centers and radial positions, which the Monte-Carlo fab simulator and
// radial yield models consume.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "nanocost/exec/simd.hpp"
#include "nanocost/geometry/die.hpp"
#include "nanocost/geometry/wafer.hpp"

namespace nanocost::geometry {

/// One placed die site on a wafer map.
struct DieSite final {
  std::int32_t row = 0;  ///< grid row index (0 at the bottom-most row)
  std::int32_t col = 0;  ///< grid column index (0 at the left-most column)
  units::Millimeters center_x{};  ///< center x relative to wafer center
  units::Millimeters center_y{};  ///< center y relative to wafer center
  /// Distance from wafer center to die center; radial yield models key on
  /// the normalized value radial_fraction = r / usable_radius.
  [[nodiscard]] units::Millimeters radial_distance() const noexcept;
};

/// How the placement grid is anchored relative to the wafer center.
enum class GridAnchor : std::uint8_t {
  kDieCentered,     ///< a die center coincides with the wafer center
  kStreetCentered,  ///< a street crossing coincides with the wafer center
  kBestOfBoth,      ///< exact: evaluate both anchors per axis, keep the max
};

/// Exact gross die-per-wafer: number of complete dies (including their
/// share of scribe street) whose four corners lie within the usable
/// radius.  Runs in O(rows * cols).
[[nodiscard]] std::int64_t gross_die_per_wafer(const WaferSpec& wafer, const DieSize& die,
                                               GridAnchor anchor = GridAnchor::kBestOfBoth);

/// Classic analytic approximation (de Vries form):
///   N = pi d^2 / (4 A) - pi d / sqrt(2 A)
/// with d the usable diameter and A the stepped die area (die + street).
/// Accurate to a few percent for dies much smaller than the wafer.
[[nodiscard]] double gross_die_per_wafer_analytic(const WaferSpec& wafer, const DieSize& die);

/// Full wafer map: every complete die site with its position.
class WaferMap final {
 public:
  WaferMap(const WaferSpec& wafer, const DieSize& die,
           GridAnchor anchor = GridAnchor::kBestOfBoth);

  [[nodiscard]] const WaferSpec& wafer() const noexcept { return wafer_; }
  [[nodiscard]] const DieSize& die() const noexcept { return die_; }
  [[nodiscard]] const std::vector<DieSite>& sites() const noexcept { return sites_; }
  [[nodiscard]] std::int64_t die_count() const noexcept {
    return static_cast<std::int64_t>(sites_.size());
  }
  /// Fraction of usable wafer area covered by complete dies (excluding
  /// street); a placement-quality metric.
  [[nodiscard]] double area_utilization() const noexcept;

  /// Index of the site containing point (x, y), or -1 if none.
  [[nodiscard]] std::int64_t site_at(units::Millimeters x, units::Millimeters y) const noexcept;

  /// Column form of site_at for the SoA fab-simulator pipeline:
  /// out[i] = site_at(x_mm[i], y_mm[i]), bitwise at every level
  /// (simd_parity_test).  The AVX2 lane locates four points at once
  /// with exact operations only -- divide, floor, compares -- then
  /// gathers the grid cell and the site center; SSE2 has no floor and
  /// runs the scalar loop, the oracle.
  void site_at_batch(const double* x_mm, const double* y_mm, std::int64_t* out,
                     std::size_t n) const noexcept;
  void site_at_batch_at(exec::SimdLevel level, const double* x_mm, const double* y_mm,
                        std::int64_t* out, std::size_t n) const noexcept;

 private:
  WaferSpec wafer_;
  DieSize die_;
  std::vector<DieSite> sites_;
  // Cached grid parameters used by site_at().
  double step_x_mm_ = 0.0;
  double step_y_mm_ = 0.0;
  double origin_x_mm_ = 0.0;  // left edge of column 0's step cell
  double origin_y_mm_ = 0.0;  // bottom edge of row 0's step cell
  std::int32_t cols_ = 0;
  std::int32_t rows_ = 0;
  std::vector<std::int64_t> site_index_;  // rows_*cols_ grid -> site index or -1
  // Site centers as plain columns, indexed like sites_, for the vector
  // lane's gathers.
  std::vector<double> center_x_mm_;
  std::vector<double> center_y_mm_;
};

}  // namespace nanocost::geometry
