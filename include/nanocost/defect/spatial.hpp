// Spatial defect fields on a wafer.
//
// Supplies the Monte-Carlo fab simulator with defect positions.  Two
// regimes matter for yield statistics:
//   - a homogeneous Poisson field      -> die-level Poisson yield
//   - a gamma-mixed (clustered) field  -> die-level negative-binomial
//     yield with clustering parameter alpha
// plus an optional radial profile (defect density rising toward the
// wafer edge), the mechanism behind radial yield models.
#pragma once

#include <cstddef>
#include <vector>

#include "nanocost/defect/size_distribution.hpp"
#include "nanocost/exec/rng.hpp"
#include "nanocost/exec/simd.hpp"
#include "nanocost/geometry/wafer.hpp"

namespace nanocost::defect {

/// One wafer's defect population in structure-of-arrays form: the
/// batched fab-simulator pipeline streams positions (mm, relative to
/// the wafer center) and sizes (um) through contiguous lanes.  Parallel
/// arrays, always equal length.
struct DefectSoA final {
  std::vector<double> x_mm;
  std::vector<double> y_mm;
  std::vector<double> size_um;

  [[nodiscard]] std::size_t size() const noexcept { return x_mm.size(); }
  void clear() noexcept {
    x_mm.clear();
    y_mm.clear();
    size_um.clear();
  }
};

/// Radial modulation of defect density: multiplier(r) = 1 + edge_boost *
/// (r/R)^sharpness, normalized so the wafer-average multiplier is 1.
class RadialProfile final {
 public:
  RadialProfile() = default;  ///< flat profile
  RadialProfile(double edge_boost, double sharpness);

  /// Density multiplier at normalized radius u = r/R in [0, 1].
  [[nodiscard]] double multiplier(double u) const noexcept;
  [[nodiscard]] bool is_flat() const noexcept { return edge_boost_ == 0.0; }
  [[nodiscard]] double edge_boost() const noexcept { return edge_boost_; }
  [[nodiscard]] double sharpness() const noexcept { return sharpness_; }

 private:
  double edge_boost_ = 0.0;
  double sharpness_ = 2.0;
  double norm_ = 1.0;  // normalizes the area-weighted mean multiplier to 1
};

/// Parameters of a wafer defect field.
struct DefectFieldParams final {
  /// Mean defect density over the wafer, defects per cm^2.
  double density_per_cm2 = 0.5;
  /// Negative-binomial clustering parameter; +infinity (or <= 0 treated
  /// as infinity is NOT allowed -- use `clustered = false`) gives pure
  /// Poisson.  Smaller alpha = heavier wafer-to-wafer clustering.
  double cluster_alpha = 2.0;
  bool clustered = false;
  RadialProfile radial{};
};

/// Samples complete defect populations for one wafer at a time.
class DefectField final {
 public:
  DefectField(const geometry::WaferSpec& wafer, const DefectSizeDistribution& sizes,
              DefectFieldParams params);

  /// Expected defect count per wafer (over full wafer area).
  [[nodiscard]] double expected_count() const noexcept;

  /// Samples one wafer's defects into `out` (cleared, then filled).
  /// With clustering enabled, first draws a wafer-level gamma
  /// multiplier (shape alpha, mean 1; exec::gamma_draw), realizing the
  /// gamma-mixed Poisson that yields negative-binomial die statistics.
  /// Positions come from square rejection against the disc (flat radial
  /// profile) with the candidate uniforms drawn through the vectorized
  /// rng_batch path, or from scalar envelope rejection (radial profile);
  /// the size column runs through DefectSizeDistribution::
  /// sample_batch_at.  Bitwise identical -- values and stream
  /// consumption -- at every SimdLevel (simd_parity_test).
  void sample_wafer(exec::SplitMix64& rng, DefectSoA& out) const;
  void sample_wafer_at(exec::SimdLevel level, exec::SplitMix64& rng, DefectSoA& out) const;

  [[nodiscard]] const DefectFieldParams& params() const noexcept { return params_; }

 private:
  geometry::WaferSpec wafer_;
  DefectSizeDistribution sizes_;
  DefectFieldParams params_;
};

}  // namespace nanocost::defect
