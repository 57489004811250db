// Technology roadmap in the shape of the 1999 ITRS.
//
// The paper computes Figures 2 and 3 from the ITRS-1999 MPU tables
// (transistor counts, chip sizes, feature sizes per node-year).  The
// original tables are not redistributable, so this module carries a
// *reconstruction* from the publicly quoted executive-summary numbers:
// cost-performance MPU at introduction, transistor count roughly
// doubling per node, chip size creeping ~10% per node, feature size
// scaling 0.7x per node.  The shapes that matter for the paper's
// argument (declining ITRS-implied s_d, the constant-die-cost squeeze)
// are properties of these scaling laws, not of any individual cell in
// the original table.  See DESIGN.md "Substitutions".
#pragma once

#include <span>
#include <string>
#include <vector>

#include "nanocost/units/area.hpp"
#include "nanocost/units/length.hpp"
#include "nanocost/units/money.hpp"

namespace nanocost::roadmap {

/// One roadmap node (a technology generation).
struct TechnologyNode final {
  int year = 0;
  std::string name;                         ///< e.g. "180nm"
  units::Nanometers half_pitch{};           ///< minimum feature size lambda
  double mpu_transistors = 0.0;             ///< cost-performance MPU, at introduction
  units::SquareCentimeters mpu_chip_area{}; ///< at introduction
  units::Millimeters wafer_diameter{};
  int metal_layers = 0;
  int mask_count = 0;
  /// Manufacturing cost per cm^2 of fabricated wafer (the paper's
  /// optimistic scenario holds this constant at 8 $/cm^2).
  units::CostPerArea cost_per_cm2{};

  /// Feature size as the micrometer value used throughout the models.
  [[nodiscard]] units::Micrometers lambda() const noexcept {
    return half_pitch.to_micrometers();
  }
  /// s_d implied by this node's MPU numbers (paper Fig. 2).
  [[nodiscard]] double implied_decompression_index() const;
};

/// An ordered set of technology nodes.
class Roadmap final {
 public:
  explicit Roadmap(std::vector<TechnologyNode> nodes);

  /// The ITRS-1999 reconstruction: 180 nm (1999) through 35 nm (2014).
  [[nodiscard]] static Roadmap itrs1999();

  /// Same trajectory but with cost per cm^2 escalating `rate` per node
  /// (the paper's "highly unlikely" optimistic scenario relaxed).
  [[nodiscard]] static Roadmap itrs1999_with_cost_escalation(double rate_per_node);

  // Lvalue-only: a view into a temporary (`Roadmap::itrs1999().nodes()`) dangles.
  [[nodiscard]] std::span<const TechnologyNode> nodes() const& noexcept { return nodes_; }
  std::span<const TechnologyNode> nodes() const&& = delete;
  [[nodiscard]] const TechnologyNode& front() const& noexcept { return nodes_.front(); }
  const TechnologyNode& front() const&& = delete;
  [[nodiscard]] const TechnologyNode& back() const& noexcept { return nodes_.back(); }
  const TechnologyNode& back() const&& = delete;

  /// Node introduced in `year`; throws std::out_of_range if absent.
  [[nodiscard]] const TechnologyNode& at_year(int year) const&;
  const TechnologyNode& at_year(int year) const&& = delete;

  /// Node whose half pitch is nearest to `half_pitch`.
  [[nodiscard]] const TechnologyNode& nearest(units::Nanometers half_pitch) const&;
  const TechnologyNode& nearest(units::Nanometers half_pitch) const&& = delete;

  /// Geometric interpolation of the trajectory at an arbitrary year
  /// between the first and last nodes (clamped outside).
  [[nodiscard]] TechnologyNode interpolate(double year) const;

 private:
  std::vector<TechnologyNode> nodes_;  // ascending year
};

}  // namespace nanocost::roadmap
