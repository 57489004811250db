// Slicing floorplanner: chip-level block assembly.
//
// Table A1's interesting rows split a die into memory and logic regions
// with very different densities; composing those regions into a die is
// a floorplanning problem.  This is the classic slicing approach:
// blocks at the leaves of a binary cut tree (Polish expression),
// Stockmeyer shape-curve combination for soft blocks, and simulated
// annealing over the expression.  The output the cost models need is
// the packed die's bounding box -- dead space is silicon you pay
// Cm_sq for but get no transistors from, a direct s_d inflation.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace nanocost::floorplan {

/// A block to place: fixed area, flexible shape within an aspect range.
struct Block final {
  std::string name;
  double area = 1.0;           ///< in any consistent unit^2
  double min_aspect = 0.5;     ///< width / height lower bound
  double max_aspect = 2.0;     ///< width / height upper bound
  int shape_options = 5;       ///< discrete shapes sampled from the range
};

/// A placed block in the result.
struct PlacedBlock final {
  std::string name;
  double x = 0.0;  ///< lower-left corner
  double y = 0.0;
  double width = 0.0;
  double height = 0.0;
};

struct FloorplanResult final {
  double width = 0.0;
  double height = 0.0;
  std::vector<PlacedBlock> blocks;

  [[nodiscard]] double area() const noexcept { return width * height; }
  [[nodiscard]] double block_area() const noexcept;
  /// Fraction of the bounding box not covered by blocks.
  [[nodiscard]] double dead_space() const noexcept;
};

struct FloorplanParams final {
  double initial_temperature = 0.0;  ///< finite; 0 or below = auto from initial area
  double cooling = 0.92;
  int moves_per_temperature = 60;
  double stop_temperature_fraction = 1e-4;  ///< > 0; stop below this share of the start
  std::uint64_t seed = 1;
};

/// Packs the blocks; throws std::invalid_argument on empty input,
/// degenerate block parameters, a cooling factor outside (0, 1), a
/// stop temperature fraction that is not > 0 or a non-finite initial
/// temperature.
[[nodiscard]] FloorplanResult floorplan(const std::vector<Block>& blocks,
                                        const FloorplanParams& params = {});

}  // namespace nanocost::floorplan
