// Row-based standard-cell placement by simulated annealing on HPWL.
//
// The minimal real placer the Sec.-2.4 experiments need: gates occupy
// unit sites in rows; the optimizer swaps/moves gates to minimize total
// half-perimeter wirelength.  Deterministic per seed.  Placed HPWL is
// the ground truth that pre-placement estimates are judged against.
#pragma once

#include <cstdint>
#include <vector>

#include "nanocost/netlist/netlist.hpp"

namespace nanocost::exec {
class ThreadPool;
}

namespace nanocost::place {

/// A legal placement: every gate assigned to a distinct site on a
/// rows x cols grid.
class Placement final {
 public:
  Placement(std::int32_t rows, std::int32_t cols, std::int32_t gate_count);

  [[nodiscard]] std::int32_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::int32_t cols() const noexcept { return cols_; }
  [[nodiscard]] std::int32_t site_count() const noexcept { return rows_ * cols_; }
  [[nodiscard]] std::int32_t gate_count() const noexcept {
    return static_cast<std::int32_t>(site_of_gate_.size());
  }

  [[nodiscard]] std::int32_t site_of(std::int32_t gate) const {
    return site_of_gate_.at(static_cast<std::size_t>(gate));
  }
  [[nodiscard]] std::int32_t gate_at(std::int32_t site) const {
    return gate_of_site_.at(static_cast<std::size_t>(site));  // -1 = empty
  }
  [[nodiscard]] std::int32_t row_of(std::int32_t gate) const { return site_of(gate) / cols_; }
  [[nodiscard]] std::int32_t col_of(std::int32_t gate) const { return site_of(gate) % cols_; }

  void assign(std::int32_t gate, std::int32_t site);
  void swap_sites(std::int32_t site_a, std::int32_t site_b);

  /// Identity placement: gate i at site i (the netlist's creation order,
  /// which is already locality-friendly for generated logic).
  [[nodiscard]] static Placement ordered(const netlist::Netlist& netlist, std::int32_t rows,
                                         std::int32_t cols);
  /// Uniform random permutation placement.
  [[nodiscard]] static Placement random(const netlist::Netlist& netlist, std::int32_t rows,
                                        std::int32_t cols, std::uint64_t seed);

 private:
  std::int32_t rows_;
  std::int32_t cols_;
  std::vector<std::int32_t> site_of_gate_;
  std::vector<std::int32_t> gate_of_site_;
};

/// Total half-perimeter wirelength in site units; `row_weight` converts
/// a row step into site-width units (row pitch / site pitch).
[[nodiscard]] double total_hpwl(const netlist::Netlist& netlist, const Placement& placement,
                                double row_weight = 2.0);

/// Annealing parameters.
struct AnnealParams final {
  double initial_temperature = 0.0;  ///< finite; 0 or below = auto (from initial cost)
  double cooling = 0.95;
  std::int32_t moves_per_temperature_per_gate = 8;
  double stop_temperature_fraction = 1e-4;  ///< > 0; stop below this share of the start
  double row_weight = 2.0;
  std::uint64_t seed = 1;
};

/// Result of a placement run.
struct PlaceResult final {
  Placement placement;
  double initial_hpwl = 0.0;
  double final_hpwl = 0.0;
  std::int64_t moves_tried = 0;
  std::int64_t moves_accepted = 0;
};

/// Anneals from the ordered placement.  The inner loop keeps an
/// incremental bounding-box cache (see hpwl_cache.hpp), so a move's
/// delta-HPWL costs four min/max per affected net and visits no pin;
/// setting the NANOCOST_PLACE_CHECK environment variable to a move
/// interval N cross-validates the cache against a full recomputation
/// every N moves (throws std::logic_error on mismatch).
[[nodiscard]] PlaceResult anneal_place(const netlist::Netlist& netlist, std::int32_t rows,
                                       std::int32_t cols, const AnnealParams& params = {});

/// Result of a multi-start annealing run.
struct MultistartResult final {
  PlaceResult best;                ///< the winning start's result
  std::int32_t best_start = 0;     ///< index of the winning start
  std::int32_t starts = 0;         ///< number of independent starts
  std::vector<double> start_hpwls; ///< final HPWL of every start
};

/// Deterministic parallel multi-start annealing: `starts` independent
/// anneals fan out across `pool` (null = global pool), start i seeded
/// with SeedSequence::for_task(params.seed, i); start 0 anneals from
/// the ordered placement, the rest from seed-derived random
/// placements.  The winner minimizes (final_hpwl, start index), so the
/// result is bitwise-identical for any thread count.
[[nodiscard]] MultistartResult anneal_place_multistart(const netlist::Netlist& netlist,
                                                       std::int32_t rows, std::int32_t cols,
                                                       std::int32_t starts,
                                                       const AnnealParams& params = {},
                                                       exec::ThreadPool* pool = nullptr);

/// Net-weighted HPWL: sum of per-net HPWL times weight (weights indexed
/// by net id; missing entries default to 1).  Weighting critical nets
/// above 1 is how timing-driven placement biases the optimizer.
[[nodiscard]] double total_weighted_hpwl(const netlist::Netlist& netlist,
                                         const Placement& placement,
                                         const std::vector<double>& net_weights,
                                         double row_weight = 2.0);

/// Anneals minimizing the weighted HPWL -- timing-driven placement when
/// the weights come from an STA's critical path.
[[nodiscard]] PlaceResult anneal_place_weighted(const netlist::Netlist& netlist,
                                                std::int32_t rows, std::int32_t cols,
                                                const std::vector<double>& net_weights,
                                                const AnnealParams& params = {});

/// Warm-start refinement: anneals the weighted objective *from* an
/// existing placement at a low temperature, preserving its structure
/// while pulling the heavily-weighted (critical) nets tighter.  The
/// timing-closure iteration uses this, not a from-scratch re-anneal.
[[nodiscard]] PlaceResult anneal_refine_weighted(const netlist::Netlist& netlist,
                                                 const Placement& start,
                                                 const std::vector<double>& net_weights,
                                                 const AnnealParams& params = {});

}  // namespace nanocost::place
