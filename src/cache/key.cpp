#include "nanocost/cache/key.hpp"

#include <unordered_map>

namespace nanocost::cache {

namespace {

/// Recursive cell content digest with per-cell memoization: shared
/// sub-cells (the common case -- an SRAM array references one bitcell
/// thousands of times) hash once.  The hierarchy is acyclic by Library
/// construction, so plain recursion terminates.
Digest128 cell_digest(const layout::Cell& cell,
                      std::unordered_map<const layout::Cell*, Digest128>& memo) {
  if (const auto it = memo.find(&cell); it != memo.end()) return it->second;
  KeyBuilder key("layout.cell");
  key.str("name", cell.name());
  key.i64("rects", static_cast<std::int64_t>(cell.rects().size()));
  for (const layout::Rect& r : cell.rects()) {
    key.i32("layer", static_cast<std::int32_t>(r.layer))
        .i64("x0", r.x0)
        .i64("y0", r.y0)
        .i64("x1", r.x1)
        .i64("y1", r.y1);
  }
  key.i64("instances", static_cast<std::int64_t>(cell.instances().size()));
  for (const layout::Instance& inst : cell.instances()) {
    key.sub("child", cell_digest(*inst.cell, memo))
        .i32("orientation", static_cast<std::int32_t>(inst.transform.orientation))
        .i64("dx", inst.transform.dx)
        .i64("dy", inst.transform.dy)
        .i32("nx", inst.nx)
        .i32("ny", inst.ny)
        .i64("pitch_x", inst.pitch_x)
        .i64("pitch_y", inst.pitch_y);
  }
  const Digest128 d = key.digest();
  memo.emplace(&cell, d);
  return d;
}

}  // namespace

Digest128 sweep_eq4_key(const core::Eq4Inputs& inputs, double lo, double hi, int steps) {
  KeyBuilder key("core.sweep_eq4");
  core::append_eq4_inputs(key, inputs);
  key.f64("lo", lo).f64("hi", hi).i32("steps", steps);
  return key.digest();
}

Digest128 monte_carlo_cost_key(const core::UncertainInputs& inputs, double s_d, int samples,
                               std::uint64_t seed, double die_budget) {
  KeyBuilder key("core.monte_carlo_cost");
  core::append_uncertain_inputs(key, inputs);
  key.f64("s_d", s_d).i32("samples", samples).u64("seed", seed).f64("die_budget", die_budget);
  return key.digest();
}

Digest128 robust_sd_key(const core::UncertainInputs& inputs, double quantile, double lo,
                        double hi, int steps, int samples, std::uint64_t seed) {
  KeyBuilder key("core.robust_sd");
  core::append_uncertain_inputs(key, inputs);
  key.f64("quantile", quantile)
      .f64("lo", lo)
      .f64("hi", hi)
      .i32("steps", steps)
      .i32("samples", samples)
      .u64("seed", seed);
  return key.digest();
}

Digest128 fabsim_run_key(const fabsim::FabConfig& config, std::int64_t n_wafers,
                         std::uint64_t seed) {
  return KeyBuilder("fabsim.run")
      .sub("simulator", config.digest())
      .i64("n_wafers", n_wafers)
      .u64("seed", seed)
      .digest();
}

Digest128 netlist_content_digest(const netlist::Netlist& netlist) {
  KeyBuilder key("netlist.content");
  key.i32("gates", netlist.gate_count()).i32("nets", netlist.net_count());
  for (const netlist::Gate& gate : netlist.gates()) {
    key.i32("type", static_cast<std::int32_t>(gate.type)).i32("out", gate.output_net);
    key.i32("inputs", static_cast<std::int32_t>(gate.input_nets.size()));
    for (const std::int32_t net : gate.input_nets) key.i32("in", net);
  }
  // Connectivity is fully determined by the gate list plus the number
  // of primary-input nets, which the net count above pins down.
  return key.digest();
}

Digest128 anneal_place_multistart_key(const netlist::Netlist& netlist, std::int32_t rows,
                                      std::int32_t cols, std::int32_t starts,
                                      const place::AnnealParams& params) {
  KeyBuilder key("place.anneal_place_multistart");
  key.sub("netlist", netlist_content_digest(netlist));
  key.i32("rows", rows).i32("cols", cols).i32("starts", starts);
  key.f64("initial_temperature", params.initial_temperature)
      .f64("cooling", params.cooling)
      .i32("moves_per_temperature_per_gate", params.moves_per_temperature_per_gate)
      .f64("stop_temperature_fraction", params.stop_temperature_fraction)
      .f64("row_weight", params.row_weight)
      .u64("seed", params.seed);
  return key.digest();
}

Digest128 cell_content_digest(const layout::Cell& cell) {
  std::unordered_map<const layout::Cell*, Digest128> memo;
  return cell_digest(cell, memo);
}

Digest128 window_sweep_key(const layout::Cell& top, std::int64_t min_window, int steps,
                           bool orientation_invariant) {
  KeyBuilder key("regularity.sweep_windows");
  key.sub("top", cell_content_digest(top));
  key.i64("min_window", min_window)
      .i32("steps", steps)
      .boolean("orientation_invariant", orientation_invariant);
  return key.digest();
}

}  // namespace nanocost::cache
