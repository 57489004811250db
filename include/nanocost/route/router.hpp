// Global routing over the placement grid.
//
// Completes the physical chain (netlist -> place -> route): each net is
// decomposed into two-pin connections (nearest-connected-pin spanning
// tree) and routed with congestion-aware L-shapes over a capacitated
// grid graph.  The outputs the cost models care about: real routed
// wirelength (HPWL is a lower bound; the inflation is the "need for
// more interconnect" the paper cites), and overflow/congestion, which
// is what forces wider channels and hence larger s_d.
#pragma once

#include <cstdint>
#include <vector>

#include "nanocost/netlist/netlist.hpp"
#include "nanocost/place/placer.hpp"
#include "nanocost/robust/cancel.hpp"

namespace nanocost::route {

struct RouterParams final {
  /// Tracks per grid-cell boundary, horizontal and vertical layers.
  std::int32_t h_capacity = 8;
  std::int32_t v_capacity = 8;
  /// Cost penalty per unit of overflow when choosing between L-shapes.
  double congestion_penalty = 4.0;
  /// Rip-up-and-reroute passes after the initial routing: connections
  /// crossing overflowed edges are removed and re-routed against the
  /// updated congestion picture.  0 = single-pass routing.
  int rip_up_passes = 0;
};

/// Edge-demand bookkeeping on the rows x cols gcell grid.
class RoutingGrid final {
 public:
  RoutingGrid(std::int32_t rows, std::int32_t cols);

  [[nodiscard]] std::int32_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::int32_t cols() const noexcept { return cols_; }

  /// Demand on the horizontal edge between (r, c) and (r, c+1).
  [[nodiscard]] std::int32_t h_demand(std::int32_t r, std::int32_t c) const;
  /// Demand on the vertical edge between (r, c) and (r+1, c).
  [[nodiscard]] std::int32_t v_demand(std::int32_t r, std::int32_t c) const;
  void add_h(std::int32_t r, std::int32_t c);
  void add_v(std::int32_t r, std::int32_t c);
  void remove_h(std::int32_t r, std::int32_t c);
  void remove_v(std::int32_t r, std::int32_t c);

 private:
  std::int32_t rows_;
  std::int32_t cols_;
  std::vector<std::int32_t> h_;  // rows x (cols-1)
  std::vector<std::int32_t> v_;  // (rows-1) x cols
};

/// Result of a routing pass.
struct RouteResult final {
  RoutingGrid grid{1, 1};
  std::int64_t total_wirelength_edges = 0;
  std::int64_t connections_routed = 0;
  std::int64_t overflowed_edges = 0;   ///< edges with demand > capacity
  double max_utilization = 0.0;        ///< max demand / capacity over edges
  double average_utilization = 0.0;    ///< mean demand / capacity over used edges
  /// Rip-up passes fully executed.  The router checks route()'s cancel
  /// token between passes: an expired deadline stops refinement after
  /// the current pass, so the result equals a fresh run with
  /// rip_up_passes = completed_rip_up_passes -- a coarser routing, never
  /// a torn one.
  int completed_rip_up_passes = 0;
  bool cancelled = false;  ///< a deadline cut the rip-up refinement short

  [[nodiscard]] bool routable() const noexcept { return overflowed_edges == 0; }
};

/// Routes every multi-pin net of `netlist` under `placement`.  Rip-up
/// passes stop at a pass boundary once `cancel` trips; an invalid token
/// (the default) never does.
[[nodiscard]] RouteResult route(const netlist::Netlist& netlist,
                                const place::Placement& placement,
                                const RouterParams& params = {},
                                const robust::CancelToken& cancel = {});

/// Routed-to-HPWL inflation factor (>= 1 for row_weight = 1).
[[nodiscard]] double wirelength_inflation(const netlist::Netlist& netlist,
                                          const place::Placement& placement,
                                          const RouteResult& result);

}  // namespace nanocost::route
