#include "nanocost/route/router.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "nanocost/obs/metrics.hpp"
#include "nanocost/obs/trace.hpp"
#include "nanocost/robust/cancel.hpp"
#include "nanocost/robust/fault_injection.hpp"

namespace nanocost::route {

namespace {
/// Injection site evaluated once per rip-up pass; the unit index is the
/// pass number.
constexpr robust::FaultSite kRoutePassFaultSite{"route.pass"};

struct RouteMetrics {
  obs::Counter& routes = obs::counter("route.routes");
  obs::Counter& passes = obs::counter("route.passes");
  obs::Counter& reroutes = obs::counter("route.reroutes");
};
}  // namespace

using netlist::Net;
using netlist::Netlist;

RoutingGrid::RoutingGrid(std::int32_t rows, std::int32_t cols) : rows_(rows), cols_(cols) {
  if (rows_ < 1 || cols_ < 1) {
    throw std::invalid_argument("routing grid needs rows >= 1 and cols >= 1");
  }
  h_.assign(static_cast<std::size_t>(rows_) * std::max(cols_ - 1, 0), 0);
  v_.assign(static_cast<std::size_t>(std::max(rows_ - 1, 0)) * cols_, 0);
}

std::int32_t RoutingGrid::h_demand(std::int32_t r, std::int32_t c) const {
  return h_.at(static_cast<std::size_t>(r) * (cols_ - 1) + c);
}
std::int32_t RoutingGrid::v_demand(std::int32_t r, std::int32_t c) const {
  return v_.at(static_cast<std::size_t>(r) * cols_ + c);
}
void RoutingGrid::add_h(std::int32_t r, std::int32_t c) {
  ++h_.at(static_cast<std::size_t>(r) * (cols_ - 1) + c);
}
void RoutingGrid::add_v(std::int32_t r, std::int32_t c) {
  ++v_.at(static_cast<std::size_t>(r) * cols_ + c);
}
void RoutingGrid::remove_h(std::int32_t r, std::int32_t c) {
  --h_.at(static_cast<std::size_t>(r) * (cols_ - 1) + c);
}
void RoutingGrid::remove_v(std::int32_t r, std::int32_t c) {
  --v_.at(static_cast<std::size_t>(r) * cols_ + c);
}

namespace {

struct Point {
  std::int32_t r;
  std::int32_t c;
};

double edge_cost(std::int32_t demand, std::int32_t capacity, double penalty) {
  return 1.0 + (demand + 1 > capacity ? penalty * (demand + 2 - capacity) : 0.0);
}

/// Cost of a straight horizontal run at row r from c0 to c1 (exclusive
/// semantics handled by caller); helper sums per-edge congestion cost.
double h_run_cost(const RoutingGrid& g, std::int32_t r, std::int32_t c0, std::int32_t c1,
                  const RouterParams& p) {
  double sum = 0.0;
  for (std::int32_t c = std::min(c0, c1); c < std::max(c0, c1); ++c) {
    sum += edge_cost(g.h_demand(r, c), p.h_capacity, p.congestion_penalty);
  }
  return sum;
}

double v_run_cost(const RoutingGrid& g, std::int32_t c, std::int32_t r0, std::int32_t r1,
                  const RouterParams& p) {
  double sum = 0.0;
  for (std::int32_t r = std::min(r0, r1); r < std::max(r0, r1); ++r) {
    sum += edge_cost(g.v_demand(r, c), p.v_capacity, p.congestion_penalty);
  }
  return sum;
}

void commit_h(RoutingGrid& g, std::int32_t r, std::int32_t c0, std::int32_t c1) {
  for (std::int32_t c = std::min(c0, c1); c < std::max(c0, c1); ++c) g.add_h(r, c);
}

void commit_v(RoutingGrid& g, std::int32_t c, std::int32_t r0, std::int32_t r1) {
  for (std::int32_t r = std::min(r0, r1); r < std::max(r0, r1); ++r) g.add_v(r, c);
}

void uncommit_h(RoutingGrid& g, std::int32_t r, std::int32_t c0, std::int32_t c1) {
  for (std::int32_t c = std::min(c0, c1); c < std::max(c0, c1); ++c) g.remove_h(r, c);
}

void uncommit_v(RoutingGrid& g, std::int32_t c, std::int32_t r0, std::int32_t r1) {
  for (std::int32_t r = std::min(r0, r1); r < std::max(r0, r1); ++r) g.remove_v(r, c);
}

/// A committed two-pin connection: a three-segment path.  HVH runs
/// horizontally at a.r to column `mid`, vertically along `mid`, then
/// horizontally at b.r; VHV is the transpose.  L-shapes are the special
/// cases mid == b.c / a.c (HVH) or mid == b.r / a.r (VHV); detours have
/// `mid` elsewhere (including outside the pin bbox: U-shapes).
struct Routed {
  Point a;
  Point b;
  bool hvh = true;
  std::int32_t mid = 0;  // column for HVH, row for VHV
};

std::int64_t path_edges(const Routed& r) {
  if (r.hvh) {
    return std::abs(r.a.c - r.mid) + std::abs(r.mid - r.b.c) + std::abs(r.a.r - r.b.r);
  }
  return std::abs(r.a.r - r.mid) + std::abs(r.mid - r.b.r) + std::abs(r.a.c - r.b.c);
}

void commit_connection(RoutingGrid& g, const Routed& r) {
  if (r.hvh) {
    commit_h(g, r.a.r, r.a.c, r.mid);
    commit_v(g, r.mid, r.a.r, r.b.r);
    commit_h(g, r.b.r, r.mid, r.b.c);
  } else {
    commit_v(g, r.a.c, r.a.r, r.mid);
    commit_h(g, r.mid, r.a.c, r.b.c);
    commit_v(g, r.b.c, r.mid, r.b.r);
  }
}

void uncommit_connection(RoutingGrid& g, const Routed& r) {
  if (r.hvh) {
    uncommit_h(g, r.a.r, r.a.c, r.mid);
    uncommit_v(g, r.mid, r.a.r, r.b.r);
    uncommit_h(g, r.b.r, r.mid, r.b.c);
  } else {
    uncommit_v(g, r.a.c, r.a.r, r.mid);
    uncommit_h(g, r.mid, r.a.c, r.b.c);
    uncommit_v(g, r.b.c, r.mid, r.b.r);
  }
}

double path_cost(const RoutingGrid& g, const Routed& r, const RouterParams& p) {
  if (r.hvh) {
    return h_run_cost(g, r.a.r, r.a.c, r.mid, p) + v_run_cost(g, r.mid, r.a.r, r.b.r, p) +
           h_run_cost(g, r.b.r, r.mid, r.b.c, p);
  }
  return v_run_cost(g, r.a.c, r.a.r, r.mid, p) + h_run_cost(g, r.mid, r.a.c, r.b.c, p) +
         v_run_cost(g, r.b.c, r.mid, r.b.r, p);
}

/// Whether any edge of the connection's committed path is overflowed.
bool touches_overflow(const RoutingGrid& g, const Routed& r, const RouterParams& p) {
  const auto h_over = [&](std::int32_t row, std::int32_t c0, std::int32_t c1) {
    for (std::int32_t c = std::min(c0, c1); c < std::max(c0, c1); ++c) {
      if (g.h_demand(row, c) > p.h_capacity) return true;
    }
    return false;
  };
  const auto v_over = [&](std::int32_t col, std::int32_t r0, std::int32_t r1) {
    for (std::int32_t row = std::min(r0, r1); row < std::max(r0, r1); ++row) {
      if (g.v_demand(row, col) > p.v_capacity) return true;
    }
    return false;
  };
  if (r.hvh) {
    return h_over(r.a.r, r.a.c, r.mid) || v_over(r.mid, r.a.r, r.b.r) ||
           h_over(r.b.r, r.mid, r.b.c);
  }
  return v_over(r.a.c, r.a.r, r.mid) || h_over(r.mid, r.a.c, r.b.c) ||
         v_over(r.b.c, r.mid, r.b.r);
}

/// Chooses the cheapest of the two L-shapes (fast path, no detours).
Routed choose_l_shape(const RoutingGrid& g, Point a, Point b, const RouterParams& p) {
  const Routed l1{a, b, true, b.c};   // H then V
  const Routed l2{a, b, false, b.r};  // V then H
  if (a.r == b.r) return l1;
  if (a.c == b.c) return l2;
  return path_cost(g, l1, p) <= path_cost(g, l2, p) ? l1 : l2;
}

/// Full detour search: every HVH column and VHV row, detour length
/// penalized by 1 per extra edge (already in the cost: longer runs sum
/// more edges).  O(rows + cols) per connection; reroute-only.
Routed choose_with_detours(const RoutingGrid& g, Point a, Point b, const RouterParams& p) {
  Routed best = choose_l_shape(g, a, b, p);
  double best_cost = path_cost(g, best, p);
  for (std::int32_t m = 0; m < g.cols(); ++m) {
    const Routed candidate{a, b, true, m};
    const double cost = path_cost(g, candidate, p);
    if (cost < best_cost) {
      best_cost = cost;
      best = candidate;
    }
  }
  for (std::int32_t m = 0; m < g.rows(); ++m) {
    const Routed candidate{a, b, false, m};
    const double cost = path_cost(g, candidate, p);
    if (cost < best_cost) {
      best_cost = cost;
      best = candidate;
    }
  }
  return best;
}

/// Enumerates the flat edge ids of a committed path.  Ids number the
/// horizontal edges row-major first (r * (cols-1) + c), then the
/// vertical ones (h_count + r * cols + c) -- the keys of the rip-up
/// stage's dirty-edge bookkeeping.
template <typename Fn>
void for_each_edge(const RoutingGrid& g, const Routed& r, Fn&& fn) {
  const std::int32_t hw = g.cols() - 1;
  const std::int32_t h_count = g.rows() * hw;
  const auto h_edges = [&](std::int32_t row, std::int32_t c0, std::int32_t c1) {
    for (std::int32_t c = std::min(c0, c1); c < std::max(c0, c1); ++c) fn(row * hw + c);
  };
  const auto v_edges = [&](std::int32_t col, std::int32_t r0, std::int32_t r1) {
    for (std::int32_t row = std::min(r0, r1); row < std::max(r0, r1); ++row) {
      fn(h_count + row * g.cols() + col);
    }
  };
  if (r.hvh) {
    h_edges(r.a.r, r.a.c, r.mid);
    v_edges(r.mid, r.a.r, r.b.r);
    h_edges(r.b.r, r.mid, r.b.c);
  } else {
    v_edges(r.a.c, r.a.r, r.mid);
    h_edges(r.mid, r.a.c, r.b.c);
    v_edges(r.b.c, r.mid, r.b.r);
  }
}

}  // namespace

RouteResult route(const Netlist& netlist, const place::Placement& placement,
                  const RouterParams& params, const robust::CancelToken& cancel) {
  if (params.h_capacity < 1 || params.v_capacity < 1) {
    throw std::invalid_argument("router capacities must be >= 1");
  }
  if (params.rip_up_passes < 0) {
    throw std::invalid_argument("rip-up pass count must be >= 0");
  }
  obs::ObsSpan route_span("route.route");
  RouteResult result;
  result.grid = RoutingGrid(placement.rows(), placement.cols());

  std::vector<Routed> log;
  std::vector<Point> pins;
  std::vector<Point> connected;
  for (const Net& net : netlist.nets()) {
    pins.clear();
    if (net.driver_gate >= 0) {
      pins.push_back(Point{placement.row_of(net.driver_gate),
                           placement.col_of(net.driver_gate)});
    }
    for (const std::int32_t sink : net.sink_gates) {
      pins.push_back(Point{placement.row_of(sink), placement.col_of(sink)});
    }
    if (pins.size() < 2) continue;

    // Nearest-connected-pin spanning tree (Prim on Manhattan distance).
    connected.clear();
    connected.push_back(pins[0]);
    std::vector<bool> used(pins.size(), false);
    used[0] = true;
    for (std::size_t step = 1; step < pins.size(); ++step) {
      std::size_t best_pin = 0;
      Point best_anchor{0, 0};
      std::int64_t best_dist = std::numeric_limits<std::int64_t>::max();
      for (std::size_t i = 0; i < pins.size(); ++i) {
        if (used[i]) continue;
        for (const Point& anchor : connected) {
          const std::int64_t dist = std::abs(pins[i].r - anchor.r) +
                                    std::abs(pins[i].c - anchor.c);
          if (dist < best_dist) {
            best_dist = dist;
            best_pin = i;
            best_anchor = anchor;
          }
        }
      }
      used[best_pin] = true;
      const Point a = best_anchor;
      const Point b = pins[best_pin];
      if (a.r != b.r || a.c != b.c) {
        const Routed routed = choose_l_shape(result.grid, a, b, params);
        commit_connection(result.grid, routed);
        log.push_back(routed);
        result.total_wirelength_edges += path_edges(routed);
      }
      ++result.connections_routed;
      connected.push_back(pins[best_pin]);
    }
  }

  // Rip-up and reroute: pull connections off overflowed edges one at a
  // time and reroute them with the full detour search (Z/U shapes)
  // against the live congestion picture.  Instead of re-walking every
  // connection's path each pass, a dirty-edge overflow set narrows
  // each pass to candidate connections: every connection registers on
  // the edges of its committed path, connections on overflowed edges
  // are marked dirty, and a reroute that leaves an edge overflowed
  // re-marks that edge's registrants.  Registrations go stale when a
  // reroute moves a path -- a stale mark is cleared by the
  // touches_overflow re-verification, never missed -- so the set of
  // reroutes, their order, and the final routing are identical to the
  // full scan.
  if (params.rip_up_passes > 0 && !log.empty()) {
    const std::int32_t grid_rows = result.grid.rows();
    const std::int32_t grid_cols = result.grid.cols();
    const std::int32_t h_edge_count = grid_rows * (grid_cols - 1);
    const std::int32_t edge_count = h_edge_count + (grid_rows - 1) * grid_cols;
    const auto edge_overflowed = [&](std::int32_t e) {
      if (e < h_edge_count) {
        return result.grid.h_demand(e / (grid_cols - 1), e % (grid_cols - 1)) >
               params.h_capacity;
      }
      const std::int32_t ve = e - h_edge_count;
      return result.grid.v_demand(ve / grid_cols, ve % grid_cols) > params.v_capacity;
    };

    bool any_overflow = false;
    for (std::int32_t e = 0; e < edge_count && !any_overflow; ++e) {
      any_overflow = edge_overflowed(e);
    }

    // With no overflow the full scan would reroute nothing and stop
    // after one pass; skip building the tracking structures entirely.
    if (any_overflow) {
      // Edge -> registered connections as intrusive per-edge linked
      // lists (one head per edge, one next-pointer per registration):
      // O(1) allocation-free appends, so reroute registrations cost
      // the same as the initial ones.
      std::vector<std::int32_t> user_head(static_cast<std::size_t>(edge_count), -1);
      std::vector<std::int32_t> user_conn;
      std::vector<std::int32_t> user_next;
      user_conn.reserve(static_cast<std::size_t>(result.total_wirelength_edges));
      user_next.reserve(static_cast<std::size_t>(result.total_wirelength_edges));
      const auto register_user = [&](std::int32_t conn, std::int32_t e) {
        user_conn.push_back(conn);
        user_next.push_back(user_head[static_cast<std::size_t>(e)]);
        user_head[static_cast<std::size_t>(e)] = static_cast<std::int32_t>(user_conn.size()) - 1;
      };
      std::vector<char> dirty(log.size(), 0);
      const auto mark_users = [&](std::int32_t e) {
        for (std::int32_t i = user_head[static_cast<std::size_t>(e)]; i >= 0;
             i = user_next[static_cast<std::size_t>(i)]) {
          dirty[static_cast<std::size_t>(user_conn[static_cast<std::size_t>(i)])] = 1;
        }
      };
      for (std::size_t k = 0; k < log.size(); ++k) {
        for_each_edge(result.grid, log[k],
                      [&](std::int32_t e) { register_user(static_cast<std::int32_t>(k), e); });
      }
      for (std::int32_t e = 0; e < edge_count; ++e) {
        if (edge_overflowed(e)) mark_users(e);
      }

      for (int pass = 0; pass < params.rip_up_passes; ++pass) {
        // Pass granularity keeps the result well-formed: an expired
        // deadline yields the routing as of the last finished pass --
        // exactly a fresh run with that many rip-up passes.
        if (cancel.valid() && cancel.expired()) {
          result.cancelled = true;
          robust::note_cancel_observed(cancel);
          break;
        }
        robust::inject(kRoutePassFaultSite, static_cast<std::uint64_t>(pass));
        obs::ObsSpan pass_span("route.pass");
        pass_span.arg("pass", static_cast<std::uint64_t>(pass));
        if (pass_span.armed()) {
          // Counting the dirty set is O(connections); only pay it when
          // this span is actually recording.
          std::uint64_t n_dirty = 0;
          for (const char d : dirty) n_dirty += static_cast<std::uint64_t>(d);
          pass_span.arg("dirty", n_dirty);
        }
        std::int64_t rerouted = 0;
        for (std::size_t k = 0; k < log.size(); ++k) {
          if (dirty[k] == 0) continue;
          if (!touches_overflow(result.grid, log[k], params)) {
            dirty[k] = 0;  // stale mark (edge recovered or path moved off it)
            continue;
          }
          uncommit_connection(result.grid, log[k]);
          result.total_wirelength_edges -= path_edges(log[k]);
          dirty[k] = 0;
          const Routed replacement =
              choose_with_detours(result.grid, log[k].a, log[k].b, params);
          log[k] = replacement;
          result.total_wirelength_edges += path_edges(replacement);
          commit_connection(result.grid, replacement);
          for_each_edge(result.grid, replacement, [&](std::int32_t e) {
            register_user(static_cast<std::int32_t>(k), e);
            if (edge_overflowed(e)) mark_users(e);
          });
          ++rerouted;
        }
        if (auto* m = obs::metrics_table<RouteMetrics>()) {
          m->passes.add();
          m->reroutes.add(static_cast<std::uint64_t>(rerouted));
        }
        ++result.completed_rip_up_passes;
        if (rerouted == 0) break;
      }
    }
  }
  route_span.arg("connections", static_cast<std::uint64_t>(result.connections_routed));
  if (auto* m = obs::metrics_table<RouteMetrics>()) m->routes.add();

  // Congestion census.
  std::int64_t used_edges = 0;
  double util_sum = 0.0;
  const auto tally = [&](std::int32_t demand, std::int32_t capacity) {
    if (demand == 0) return;
    const double util = static_cast<double>(demand) / capacity;
    result.max_utilization = std::max(result.max_utilization, util);
    util_sum += util;
    ++used_edges;
    if (demand > capacity) ++result.overflowed_edges;
  };
  for (std::int32_t r = 0; r < result.grid.rows(); ++r) {
    for (std::int32_t c = 0; c + 1 < result.grid.cols(); ++c) {
      tally(result.grid.h_demand(r, c), params.h_capacity);
    }
  }
  for (std::int32_t r = 0; r + 1 < result.grid.rows(); ++r) {
    for (std::int32_t c = 0; c < result.grid.cols(); ++c) {
      tally(result.grid.v_demand(r, c), params.v_capacity);
    }
  }
  result.average_utilization = used_edges > 0 ? util_sum / used_edges : 0.0;
  return result;
}

double wirelength_inflation(const Netlist& netlist, const place::Placement& placement,
                            const RouteResult& result) {
  const double hpwl = place::total_hpwl(netlist, placement, /*row_weight=*/1.0);
  if (hpwl <= 0.0) return 1.0;
  return static_cast<double>(result.total_wirelength_edges) / hpwl;
}

}  // namespace nanocost::route
