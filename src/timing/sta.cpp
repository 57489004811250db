#include "nanocost/timing/sta.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "nanocost/netlist/estimate.hpp"
#include "nanocost/obs/metrics.hpp"
#include "nanocost/obs/trace.hpp"

namespace nanocost::timing {

using netlist::Gate;
using netlist::GateType;
using netlist::Net;
using netlist::Netlist;

namespace {
struct TimingMetrics {
  obs::Counter& levelizations = obs::counter("timing.levelizations");
  obs::Counter& analyses = obs::counter("timing.analyses");
  obs::Counter& reuse_hits = obs::counter("timing.reuse_hits");
};
}  // namespace

TimingAnalyzer::TimingAnalyzer(const Netlist& netlist, const TimingParams& params)
    : netlist_(netlist),
      params_(params),
      wires_(process::InterconnectModel::for_feature_size(params.lambda)) {
  obs::ObsSpan span("timing.levelize");
  span.arg("gates", static_cast<std::uint64_t>(netlist.gate_count()));
  if (auto* m = obs::metrics_table<TimingMetrics>()) m->levelizations.add();
  const auto gates = static_cast<std::size_t>(netlist.gate_count());
  const auto nets = static_cast<std::size_t>(netlist.net_count());
  const double unit_gate_delay = wires_.gate_delay_ps();

  gate_delay_ps_.resize(gates);
  for (std::size_t g = 0; g < gates; ++g) {
    gate_delay_ps_[g] =
        params_.type_delay[static_cast<std::size_t>(netlist.gates()[g].type)] * unit_gate_delay;
  }

  // Levelized topological order.  Gate ids are already topological
  // (gates may only reference already-existing nets), so levels fall
  // out of one forward pass: a gate sits one level above its deepest
  // combinational input's driver, and DFF outputs start fresh paths at
  // level 0.  A stable sort by level keeps the order topological and
  // groups independent gates, and every valid topological order
  // produces the same arrivals.
  std::vector<std::int32_t> level(gates, 0);
  std::int32_t max_level = 0;
  for (std::size_t g = 0; g < gates; ++g) {
    const Gate& gate = netlist.gates()[g];
    if (gate.type == GateType::kDff) continue;
    std::int32_t deepest = 0;
    for (const std::int32_t in : gate.input_nets) {
      const std::int32_t driver = netlist.nets()[static_cast<std::size_t>(in)].driver_gate;
      if (driver >= 0) {
        deepest = std::max(deepest, level[static_cast<std::size_t>(driver)] + 1);
      }
    }
    level[g] = deepest;
    max_level = std::max(max_level, deepest);
  }
  // Counting sort by level (stable: ascending gate id within a level).
  std::vector<std::int32_t> level_start(static_cast<std::size_t>(max_level) + 2, 0);
  for (std::size_t g = 0; g < gates; ++g) {
    ++level_start[static_cast<std::size_t>(level[g]) + 1];
  }
  for (std::size_t l = 1; l < level_start.size(); ++l) level_start[l] += level_start[l - 1];
  topo_order_.resize(gates);
  for (std::size_t g = 0; g < gates; ++g) {
    topo_order_[static_cast<std::size_t>(level_start[static_cast<std::size_t>(level[g])]++)] =
        static_cast<std::int32_t>(g);
  }

  // Endpoints, in the order the one-shot analysis considered them (DFF
  // inputs by gate id, then unloaded driven nets by net id) so the
  // critical endpoint ties break identically.
  for (const Gate& gate : netlist.gates()) {
    if (gate.type == GateType::kDff) {
      for (const std::int32_t in : gate.input_nets) dff_input_nets_.push_back(in);
    }
  }
  for (std::size_t n = 0; n < nets; ++n) {
    const Net& net = netlist.nets()[n];
    if (net.sink_gates.empty() && net.driver_gate >= 0) {
      unloaded_nets_.push_back(static_cast<std::int32_t>(n));
    }
  }

  // Net -> pin CSR (driver first) for the per-net HPWL walk.
  net_pin_offset_.assign(nets + 1, 0);
  for (std::size_t n = 0; n < nets; ++n) {
    const Net& net = netlist.nets()[n];
    net_pin_offset_[n + 1] = net_pin_offset_[n] + (net.driver_gate >= 0 ? 1 : 0) +
                             static_cast<std::int32_t>(net.sink_gates.size());
  }
  net_pin_gate_.resize(static_cast<std::size_t>(net_pin_offset_[nets]));
  for (std::size_t n = 0; n < nets; ++n) {
    const Net& net = netlist.nets()[n];
    std::int32_t at = net_pin_offset_[n];
    if (net.driver_gate >= 0) net_pin_gate_[static_cast<std::size_t>(at++)] = net.driver_gate;
    for (const std::int32_t sink : net.sink_gates) {
      net_pin_gate_[static_cast<std::size_t>(at++)] = sink;
    }
  }

  wire_delay_ps_.resize(nets);
  gate_col_.resize(gates);
  gate_row_.resize(gates);
  critical_input_.resize(gates);
}

TimingResult TimingAnalyzer::run() {
  obs::ObsSpan span("timing.analyze");
  ++analyses_run_;
  if (auto* m = obs::metrics_table<TimingMetrics>()) {
    m->analyses.add();
    if (analyses_run_ > 1) m->reuse_hits.add();
  }
  const Netlist& nl = netlist_;
  TimingResult result;
  result.net_arrival_ps.assign(static_cast<std::size_t>(nl.net_count()), 0.0);
  // For path recovery: the input net that set each gate's output arrival.
  std::fill(critical_input_.begin(), critical_input_.end(), -1);

  for (const std::int32_t g : topo_order_) {
    const Gate& gate = nl.gates()[static_cast<std::size_t>(g)];
    const double gate_delay = gate_delay_ps_[static_cast<std::size_t>(g)];
    double launch = 0.0;
    if (gate.type != GateType::kDff) {
      // Combinational: latest input arrival plus its wire.
      for (const std::int32_t in : gate.input_nets) {
        const double t = result.net_arrival_ps[static_cast<std::size_t>(in)] +
                         wire_delay_ps_[static_cast<std::size_t>(in)];
        if (t >= launch) {
          launch = t;
          critical_input_[static_cast<std::size_t>(g)] = in;
        }
      }
    }
    // DFF outputs launch fresh paths at clk->q (their inputs terminate
    // paths, handled below).
    result.net_arrival_ps[static_cast<std::size_t>(gate.output_net)] = launch + gate_delay;
  }

  // Endpoints: DFF data/clock pins and unloaded nets.
  double best = 0.0;
  std::int32_t best_net = -1;
  const auto consider = [&](std::int32_t net, double extra_wire) {
    const double t = result.net_arrival_ps[static_cast<std::size_t>(net)] + extra_wire;
    if (t > best) {
      best = t;
      best_net = net;
    }
  };
  for (const std::int32_t in : dff_input_nets_) {
    consider(in, wire_delay_ps_[static_cast<std::size_t>(in)]);
  }
  for (const std::int32_t n : unloaded_nets_) {
    consider(n, 0.0);
  }
  result.critical_path_ps = best;

  // Backtrack the critical path.
  std::int32_t net = best_net;
  while (net >= 0) {
    const std::int32_t driver = nl.nets()[static_cast<std::size_t>(net)].driver_gate;
    if (driver < 0) break;  // reached a primary input
    result.critical_path.push_back(driver);
    result.total_gate_delay_ps += gate_delay_ps_[static_cast<std::size_t>(driver)];
    net = critical_input_[static_cast<std::size_t>(driver)];
  }
  std::reverse(result.critical_path.begin(), result.critical_path.end());
  result.total_wire_delay_ps = result.critical_path_ps - result.total_gate_delay_ps;
  return result;
}

TimingResult TimingAnalyzer::analyze_placed(const place::Placement& placement) {
  // Gate coordinates once (Placement::col_of divides per call), then
  // per-net HPWL in site units -> mm -> repeated-wire delay.
  for (std::int32_t g = 0; g < netlist_.gate_count(); ++g) {
    gate_col_[static_cast<std::size_t>(g)] = placement.col_of(g);
    gate_row_[static_cast<std::size_t>(g)] = placement.row_of(g);
  }
  for (std::size_t n = 0; n < wire_delay_ps_.size(); ++n) {
    const std::int32_t begin = net_pin_offset_[n];
    const std::int32_t end = net_pin_offset_[n + 1];
    if (end - begin < 2) {
      wire_delay_ps_[n] = 0.0;
      continue;
    }
    std::int32_t min_c = std::numeric_limits<std::int32_t>::max(), max_c = -1;
    std::int32_t min_r = min_c, max_r = -1;
    for (std::int32_t i = begin; i < end; ++i) {
      const auto g = static_cast<std::size_t>(net_pin_gate_[static_cast<std::size_t>(i)]);
      min_c = std::min(min_c, gate_col_[g]);
      max_c = std::max(max_c, gate_col_[g]);
      min_r = std::min(min_r, gate_row_[g]);
      max_r = std::max(max_r, gate_row_[g]);
    }
    const double hpwl_sites = static_cast<double>(max_c - min_c) +
                              params_.row_weight * static_cast<double>(max_r - min_r);
    const double length_mm = hpwl_sites * params_.site_pitch_um / 1000.0;
    wire_delay_ps_[n] = wires_.repeated_wire_delay_ps(length_mm);
  }
  return run();
}

TimingResult TimingAnalyzer::analyze_estimated(double sites) {
  const double avg_sites = netlist::estimate_average_net_length(netlist_, sites);
  const double length_mm = avg_sites * params_.site_pitch_um / 1000.0;
  const double per_net = wires_.repeated_wire_delay_ps(length_mm);
  for (std::size_t n = 0; n < wire_delay_ps_.size(); ++n) {
    wire_delay_ps_[n] = net_pin_offset_[n + 1] - net_pin_offset_[n] >= 2 ? per_net : 0.0;
  }
  return run();
}

TimingResult analyze_placed(const Netlist& netlist, const place::Placement& placement,
                            const TimingParams& params) {
  return TimingAnalyzer(netlist, params).analyze_placed(placement);
}

TimingResult analyze_estimated(const Netlist& netlist, double sites,
                               const TimingParams& params) {
  return TimingAnalyzer(netlist, params).analyze_estimated(sites);
}

double closure_gap(const TimingResult& estimated, const TimingResult& placed) {
  if (estimated.critical_path_ps <= 0.0) {
    throw std::invalid_argument("estimated critical path must be positive");
  }
  return (placed.critical_path_ps - estimated.critical_path_ps) /
         estimated.critical_path_ps;
}

}  // namespace nanocost::timing
