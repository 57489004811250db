#include "nanocost/place/hpwl_cache.hpp"

#include <algorithm>
#include <cstdlib>
#include <limits>

namespace nanocost::place {

using netlist::Net;
using netlist::Netlist;

HpwlCache::HpwlCache(const Netlist& netlist, const Placement& placement, double row_weight,
                     const std::vector<double>* net_weights)
    : row_weight_(row_weight) {
  const auto gates = static_cast<std::size_t>(netlist.gate_count());
  const auto nets = static_cast<std::size_t>(netlist.net_count());

  pos_.resize(gates);
  for (std::int32_t g = 0; g < netlist.gate_count(); ++g) {
    pos_[static_cast<std::size_t>(g)] =
        Pos{static_cast<float>(placement.col_of(g)), static_cast<float>(placement.row_of(g))};
  }

  // Net -> pin occurrences (driver first, then sinks, duplicates kept).
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

  // Gate -> (net, multiplicity), built by counting each gate's pin
  // occurrences per net (occurrences of one net are contiguous because
  // the net's pin list is scanned in one run).
  std::vector<std::int32_t> entries(gates, 0);
  std::vector<std::int32_t> last_net(gates, -1);
  for (std::size_t n = 0; n < nets; ++n) {
    for (std::int32_t i = net_pin_offset_[n]; i < net_pin_offset_[n + 1]; ++i) {
      const auto g = static_cast<std::size_t>(net_pin_gate_[static_cast<std::size_t>(i)]);
      if (last_net[g] != static_cast<std::int32_t>(n)) {
        last_net[g] = static_cast<std::int32_t>(n);
        ++entries[g];
      }
    }
  }
  gate_net_offset_.assign(gates + 1, 0);
  for (std::size_t g = 0; g < gates; ++g) {
    gate_net_offset_[g + 1] = gate_net_offset_[g] + entries[g];
  }
  gate_net_id_.resize(static_cast<std::size_t>(gate_net_offset_[gates]));
  gate_net_mult_.assign(gate_net_id_.size(), 0);
  std::vector<std::int32_t> fill(gate_net_offset_.begin(), gate_net_offset_.end() - 1);
  std::fill(last_net.begin(), last_net.end(), -1);
  for (std::size_t n = 0; n < nets; ++n) {
    for (std::int32_t i = net_pin_offset_[n]; i < net_pin_offset_[n + 1]; ++i) {
      const auto g = static_cast<std::size_t>(net_pin_gate_[static_cast<std::size_t>(i)]);
      if (last_net[g] != static_cast<std::int32_t>(n)) {
        last_net[g] = static_cast<std::int32_t>(n);
        gate_net_id_[static_cast<std::size_t>(fill[g])] = static_cast<std::int32_t>(n);
        gate_net_mult_[static_cast<std::size_t>(fill[g])] = 1;
        ++fill[g];
      } else {
        ++gate_net_mult_[static_cast<std::size_t>(fill[g] - 1)];
      }
    }
  }

  weight_.resize(nets);
  for (std::size_t n = 0; n < nets; ++n) {
    weight_[n] = net_weights != nullptr && n < net_weights->size() ? (*net_weights)[n] : 1.0;
  }

  value_.resize(nets);
  counted_of_.assign(nets, -1);
  for (std::size_t n = 0; n < nets; ++n) {
    const Box box = scan_box(static_cast<std::int32_t>(n));
    value_[n] = span_value(box.min_c, box.max_c, box.min_r, box.max_r);
    if (net_pin_offset_[n + 1] - net_pin_offset_[n] > kSmallNetPins) {
      counted_of_[n] = static_cast<std::int32_t>(counted_.size());
      counted_.push_back(box);
    }
  }
  others_.resize(gate_net_id_.size());
  std::size_t most_nets = 0;
  for (std::size_t g = 0; g < gates; ++g) {
    for (std::int32_t i = gate_net_offset_[g]; i < gate_net_offset_[g + 1]; ++i) {
      const std::int32_t net = gate_net_id_[static_cast<std::size_t>(i)];
      if (counted_of_[static_cast<std::size_t>(net)] < 0) {
        others_[static_cast<std::size_t>(i)] = scan_others(net, static_cast<std::int32_t>(g));
      }
    }
    most_nets = std::max(most_nets,
                         static_cast<std::size_t>(gate_net_offset_[g + 1] - gate_net_offset_[g]));
  }
  stash_.resize(2 * most_nets);
  total_ = resum();
}

HpwlCache::Box HpwlCache::scan_box(std::int32_t net) const {
  const auto n = static_cast<std::size_t>(net);
  const std::int32_t begin = net_pin_offset_[n];
  const std::int32_t end = net_pin_offset_[n + 1];
  if (begin == end) return Box{};  // pinless net
  Box box;
  box.min_c = std::numeric_limits<std::int32_t>::max();
  box.max_c = std::numeric_limits<std::int32_t>::min();
  box.min_r = box.min_c;
  box.max_r = box.max_c;
  for (std::int32_t i = begin; i < end; ++i) {
    const Pos fp = pos_[static_cast<std::size_t>(net_pin_gate_[static_cast<std::size_t>(i)])];
    const struct { std::int32_t c, r; } p{static_cast<std::int32_t>(fp.c),
                                          static_cast<std::int32_t>(fp.r)};
    if (p.c < box.min_c) {
      box.min_c = p.c;
      box.cnt_min_c = 1;
    } else if (p.c == box.min_c) {
      ++box.cnt_min_c;
    }
    if (p.c > box.max_c) {
      box.max_c = p.c;
      box.cnt_max_c = 1;
    } else if (p.c == box.max_c) {
      ++box.cnt_max_c;
    }
    if (p.r < box.min_r) {
      box.min_r = p.r;
      box.cnt_min_r = 1;
    } else if (p.r == box.min_r) {
      ++box.cnt_min_r;
    }
    if (p.r > box.max_r) {
      box.max_r = p.r;
      box.cnt_max_r = 1;
    } else if (p.r == box.max_r) {
      ++box.cnt_max_r;
    }
  }
  return box;
}

HpwlCache::OtherBox HpwlCache::scan_others(std::int32_t net, std::int32_t gate) const {
  const auto n = static_cast<std::size_t>(net);
  OtherBox box;
  box.min_c = std::numeric_limits<std::int32_t>::max();
  box.max_c = std::numeric_limits<std::int32_t>::min();
  box.min_r = box.min_c;
  box.max_r = box.max_c;
  for (std::int32_t i = net_pin_offset_[n]; i < net_pin_offset_[n + 1]; ++i) {
    const std::int32_t pin_gate = net_pin_gate_[static_cast<std::size_t>(i)];
    if (pin_gate == gate) continue;
    const Pos p = pos_[static_cast<std::size_t>(pin_gate)];
    const auto c = static_cast<std::int32_t>(p.c);
    const auto r = static_cast<std::int32_t>(p.r);
    box.min_c = std::min(box.min_c, c);
    box.max_c = std::max(box.max_c, c);
    box.min_r = std::min(box.min_r, r);
    box.max_r = std::max(box.max_r, r);
  }
  return box;
}

double HpwlCache::resum() const {
  double total = 0.0;
  for (std::size_t n = 0; n < value_.size(); ++n) {
    total += weight_[n] * value_[n];
  }
  return total;
}

void HpwlCache::commit() {
  // The peek scored every affected net already; adopt those values and
  // bring the boxes the move invalidated up to date.  A gate listed
  // twice on a net is refreshed twice, which is idempotent.
  for (std::int32_t k = 0; k < stashed_; ++k) {
    const Stashed& s = stash_[static_cast<std::size_t>(k)];
    const auto n = static_cast<std::size_t>(s.net);
    value_[n] = s.value;
    const std::int32_t counted = counted_of_[n];
    if (counted >= 0) {
      counted_[static_cast<std::size_t>(counted)] = scan_box(s.net);
    } else {
      refresh_others(s.net, s.mover);
    }
  }
  total_ += pending_delta_;
  pending_gate_ = -1;
}

void HpwlCache::refresh_others(std::int32_t net, std::int32_t mover) {
  const auto n = static_cast<std::size_t>(net);
  for (std::int32_t i = net_pin_offset_[n]; i < net_pin_offset_[n + 1]; ++i) {
    const std::int32_t gate = net_pin_gate_[static_cast<std::size_t>(i)];
    if (gate == mover) continue;
    // The gate's incidence on `net`: a pin of the net, so its net list
    // (a handful of entries) holds it.
    std::int32_t at = gate_net_offset_[static_cast<std::size_t>(gate)];
    while (gate_net_id_[static_cast<std::size_t>(at)] != net) ++at;
    others_[static_cast<std::size_t>(at)] = scan_others(net, gate);
  }
}

}  // namespace nanocost::place
