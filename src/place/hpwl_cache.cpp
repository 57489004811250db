#include "nanocost/place/hpwl_cache.hpp"

#include <functional>

namespace nanocost::place {

using netlist::Net;
using netlist::Netlist;

namespace {

/// One side of a net's box: the extreme pin coordinate, the gate
/// holding it, and the runner-up -- the extreme over the pins of every
/// other gate (ties included, so it may equal the extreme).
struct Side {
  std::int32_t extreme;
  std::int32_t holder;
  std::int32_t runner_up;

  /// This side of the box of the net's pins other than `gate`'s.
  [[nodiscard]] std::int32_t without(std::int32_t gate) const {
    return gate == holder ? runner_up : extreme;
  }
};

/// Folds a pin of `gate` at coordinate `x` into `side`; better(a, b)
/// means a lies further out than b.  A gate's pins share one
/// coordinate, so a pin beyond the extreme belongs to a gate other than
/// the holder, and the old extreme becomes the runner-up; a pin of the
/// holder itself (a gate listed twice) never counts as a runner-up.
template <typename Better>
void fold(Side& side, std::int32_t x, std::int32_t gate, Better better) {
  if (better(x, side.extreme)) {
    side.runner_up = side.extreme;
    side.extreme = x;
    side.holder = gate;
  } else if (gate != side.holder && better(x, side.runner_up)) {
    side.runner_up = x;
  }
}

}  // namespace

HpwlCache::HpwlCache(const Netlist& netlist, const Placement& placement, double row_weight,
                     const std::vector<double>* net_weights)
    : row_weight_(row_weight) {
  const auto gates = static_cast<std::size_t>(netlist.gate_count());
  const auto nets = static_cast<std::size_t>(netlist.net_count());

  pos_.resize(gates);
  for (std::int32_t g = 0; g < netlist.gate_count(); ++g) {
    pos_[static_cast<std::size_t>(g)] = Pos{placement.col_of(g), placement.row_of(g)};
  }

  // Net -> pins (driver first, then sinks, duplicates kept).
  net_pin_offset_.assign(nets + 1, 0);
  for (std::size_t n = 0; n < nets; ++n) {
    const Net& net = netlist.nets()[n];
    net_pin_offset_[n + 1] = net_pin_offset_[n] + (net.driver_gate >= 0 ? 1 : 0) +
                             static_cast<std::int32_t>(net.sink_gates.size());
  }
  net_pin_.resize(static_cast<std::size_t>(net_pin_offset_[nets]));
  for (std::size_t n = 0; n < nets; ++n) {
    const Net& net = netlist.nets()[n];
    auto at = static_cast<std::size_t>(net_pin_offset_[n]);
    if (net.driver_gate >= 0) net_pin_[at++].gate = net.driver_gate;
    for (const std::int32_t sink : net.sink_gates) net_pin_[at++].gate = sink;
  }

  // Gate -> nets, and each pin's incidence.  Nets are visited in order,
  // so each gate's list comes out ascending, and a gate met again on
  // the same net (listed twice) shares its first pin's incidence.
  std::vector<std::int32_t> entries(gates, 0);
  std::vector<std::int32_t> last_net(gates, -1);
  for (std::size_t n = 0; n < nets; ++n) {
    for (std::int32_t i = net_pin_offset_[n]; i < net_pin_offset_[n + 1]; ++i) {
      const auto g = static_cast<std::size_t>(net_pin_[static_cast<std::size_t>(i)].gate);
      if (last_net[g] != static_cast<std::int32_t>(n)) {
        last_net[g] = static_cast<std::int32_t>(n);
        ++entries[g];
      }
    }
  }
  gate_net_offset_.assign(gates + 1, 0);
  std::int32_t most_nets = 0;
  for (std::size_t g = 0; g < gates; ++g) {
    gate_net_offset_[g + 1] = gate_net_offset_[g] + entries[g];
    most_nets = std::max(most_nets, entries[g]);
  }
  gate_net_id_.resize(static_cast<std::size_t>(gate_net_offset_[gates]));
  std::vector<std::int32_t> fill(gate_net_offset_.begin(), gate_net_offset_.end() - 1);
  std::fill(last_net.begin(), last_net.end(), -1);
  for (std::size_t n = 0; n < nets; ++n) {
    for (std::int32_t i = net_pin_offset_[n]; i < net_pin_offset_[n + 1]; ++i) {
      Pin& pin = net_pin_[static_cast<std::size_t>(i)];
      const auto g = static_cast<std::size_t>(pin.gate);
      if (last_net[g] != static_cast<std::int32_t>(n)) {
        last_net[g] = static_cast<std::int32_t>(n);
        gate_net_id_[static_cast<std::size_t>(fill[g]++)] = static_cast<std::int32_t>(n);
      }
      pin.incidence = fill[g] - 1;
    }
  }

  weight_.resize(nets);
  for (std::size_t n = 0; n < nets; ++n) {
    weight_[n] = net_weights != nullptr && n < net_weights->size() ? (*net_weights)[n] : 1.0;
  }

  value_.assign(nets, 0.0);
  others_.resize(gate_net_id_.size());
  for (std::size_t n = 0; n < nets; ++n) rebuild(static_cast<std::int32_t>(n));
  stash_.resize(2 * static_cast<std::size_t>(most_nets));
  total_ = resum();
}

double HpwlCache::resum() const {
  double total = 0.0;
  for (std::size_t n = 0; n < value_.size(); ++n) {
    total += weight_[n] * value_[n];
  }
  return total;
}

void HpwlCache::commit() {
  const auto ga = static_cast<std::size_t>(pending_gate_);
  if (pending_other_ >= 0) {
    // The partner takes the gate's old spot.
    pos_[static_cast<std::size_t>(pending_other_)] = pos_[ga];
  }
  pos_[ga] = Pos{pending_col_, pending_row_};
  for (std::int32_t k = 0; k < stashed_; ++k) rebuild(stash_[static_cast<std::size_t>(k)]);
  total_ += pending_delta_;
}

void HpwlCache::rebuild(std::int32_t net) {
  const auto n = static_cast<std::size_t>(net);
  const auto begin = static_cast<std::size_t>(net_pin_offset_[n]);
  const auto end = static_cast<std::size_t>(net_pin_offset_[n + 1]);
  if (begin == end) return;  // pinless: value 0, no incidences
  constexpr std::int32_t kLow = std::numeric_limits<std::int32_t>::min();
  constexpr std::int32_t kHigh = std::numeric_limits<std::int32_t>::max();
  Side min_c{kHigh, -1, kHigh};
  Side max_c{kLow, -1, kLow};
  Side min_r = min_c;
  Side max_r = max_c;
  for (std::size_t i = begin; i < end; ++i) {
    const std::int32_t g = net_pin_[i].gate;
    const Pos p = pos_[static_cast<std::size_t>(g)];
    fold(min_c, p.c, g, std::less<>());
    fold(max_c, p.c, g, std::greater<>());
    fold(min_r, p.r, g, std::less<>());
    fold(max_r, p.r, g, std::greater<>());
  }
  value_[n] = span_value(min_c.extreme, max_c.extreme, min_r.extreme, max_r.extreme);
  for (std::size_t i = begin; i < end; ++i) {
    const Pin pin = net_pin_[i];
    others_[static_cast<std::size_t>(pin.incidence)] =
        OtherBox{min_c.without(pin.gate), max_c.without(pin.gate), min_r.without(pin.gate),
                 max_r.without(pin.gate)};
  }
}

}  // namespace nanocost::place
