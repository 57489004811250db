// Incremental per-net bounding-box cache for the annealing placer.
//
// The placer's inner loop needs the weighted-HPWL delta of a swap.
// Recomputing each affected net's bounding box from its pins makes a
// move cost O(sum of affected-net pin counts).  This cache keeps every
// gate's coordinates, every net's committed value, and for each
// (gate, net) incidence the bounding box of the net's pins *other*
// than that gate's.  Moving one gate leaves its other pins where they
// are, so the net's new value is the incidence's box stretched to the
// destination: four min/max and no pin visited, whatever the net's
// size.  A net on which both swap partners sit keeps its value: the
// swap exchanges two of its pin positions, so its box cannot change.
//
// peek_swap writes only a stash of the affected net ids and the
// pending delta.  Rejection, the overwhelmingly common annealing
// outcome, leaves every tracked value as it was; commit() moves the
// coordinates and rebuilds each affected net's value and incidence
// boxes in one pass over its pins (rebuild()).  Every value is an
// exact integer span, and the delta is summed in ascending net order.
//
// Invariant (cross-checked by place_incremental_test and, when the
// NANOCOST_PLACE_CHECK environment variable is set, by the placer
// itself every N moves): after any sequence of committed swaps, every
// incidence box and every net value equals its recompute from the
// tracked placement, and resum() equals total_weighted_hpwl of the
// tracked placement bit for bit.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "nanocost/netlist/netlist.hpp"
#include "nanocost/place/placer.hpp"

namespace nanocost::place {

/// Tracks per-net half-perimeter boxes under gate moves.
class HpwlCache final {
 public:
  /// Snapshots `placement`'s coordinates; `net_weights` may be null
  /// (all nets weigh 1) and is indexed by net id with missing entries
  /// defaulting to 1, matching total_weighted_hpwl.
  HpwlCache(const netlist::Netlist& netlist, const Placement& placement,
            double row_weight = 2.0, const std::vector<double>* net_weights = nullptr);

  /// Running weighted-HPWL total over committed swaps.  Subject to
  /// floating-point drift over many commits; resync with resum().
  [[nodiscard]] double total() const noexcept { return total_; }

  /// Exact weighted HPWL re-summed from the committed per-net values in
  /// net order: O(nets), drift-free, bitwise-equal to
  /// total_weighted_hpwl of the tracked placement.
  [[nodiscard]] double resum() const;

  /// Proposes moving `gate` to (row, col), with `other_gate` (>= 0 for
  /// a swap, -1 for a move to an empty site) taking gate's old
  /// position.  Returns the weighted-HPWL delta and leaves the
  /// proposal pending: follow with commit() to adopt it or discard()
  /// to drop it.  At most one proposal may be pending.  Defined inline
  /// below: this is the annealer's per-move cost.
  double peek_swap(std::int32_t gate, std::int32_t row, std::int32_t col,
                   std::int32_t other_gate);

  /// Adopts the pending proposal: coordinates, per-net values, boxes,
  /// running total.
  void commit();

  /// Drops the pending proposal.  The peek changed no tracked state,
  /// so there is nothing to undo.
  void discard() noexcept {}

  /// peek_swap + commit in one call.  Calling again with the original
  /// position reverts, and the returned delta is the exact negation.
  double apply_swap(std::int32_t gate, std::int32_t row, std::int32_t col,
                    std::int32_t other_gate) {
    const double delta = peek_swap(gate, row, col, other_gate);
    commit();
    return delta;
  }

  [[nodiscard]] std::int32_t row_of(std::int32_t gate) const {
    return pos_[static_cast<std::size_t>(gate)].r;
  }
  [[nodiscard]] std::int32_t col_of(std::int32_t gate) const {
    return pos_[static_cast<std::size_t>(gate)].c;
  }
  /// Cached HPWL of one net (unweighted).
  [[nodiscard]] double net_hpwl(std::int32_t net) const {
    return value_[static_cast<std::size_t>(net)];
  }

 private:
  struct Pos {
    std::int32_t c = 0, r = 0;
  };
  /// A pin of a net: its gate, and the index of that gate's incidence
  /// on the net in gate_net_id_ and others_.
  struct Pin {
    std::int32_t gate = 0;
    std::int32_t incidence = 0;
  };
  /// Bounding box of a net's pins other than one gate's.  With no such
  /// pins, min is INT32_MAX and max INT32_MIN, which any destination
  /// collapses to a point (a value of 0).
  struct OtherBox {
    std::int32_t min_c = 0, max_c = 0, min_r = 0, max_r = 0;
  };

  [[nodiscard]] double span_value(std::int32_t min_c, std::int32_t max_c, std::int32_t min_r,
                                  std::int32_t max_r) const {
    return static_cast<double>(max_c - min_c) +
           row_weight_ * static_cast<double>(max_r - min_r);
  }
  /// Recomputes `net`'s value and the other-pin box of each of its
  /// incidences from the tracked coordinates, in one pass over its pins.
  void rebuild(std::int32_t net);

  double row_weight_;
  // Gate coordinates (the cache's own copy of the placement).
  std::vector<Pos> pos_;
  // CSR gate -> nets, each gate's nets ascending; others_ runs
  // parallel to gate_net_id_.
  std::vector<std::int32_t> gate_net_offset_;
  std::vector<std::int32_t> gate_net_id_;
  std::vector<OtherBox> others_;
  // CSR net -> pins (driver + sinks; a gate listed twice keeps both).
  std::vector<std::int32_t> net_pin_offset_;
  std::vector<Pin> net_pin_;
  // Committed per-net value, so the delta loop never recomputes the
  // "old" side.
  std::vector<double> value_;
  std::vector<double> weight_;
  double total_ = 0.0;
  // Pending proposal: the affected nets (room for both gates'
  // incidences together), their weighted delta, and the move itself.
  std::vector<std::int32_t> stash_;
  std::int32_t stashed_ = 0;
  double pending_delta_ = 0.0;
  std::int32_t pending_gate_ = -1;
  std::int32_t pending_other_ = -1;
  std::int32_t pending_row_ = 0;
  std::int32_t pending_col_ = 0;
};

inline double HpwlCache::peek_swap(std::int32_t gate, std::int32_t row, std::int32_t col,
                                   std::int32_t other_gate) {
  const auto ga = static_cast<std::size_t>(gate);
  const Pos from = pos_[ga];
  pending_gate_ = gate;
  pending_other_ = other_gate;
  pending_row_ = row;
  pending_col_ = col;

  // A net on which only the gate of incidence `i` moves, to (c, r):
  // its new value is the incidence's other-pin box stretched to (c, r),
  // and its old value the committed value_[n].  Each change is weighted
  // and summed in ascending net order; the net goes to the stash for
  // commit().
  double delta = 0.0;
  std::int32_t* const stash = stash_.data();
  std::int32_t stashed = 0;
  const auto settle = [&](std::int32_t i, std::int32_t c, std::int32_t r) {
    const auto at = static_cast<std::size_t>(i);
    const std::int32_t net = gate_net_id_[at];
    const auto n = static_cast<std::size_t>(net);
    stash[stashed++] = net;
    const OtherBox& o = others_[at];
    const double value = span_value(std::min(o.min_c, c), std::max(o.max_c, c),
                                    std::min(o.min_r, r), std::max(o.max_r, r));
    // Unit weights multiply by exactly 1.0, so one unconditional
    // multiply is branchless and bitwise-identical either way.
    delta += weight_[n] * (value - value_[n]);
  };

  const std::int32_t gb = gate_net_offset_[ga];
  const std::int32_t ge = gate_net_offset_[ga + 1];
  if (other_gate < 0) {
    // Move to an empty site: one gate, distinct nets, no dedup needed.
    for (std::int32_t i = gb; i < ge; ++i) settle(i, col, row);
  } else {
    // Swap: each gate's net list is ascending (built in net order), so
    // a two-pointer merge visits every affected net once without any
    // marking state.  A net both gates sit on keeps its value; it is
    // stashed so that commit() rebuilds the two incidence boxes the
    // swap exchanged.
    const auto oi = static_cast<std::size_t>(other_gate);
    const std::int32_t oe = gate_net_offset_[oi + 1];
    std::int32_t i = gb;
    std::int32_t j = gate_net_offset_[oi];
    constexpr std::int32_t kEnd = std::numeric_limits<std::int32_t>::max();
    while (i < ge || j < oe) {
      const std::int32_t ni = i < ge ? gate_net_id_[static_cast<std::size_t>(i)] : kEnd;
      const std::int32_t nj = j < oe ? gate_net_id_[static_cast<std::size_t>(j)] : kEnd;
      if (ni < nj) {
        settle(i++, col, row);
      } else if (nj < ni) {
        settle(j++, from.c, from.r);
      } else {
        stash[stashed++] = ni;
        ++i;
        ++j;
      }
    }
  }

  stashed_ = stashed;
  pending_delta_ = delta;
  return delta;
}

}  // namespace nanocost::place
