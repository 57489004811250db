// Incremental per-net bounding-box cache for the annealing placer.
//
// The placer's inner loop needs the weighted-HPWL delta of a swap.
// Recomputing each affected net's bounding box from its pins makes a
// move cost O(sum of affected-net pin counts); this cache keeps every
// gate's coordinates and every net's committed value, plus one of two
// structures per net, so a proposed swap costs O(1) per affected net
// in the common case:
//
//  - a net of at most kSmallNetPins pins -- every net of the generated
//    netlists -- gives each of its (gate, net) incidences the bounding
//    box of the net's *other* pins.  Moving one gate leaves its other
//    pins where they are, so the net's new value is that box stretched
//    to the destination: four min/max, no pin visited.
//  - a larger net keeps a counted box: its extremes plus the number of
//    pins sitting on each (VPR's incremental box, Betz & Rose 1997).
//    Removing the moved pin cannot shrink an extreme it does not sit on
//    (or one still held by other pins), so the new value is the
//    surviving extremes stretched to the destination; only a pin that
//    is the last on one of its extremes forces a rescan of the net's
//    cached coordinates (recompute-on-shrink).
//
// A net on which both swap partners sit is rescanned from its pins
// (pin_scan.hpp): neither structure survives two moved gates.
//
// peek_swap writes only the moved coordinates and a stash of the
// affected nets' new values.  Rejection, the overwhelmingly common
// annealing outcome, costs a coordinate restore and nothing else;
// commit() adopts the stashed values, rescans the counted boxes of the
// large nets, and refreshes the other-pin boxes of the small nets'
// incidences whose other pins moved.  Every value is an exact integer
// span, so each path gives a net the same double bit for bit, and the
// delta is summed in ascending net order whichever path scored a net.
//
// Invariant (cross-checked by place_incremental_test and, when the
// NANOCOST_PLACE_CHECK environment variable is set, by the placer
// itself every N moves): after any sequence of committed swaps, every
// other-pin box and every counted box equals its recompute from the
// tracked placement, counted boxes exist only for nets over
// kSmallNetPins pins, and resum() equals total_weighted_hpwl of the
// tracked placement bit for bit.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "nanocost/exec/simd.hpp"
#include "nanocost/netlist/netlist.hpp"
#include "nanocost/place/pin_scan.hpp"
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
  /// below: this and discard() are the annealer's per-move costs.
  double peek_swap(std::int32_t gate, std::int32_t row, std::int32_t col,
                   std::int32_t other_gate);

  /// Adopts the pending proposal: per-net values, boxes, running total.
  void commit();

  /// Drops the pending proposal (restores the moved coordinates).
  void discard() {
    const auto ga = static_cast<std::size_t>(pending_gate_);
    if (pending_other_ >= 0) {
      // The partner returns to the proposal site, i.e. gate's current spot.
      pos_[static_cast<std::size_t>(pending_other_)] = pos_[ga];
    }
    pos_[ga] = Pos{static_cast<float>(pending_old_c_), static_cast<float>(pending_old_r_)};
    pending_gate_ = -1;
  }

  /// peek_swap + commit in one call.  Calling again with the original
  /// position reverts, and the returned delta is the exact negation.
  double apply_swap(std::int32_t gate, std::int32_t row, std::int32_t col,
                    std::int32_t other_gate) {
    const double delta = peek_swap(gate, row, col, other_gate);
    commit();
    return delta;
  }

  [[nodiscard]] std::int32_t row_of(std::int32_t gate) const {
    return static_cast<std::int32_t>(pos_[static_cast<std::size_t>(gate)].r);
  }
  [[nodiscard]] std::int32_t col_of(std::int32_t gate) const {
    return static_cast<std::int32_t>(pos_[static_cast<std::size_t>(gate)].c);
  }
  /// Cached HPWL of one net (unweighted).
  [[nodiscard]] double net_hpwl(std::int32_t net) const {
    return value_[static_cast<std::size_t>(net)];
  }

 private:
  // Gate coordinates as (c, r) float pairs -- see pin_scan.hpp, which
  // owns the layout and the vector scans over it.
  using Pos = detail::PinPos;
  /// Bounding box of the pins of a small net other than one gate's.
  /// With no such pins, min is INT32_MAX and max INT32_MIN, which any
  /// destination collapses to a point (a value of 0).
  struct OtherBox {
    std::int32_t min_c = 0, max_c = 0, min_r = 0, max_r = 0;
  };
  /// A large net's box with the number of pins on each extreme.
  struct Box {
    std::int32_t min_c = 0, max_c = 0, min_r = 0, max_r = 0;
    std::int32_t cnt_min_c = 0, cnt_max_c = 0, cnt_min_r = 0, cnt_max_r = 0;
  };
  /// An affected net of the pending proposal: its new value, and the
  /// gate whose own other-pin box the move leaves valid (the net's one
  /// moved gate; -1 when both swap partners sit on the net).
  struct Stashed {
    std::int32_t net = 0;
    std::int32_t mover = -1;
    double value = 0.0;
  };

  /// Largest net scored from other-pin boxes; larger nets keep a
  /// counted Box.  Past a handful of pins the incidence boxes cost
  /// more to refresh on commit (a rescan per pin) and to store than
  /// the counted box does.
  static constexpr std::int32_t kSmallNetPins = 8;

  [[nodiscard]] Box scan_box(std::int32_t net) const;
  [[nodiscard]] OtherBox scan_others(std::int32_t net, std::int32_t gate) const;
  // Force-inlined: with three scan variants reachable from the
  // dispatch, GCC's size heuristics otherwise stop inlining this
  // into the annealer's move loop.
  [[nodiscard]] NANOCOST_PIN_SCAN_INLINE double scan_value(std::int32_t net) const;
  [[nodiscard]] double span_value(std::int32_t min_c, std::int32_t max_c, std::int32_t min_r,
                                  std::int32_t max_r) const {
    return static_cast<double>(max_c - min_c) +
           row_weight_ * static_cast<double>(max_r - min_r);
  }
  /// Recomputes the other-pin box of every incidence of small `net`
  /// except `mover`'s.
  void refresh_others(std::int32_t net, std::int32_t mover);

  double row_weight_;
  // Scan lane width, resolved once at construction (scan_value runs per
  // shared net per move; a dispatch call there would dominate it).
  exec::SimdLevel simd_level_ = exec::simd_level();
  // Gate coordinates (the cache's own copy of the placement), packed
  // so a pin visit touches one cache line, not two.
  std::vector<Pos> pos_;
  // CSR gate -> (net, pin multiplicity in that net), each gate's nets
  // ascending; others_ runs parallel to it (entries of large nets are
  // unused).
  std::vector<std::int32_t> gate_net_offset_;
  std::vector<std::int32_t> gate_net_id_;
  std::vector<std::int32_t> gate_net_mult_;
  std::vector<OtherBox> others_;
  // CSR net -> gate pin occurrences (driver + sinks).
  std::vector<std::int32_t> net_pin_offset_;
  std::vector<std::int32_t> net_pin_gate_;
  // Per net: index into counted_, or -1 for a net of at most
  // kSmallNetPins pins.
  std::vector<std::int32_t> counted_of_;
  std::vector<Box> counted_;
  // Committed per-net value, so the delta loop never recomputes the
  // "old" side.
  std::vector<double> value_;
  std::vector<double> weight_;
  double total_ = 0.0;
  // Pending-proposal state: evaluation writes nothing else but the
  // moved coordinates, so this is all a discard has to undo.  stash_
  // holds room for the two gates' incidences together.
  std::vector<Stashed> stash_;
  std::int32_t stashed_ = 0;
  double pending_delta_ = 0.0;
  std::int32_t pending_gate_ = -1;
  std::int32_t pending_other_ = -1;
  std::int32_t pending_old_r_ = 0;
  std::int32_t pending_old_c_ = 0;
};

NANOCOST_PIN_SCAN_INLINE double HpwlCache::scan_value(std::int32_t net) const {
  const auto n = static_cast<std::size_t>(net);
  const std::int32_t begin = net_pin_offset_[n];
  const std::int32_t end = net_pin_offset_[n + 1];
  if (begin == end) return 0.0;
  // The scan variants (pin_scan.hpp) share one clamped-unroll contract:
  // coordinates are small integers, min/max on them is order-free, and
  // the float spans (and their widening to double) are exact, so every
  // lane width returns the same value bitwise.
  const detail::PinSpan s =
      detail::scan_span(simd_level_, pos_.data(), net_pin_gate_.data(), begin, end);
  return static_cast<double>(s.span_c) + row_weight_ * static_cast<double>(s.span_r);
}

inline double HpwlCache::peek_swap(std::int32_t gate, std::int32_t row, std::int32_t col,
                                   std::int32_t other_gate) {
  const auto ga = static_cast<std::size_t>(gate);
  const Pos old_pos = pos_[ga];
  const auto old_r = static_cast<std::int32_t>(old_pos.r);
  const auto old_c = static_cast<std::int32_t>(old_pos.c);
  pending_gate_ = gate;
  pending_other_ = other_gate;
  pending_old_r_ = old_r;
  pending_old_c_ = old_c;

  // Move the coordinates up front: the shared-net and recompute-on-
  // shrink scans read them directly.
  pos_[ga] = Pos{static_cast<float>(col), static_cast<float>(row)};
  if (other_gate >= 0) {
    pos_[static_cast<std::size_t>(other_gate)] = old_pos;
  }

  // New value of a net on which only the gate of incidence `i` moved,
  // from (fc, fr) to (tc, tr): a small net stretches the incidence's
  // other-pin box to the destination; a large net stretches its
  // counted box unless the pin was the last on an extreme it leaves.
  const auto eval_moved = [&](std::size_t i, std::size_t n, std::int32_t fc, std::int32_t fr,
                              std::int32_t tc, std::int32_t tr) -> double {
    const std::int32_t counted = counted_of_[n];
    if (counted < 0) {
      const OtherBox& o = others_[i];
      return span_value(std::min(o.min_c, tc), std::max(o.max_c, tc), std::min(o.min_r, tr),
                        std::max(o.max_r, tr));
    }
    const Box& box = counted_[static_cast<std::size_t>(counted)];
    const std::int32_t mult = gate_net_mult_[i];
    if ((fc == box.min_c && box.cnt_min_c == mult) ||
        (fc == box.max_c && box.cnt_max_c == mult) ||
        (fr == box.min_r && box.cnt_min_r == mult) ||
        (fr == box.max_r && box.cnt_max_r == mult)) {
      return scan_value(static_cast<std::int32_t>(n));
    }
    return span_value(std::min(box.min_c, tc), std::max(box.max_c, tc),
                      std::min(box.min_r, tr), std::max(box.max_r, tr));
  };

  // Each affected net's change, weighted and summed in ascending net
  // order; the new value goes to the stash for commit().  The old value
  // is the committed value_[n].
  double delta = 0.0;
  Stashed* const stash = stash_.data();
  std::int32_t stashed = 0;
  const auto settle = [&](std::size_t n, double value, std::int32_t mover) {
    stash[stashed++] = Stashed{static_cast<std::int32_t>(n), mover, value};
    const double change = value - value_[n];
    // Unit weights multiply by exactly 1.0, so one unconditional
    // multiply is branchless and bitwise-identical either way.
    delta += weight_[n] * change;
  };

  const std::int32_t gb = gate_net_offset_[ga];
  const std::int32_t ge = gate_net_offset_[ga + 1];
  if (other_gate < 0) {
    // Move to an empty site: one gate, distinct nets, no dedup needed.
    for (std::int32_t i = gb; i < ge; ++i) {
      const auto n = static_cast<std::size_t>(gate_net_id_[static_cast<std::size_t>(i)]);
      settle(n, eval_moved(static_cast<std::size_t>(i), n, old_c, old_r, col, row), gate);
    }
  } else {
    // Swap: each gate's net list is ascending (built in net order), so
    // a two-pointer merge visits every affected net once and catches
    // nets shared by both gates (counted once, rescanned with both
    // coordinates already in place) without any marking state.
    const auto oi = static_cast<std::size_t>(other_gate);
    const std::int32_t ob = gate_net_offset_[oi];
    const std::int32_t oe = gate_net_offset_[oi + 1];
    std::int32_t i = gb;
    std::int32_t j = ob;
    constexpr std::int32_t kEnd = std::numeric_limits<std::int32_t>::max();
    while (i < ge || j < oe) {
      const std::int32_t ni = i < ge ? gate_net_id_[static_cast<std::size_t>(i)] : kEnd;
      const std::int32_t nj = j < oe ? gate_net_id_[static_cast<std::size_t>(j)] : kEnd;
      if (ni < nj) {
        const auto n = static_cast<std::size_t>(ni);
        settle(n, eval_moved(static_cast<std::size_t>(i), n, old_c, old_r, col, row), gate);
        ++i;
      } else if (nj < ni) {
        const auto n = static_cast<std::size_t>(nj);
        settle(n, eval_moved(static_cast<std::size_t>(j), n, col, row, old_c, old_r),
               other_gate);
        ++j;
      } else {
        settle(static_cast<std::size_t>(ni), scan_value(ni), -1);
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
