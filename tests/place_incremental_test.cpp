// Cross-validation of the placer's incremental HPWL cache
// (hpwl_cache.hpp) against full recomputation: randomized move/swap
// sequences, pending-proposal discard, exact revert negation, and the
// resum() == total_weighted_hpwl bitwise invariant, unweighted and
// weighted; a hand-built netlist whose nets of 0 to 40 pins, gates
// listed twice and net-sharing swap partners drive the other-pin boxes
// through ties, two-pin holders and nets both partners sit on; and the
// placer's NANOCOST_PLACE_CHECK mode.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "nanocost/exec/rng.hpp"
#include "nanocost/netlist/generator.hpp"
#include "nanocost/place/hpwl_cache.hpp"
#include "nanocost/place/placer.hpp"

namespace {

using namespace nanocost;

constexpr std::int32_t kRows = 12;
constexpr std::int32_t kCols = 14;

netlist::Netlist make_netlist() {
  netlist::GeneratorParams gen;
  gen.gate_count = 120;  // < kRows * kCols, so empty sites exist
  gen.locality = 0.4;
  gen.seed = 7;
  return netlist::generate_random_logic(gen);
}

/// One random proposal: returns false if it degenerates (same site).
struct Proposal {
  std::int32_t gate = 0;
  std::int32_t to = 0;
  std::int32_t from = 0;
  std::int32_t other = -1;
};

bool draw_proposal(exec::SplitMix64& rng, const place::Placement& placement, Proposal& p) {
  const auto [gate, to] =
      exec::bounded_i32_pair(rng, placement.gate_count(), placement.site_count());
  p.gate = gate;
  p.to = to;
  p.from = placement.site_of(gate);
  if (p.to == p.from) return false;
  p.other = placement.gate_at(p.to);
  return true;
}

TEST(PlaceIncremental, CachedDeltaMatchesFullRecomputeOverRandomMoves) {
  const netlist::Netlist nl = make_netlist();
  place::Placement placement = place::Placement::random(nl, kRows, kCols, 11);
  place::HpwlCache cache(nl, placement);

  double full = place::total_hpwl(nl, placement);
  EXPECT_EQ(cache.resum(), full);

  exec::SplitMix64 rng(99);
  int applied = 0;
  for (int move = 0; move < 4000; ++move) {
    Proposal p;
    if (!draw_proposal(rng, placement, p)) continue;
    const double delta =
        cache.apply_swap(p.gate, p.to / kCols, p.to % kCols, p.other);
    placement.swap_sites(p.from, p.to);
    const double next = place::total_hpwl(nl, placement);
    // The cached delta is a per-net sum; the full recompute differs
    // only by summation order, so they agree to rounding.
    EXPECT_NEAR(delta, next - full, 1e-6 * (1.0 + std::abs(next)));
    // The cache's own drift-free resum is bitwise-equal to the ground
    // truth, and its coordinates mirror the placement exactly.
    EXPECT_EQ(cache.resum(), next);
    EXPECT_EQ(cache.row_of(p.gate), placement.row_of(p.gate));
    EXPECT_EQ(cache.col_of(p.gate), placement.col_of(p.gate));
    full = next;
    ++applied;
  }
  EXPECT_GT(applied, 3000);
}

TEST(PlaceIncremental, DiscardRestoresStateExactly) {
  const netlist::Netlist nl = make_netlist();
  place::Placement placement = place::Placement::random(nl, kRows, kCols, 5);
  place::HpwlCache cache(nl, placement);

  const double before_total = cache.total();
  const double before_resum = cache.resum();
  exec::SplitMix64 rng(3);
  for (int move = 0; move < 1000; ++move) {
    Proposal p;
    if (!draw_proposal(rng, placement, p)) continue;
    (void)cache.peek_swap(p.gate, p.to / kCols, p.to % kCols, p.other);
    cache.discard();
    ASSERT_EQ(cache.row_of(p.gate), placement.row_of(p.gate));
    ASSERT_EQ(cache.col_of(p.gate), placement.col_of(p.gate));
    if (p.other >= 0) {
      ASSERT_EQ(cache.row_of(p.other), placement.row_of(p.other));
      ASSERT_EQ(cache.col_of(p.other), placement.col_of(p.other));
    }
  }
  EXPECT_EQ(cache.total(), before_total);
  EXPECT_EQ(cache.resum(), before_resum);
}

TEST(PlaceIncremental, RevertDeltaIsTheExactNegation) {
  const netlist::Netlist nl = make_netlist();
  place::Placement placement = place::Placement::random(nl, kRows, kCols, 23);
  place::HpwlCache cache(nl, placement);

  exec::SplitMix64 rng(17);
  for (int move = 0; move < 1000; ++move) {
    Proposal p;
    if (!draw_proposal(rng, placement, p)) continue;
    const std::int32_t old_r = p.from / kCols;
    const std::int32_t old_c = p.from % kCols;
    const double forward = cache.apply_swap(p.gate, p.to / kCols, p.to % kCols, p.other);
    // Undo: the destination of the revert is gate's old site, whose
    // occupant now is exactly the original swap partner.
    const double backward = cache.apply_swap(p.gate, old_r, old_c, p.other);
    // Per-net terms negate exactly and accumulate in the same order,
    // so the revert delta is the bitwise negation, not just close.
    ASSERT_EQ(backward, -forward);
  }
  EXPECT_EQ(cache.resum(), place::total_hpwl(nl, placement));
}

TEST(PlaceIncremental, WeightedCacheMatchesWeightedGroundTruth) {
  const netlist::Netlist nl = make_netlist();
  place::Placement placement = place::Placement::random(nl, kRows, kCols, 31);

  std::vector<double> weights(static_cast<std::size_t>(nl.net_count()));
  exec::SplitMix64 wrng(41);
  for (double& w : weights) {
    w = 0.5 + 2.5 * exec::uniform_unit(wrng);
  }
  place::HpwlCache cache(nl, placement, 2.0, &weights);

  double full = place::total_weighted_hpwl(nl, placement, weights);
  EXPECT_EQ(cache.resum(), full);

  exec::SplitMix64 rng(57);
  for (int move = 0; move < 2000; ++move) {
    Proposal p;
    if (!draw_proposal(rng, placement, p)) continue;
    const double delta =
        cache.apply_swap(p.gate, p.to / kCols, p.to % kCols, p.other);
    placement.swap_sites(p.from, p.to);
    const double next = place::total_weighted_hpwl(nl, placement, weights);
    EXPECT_NEAR(delta, next - full, 1e-6 * (1.0 + std::abs(next)));
    EXPECT_EQ(cache.resum(), next);
    full = next;
  }
}

TEST(PlaceIncremental, MovesToEmptySitesAreTracked) {
  const netlist::Netlist nl = make_netlist();
  place::Placement placement = place::Placement::random(nl, kRows, kCols, 13);
  place::HpwlCache cache(nl, placement);

  exec::SplitMix64 rng(71);
  int empty_moves = 0;
  for (int move = 0; move < 2000 && empty_moves < 200; ++move) {
    Proposal p;
    if (!draw_proposal(rng, placement, p)) continue;
    if (p.other >= 0) continue;  // only exercise the empty-site path
    cache.apply_swap(p.gate, p.to / kCols, p.to % kCols, -1);
    placement.swap_sites(p.from, p.to);
    ASSERT_EQ(cache.resum(), place::total_hpwl(nl, placement));
    ++empty_moves;
  }
  EXPECT_GT(empty_moves, 50);
}

// ---- Corner paths ---------------------------------------------------------

constexpr std::int32_t kCornerRows = 7;
constexpr std::int32_t kCornerCols = 8;

/// Nets of 0, 1, 2, 8, 9 and 40 pins, built by hand: generated netlists
/// almost never pass 8 pins or list a gate twice, so they leave large
/// boxes and two-pin holders to chance.  Gates listed twice sit on the
/// 8-pin net, the 9-pin net, and a 2-pin net whose only gate is that
/// one (its other-pin box is empty); on the first two, such a gate
/// often holds a side, and its box must skip both of its pins.
netlist::Netlist corner_netlist() {
  using netlist::GateType;
  netlist::Netlist nl;
  (void)nl.add_primary_input();  // no sinks: 0 pins
  const std::int32_t lone = nl.add_primary_input();
  const std::int32_t twice = nl.add_primary_input();
  const std::int32_t hub = nl.add_primary_input();
  const std::int32_t n8 = nl.output_net_of(nl.add_gate(GateType::kInv, {lone}));
  const std::int32_t n9 = nl.output_net_of(nl.add_gate(GateType::kInv, {hub}));
  (void)nl.add_gate(GateType::kNand2, {twice, twice});
  std::int32_t chain = nl.output_net_of(nl.add_gate(GateType::kNand2, {n8, n8}));
  (void)nl.add_gate(GateType::kNand2, {n9, n9});
  // 39 more hub sinks: n8 reaches 1 + 7 pins, n9 1 + 8, and the rest
  // chain through fresh 2-pin nets.
  for (int k = 0; k < 39; ++k) {
    const std::int32_t partner = k < 5 ? n8 : k < 11 ? n9 : chain;
    const std::int32_t g = nl.add_gate(GateType::kNand2, {hub, partner});
    if (partner == chain) chain = nl.output_net_of(g);
  }
  return nl;
}

int pin_count(const netlist::Net& net) {
  return (net.driver_gate >= 0 ? 1 : 0) + static_cast<int>(net.sink_gates.size());
}

/// Every pair of distinct gates that share a net.
std::vector<std::pair<std::int32_t, std::int32_t>> net_sharing_pairs(const netlist::Netlist& nl) {
  std::vector<std::pair<std::int32_t, std::int32_t>> pairs;
  for (const netlist::Net& net : nl.nets()) {
    std::vector<std::int32_t> gates = net.sink_gates;
    if (net.driver_gate >= 0) gates.push_back(net.driver_gate);
    for (std::size_t a = 0; a < gates.size(); ++a) {
      for (std::size_t b = a + 1; b < gates.size(); ++b) {
        if (gates[a] != gates[b]) pairs.emplace_back(gates[a], gates[b]);
      }
    }
  }
  return pairs;
}

/// Random proposals, a third of them swaps between gates that share a
/// net; each peek delta is checked against a recompute of the moved
/// placement, then the proposal is discarded, committed, or committed
/// and reverted.  resum() must equal the recompute bit for bit
/// throughout.
void exercise_corner_paths(const std::vector<double>* weights) {
  const netlist::Netlist nl = corner_netlist();
  const auto truth = [&](const place::Placement& p) {
    return weights != nullptr ? place::total_weighted_hpwl(nl, p, *weights)
                              : place::total_hpwl(nl, p);
  };
  const auto pairs = net_sharing_pairs(nl);
  place::Placement placement = place::Placement::random(nl, kCornerRows, kCornerCols, 3);
  place::HpwlCache cache(nl, placement, 2.0, weights);
  ASSERT_EQ(cache.resum(), truth(placement));

  exec::SplitMix64 rng(weights != nullptr ? 202 : 101);
  int outcomes[3] = {0, 0, 0};
  for (int move = 0; move < 6000; ++move) {
    Proposal p;
    if (move % 3 == 0) {
      const auto pick = exec::bounded_i32(rng, static_cast<std::int32_t>(pairs.size()));
      const auto [a, b] = pairs[static_cast<std::size_t>(pick)];
      p.gate = a;
      p.other = b;
      p.from = placement.site_of(a);
      p.to = placement.site_of(b);
    } else if (!draw_proposal(rng, placement, p)) {
      continue;
    }
    const double before = cache.resum();
    place::Placement moved = placement;
    moved.swap_sites(p.from, p.to);
    const double after = truth(moved);
    const double delta = cache.peek_swap(p.gate, p.to / kCornerCols, p.to % kCornerCols, p.other);
    ASSERT_NEAR(delta, after - before, 1e-9 * (1.0 + std::abs(after))) << "move " << move;
    if (weights == nullptr) {
      ASSERT_EQ(delta, after - before) << "move " << move;
    }

    const int outcome = exec::bounded_i32(rng, 3);
    ++outcomes[outcome];
    if (outcome == 0) {
      cache.discard();
      ASSERT_EQ(cache.resum(), before) << "move " << move;
      ASSERT_EQ(cache.row_of(p.gate), placement.row_of(p.gate));
      ASSERT_EQ(cache.col_of(p.gate), placement.col_of(p.gate));
      if (p.other >= 0) {
        ASSERT_EQ(cache.row_of(p.other), placement.row_of(p.other));
        ASSERT_EQ(cache.col_of(p.other), placement.col_of(p.other));
      }
      continue;
    }
    cache.commit();
    ASSERT_EQ(cache.resum(), after) << "move " << move;
    if (outcome == 1) {
      placement = std::move(moved);
      continue;
    }
    const double backward =
        cache.apply_swap(p.gate, p.from / kCornerCols, p.from % kCornerCols, p.other);
    ASSERT_EQ(backward, -delta) << "move " << move;
    ASSERT_EQ(cache.resum(), before) << "move " << move;
  }
  for (const int n : outcomes) EXPECT_GT(n, 1000);
  // Per net, too: each committed value is the net's span recomputed.
  for (std::int32_t n = 0; n < nl.net_count(); ++n) {
    const netlist::Net& net = nl.nets()[static_cast<std::size_t>(n)];
    std::vector<std::int32_t> gates = net.sink_gates;
    if (net.driver_gate >= 0) gates.push_back(net.driver_gate);
    double hpwl = 0.0;
    if (!gates.empty()) {
      std::int32_t min_c = placement.col_of(gates[0]), max_c = min_c;
      std::int32_t min_r = placement.row_of(gates[0]), max_r = min_r;
      for (const std::int32_t g : gates) {
        min_c = std::min(min_c, placement.col_of(g));
        max_c = std::max(max_c, placement.col_of(g));
        min_r = std::min(min_r, placement.row_of(g));
        max_r = std::max(max_r, placement.row_of(g));
      }
      hpwl = static_cast<double>(max_c - min_c) + 2.0 * static_cast<double>(max_r - min_r);
    }
    EXPECT_EQ(cache.net_hpwl(n), hpwl) << "net " << n;
  }
}

TEST(PlaceIncremental, CornerNetlistCoversEveryPinCountPath) {
  const netlist::Netlist nl = corner_netlist();
  std::vector<int> nets_with(41, 0);
  for (const netlist::Net& net : nl.nets()) {
    ++nets_with.at(static_cast<std::size_t>(pin_count(net)));
  }
  for (const int pins : {0, 1, 2, 8, 9, 40}) {
    EXPECT_GE(nets_with[static_cast<std::size_t>(pins)], 1) << pins << " pins";
  }
  EXPECT_LE(nl.gate_count(), kCornerRows * kCornerCols - 8);  // leaves empty sites
}

TEST(PlaceIncremental, CornerPathsMatchRecomputeUnweighted) { exercise_corner_paths(nullptr); }

TEST(PlaceIncremental, CornerPathsMatchRecomputeWeighted) {
  const netlist::Netlist nl = corner_netlist();
  std::vector<double> weights(static_cast<std::size_t>(nl.net_count()));
  exec::SplitMix64 wrng(43);
  for (double& w : weights) w = 0.5 + 2.5 * exec::uniform_unit(wrng);
  exercise_corner_paths(&weights);
}

TEST(PlaceIncremental, CheckModeCrossValidatesWithoutChangingTheResult) {
  // NANOCOST_PLACE_CHECK=64 recomputes the HPWL every 64 moves and
  // throws if the incremental cache drifted from it; the anneal itself
  // must come out the same.
  const netlist::Netlist nl = make_netlist();
  place::AnnealParams params;
  params.seed = 3;
  ASSERT_EQ(::unsetenv("NANOCOST_PLACE_CHECK"), 0);
  const place::PlaceResult plain = place::anneal_place(nl, kRows, kCols, params);
  ASSERT_EQ(::setenv("NANOCOST_PLACE_CHECK", "64", 1), 0);
  const place::PlaceResult checked = place::anneal_place(nl, kRows, kCols, params);
  ASSERT_EQ(::unsetenv("NANOCOST_PLACE_CHECK"), 0);

  EXPECT_EQ(checked.final_hpwl, plain.final_hpwl);
  EXPECT_EQ(checked.moves_tried, plain.moves_tried);
  EXPECT_EQ(checked.moves_accepted, plain.moves_accepted);
  ASSERT_EQ(checked.placement.gate_count(), plain.placement.gate_count());
  for (std::int32_t g = 0; g < plain.placement.gate_count(); ++g) {
    EXPECT_EQ(checked.placement.site_of(g), plain.placement.site_of(g)) << "gate " << g;
  }
}

TEST(PlaceIncremental, MalformedCheckIntervalPrintsOneDiagnosticAndChecksNothing) {
  // A value that is not a non-negative integer means no cross-check,
  // with one diagnostic per process (a fresh one per value); 0 is off.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const netlist::Netlist nl = make_netlist();
  place::AnnealParams params;
  params.seed = 3;
  const auto two_anneals_match = [&](const std::string& value) {
    ASSERT_EQ(::unsetenv("NANOCOST_PLACE_CHECK"), 0);
    const place::PlaceResult plain = place::anneal_place(nl, kRows, kCols, params);
    ASSERT_EQ(::setenv("NANOCOST_PLACE_CHECK", value.c_str(), 1), 0);
    for (int i = 0; i < 2; ++i) {
      const place::PlaceResult again = place::anneal_place(nl, kRows, kCols, params);
      if (again.final_hpwl != plain.final_hpwl) std::exit(1);
    }
    std::fprintf(stderr, "end\n");
    std::exit(0);
  };
  for (const std::string value : {"abc", "-5", "8192x"}) {
    EXPECT_EXIT(two_anneals_match(value), ::testing::ExitedWithCode(0),
                "^nanocost: NANOCOST_PLACE_CHECK='" + value +
                    "' is not a move interval \\(0 = off\\); cross-check off\nend\n$");
  }
  EXPECT_EXIT(two_anneals_match("0"), ::testing::ExitedWithCode(0), "^end\n$");
}

}  // namespace
