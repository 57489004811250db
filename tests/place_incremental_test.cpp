// Cross-validation of the placer's incremental HPWL cache
// (hpwl_cache.hpp) against full recomputation: randomized move/swap
// sequences, pending-proposal discard, exact revert negation, and the
// resum() == total_weighted_hpwl bitwise invariant, unweighted and
// weighted; and the placer's NANOCOST_PLACE_CHECK mode.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
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

}  // namespace
