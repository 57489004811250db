#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iomanip>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "nanocost/cache/bytes.hpp"
#include "nanocost/exec/rng.hpp"
#include "nanocost/exec/thread_pool.hpp"
#include "nanocost/layout/counting.hpp"
#include "nanocost/netlist/estimate.hpp"
#include "nanocost/netlist/generator.hpp"
#include "nanocost/place/placer.hpp"
#include "nanocost/place/synthesis.hpp"

namespace nanocost::place {
namespace {

netlist::Netlist small_netlist(std::int32_t gates = 200, double locality = 0.7,
                               std::uint64_t seed = 1) {
  netlist::GeneratorParams params;
  params.gate_count = gates;
  params.primary_inputs = 8;
  params.locality = locality;
  params.seed = seed;
  return netlist::generate_random_logic(params);
}

TEST(Placement, GridBookkeeping) {
  const netlist::Netlist nl = small_netlist(10);
  Placement p = Placement::ordered(nl, 4, 5);
  EXPECT_EQ(p.site_count(), 20);
  EXPECT_EQ(p.gate_count(), 10);
  EXPECT_EQ(p.site_of(7), 7);
  EXPECT_EQ(p.gate_at(7), 7);
  EXPECT_EQ(p.gate_at(15), -1);
  EXPECT_EQ(p.row_of(7), 1);
  EXPECT_EQ(p.col_of(7), 2);

  p.swap_sites(7, 15);
  EXPECT_EQ(p.site_of(7), 15);
  EXPECT_EQ(p.gate_at(7), -1);
  EXPECT_EQ(p.gate_at(15), 7);
}

TEST(Placement, CapacityEnforced) {
  const netlist::Netlist nl = small_netlist(30);
  EXPECT_THROW(Placement::ordered(nl, 4, 5), std::invalid_argument);
  EXPECT_THROW(Placement(0, 5, 1), std::invalid_argument);
}

TEST(Placement, AssignRejectsOccupiedSite) {
  const netlist::Netlist nl = small_netlist(4);
  Placement p = Placement::ordered(nl, 2, 3);
  EXPECT_THROW(p.assign(0, 1), std::invalid_argument);
}

TEST(Hpwl, HandComputedTwoGateNet) {
  // One inverter chain: PI -> g0 -> g1; g0 at (0,0), g1 at (2,1).
  netlist::Netlist nl;
  const auto a = nl.add_primary_input();
  const auto g0 = nl.add_gate(netlist::GateType::kInv, {a});
  nl.add_gate(netlist::GateType::kInv, {nl.output_net_of(g0)});
  Placement p(2, 3, 2);
  p.assign(0, 0);  // row 0, col 0
  p.assign(1, 5);  // row 1, col 2
  // The only multi-pin net is g0->g1: |2-0| + row_weight * |1-0|.
  EXPECT_NEAR(total_hpwl(nl, p, 2.0), 2.0 + 2.0, 1e-12);
  EXPECT_NEAR(total_hpwl(nl, p, 3.0), 2.0 + 3.0, 1e-12);
}

TEST(Anneal, ImprovesOnOrderedAndRandomStarts) {
  const netlist::Netlist nl = small_netlist(300, 0.3, 5);
  const std::int32_t rows = 10, cols = 32;
  AnnealParams params;
  params.seed = 9;
  const PlaceResult result = anneal_place(nl, rows, cols, params);
  EXPECT_LT(result.final_hpwl, result.initial_hpwl);
  EXPECT_GT(result.moves_accepted, 0);
  EXPECT_GE(result.moves_tried, result.moves_accepted);
  // And beats a random placement handily.
  const double random_hpwl = total_hpwl(nl, Placement::random(nl, rows, cols, 3));
  EXPECT_LT(result.final_hpwl, random_hpwl * 0.6);
}

TEST(Anneal, FinalHpwlMatchesPlacementRecount) {
  const netlist::Netlist nl = small_netlist(150);
  AnnealParams params;
  params.row_weight = 2.5;
  const PlaceResult result = anneal_place(nl, 8, 24, params);
  EXPECT_NEAR(result.final_hpwl, total_hpwl(nl, result.placement, 2.5), 1e-6);
}

TEST(Anneal, LocalNetlistsPlaceShorter) {
  // Same size, different locality: the local netlist ends up with less
  // wire, which is the physical basis of Rent's rule.
  AnnealParams params;
  const double local =
      anneal_place(small_netlist(300, 0.8, 7), 10, 32, params).final_hpwl;
  const double global =
      anneal_place(small_netlist(300, 0.05, 7), 10, 32, params).final_hpwl;
  EXPECT_LT(local, global * 0.8);
}

TEST(Anneal, Validation) {
  const netlist::Netlist nl = small_netlist(10);
  AnnealParams bad;
  bad.cooling = 1.0;
  EXPECT_THROW(anneal_place(nl, 4, 4, bad), std::invalid_argument);
  // A stop fraction of 0 or below never stops (the temperature bottoms
  // out at the smallest subnormal), and NaN would skip the anneal.
  for (const double fraction : {0.0, -1.0, std::nan("")}) {
    AnnealParams never;
    never.stop_temperature_fraction = fraction;
    EXPECT_THROW(anneal_place(nl, 4, 4, never), std::invalid_argument) << fraction;
  }
  // Only a finite start temperature anneals: +inf makes the stop
  // temperature infinite too (0 moves), and NaN would mean auto.
  const double inf = std::numeric_limits<double>::infinity();
  for (const double temperature : {inf, -inf, std::nan("")}) {
    AnnealParams hot;
    hot.initial_temperature = temperature;
    EXPECT_THROW(anneal_place(nl, 4, 4, hot), std::invalid_argument) << temperature;
  }
  AnnealParams hot;
  hot.initial_temperature = inf;
  EXPECT_THROW(anneal_refine_weighted(nl, Placement::ordered(nl, 4, 4), {}, hot),
               std::invalid_argument);
}

TEST(Estimate, PrePlacementEstimateIsInTheRightBallpark) {
  // The pre-placement estimator should land within ~2.5x of the
  // annealed truth for ordinary locality -- close enough to plan with,
  // wrong enough to cause iterations (the paper's point).
  const netlist::Netlist nl = small_netlist(400, 0.5, 21);
  const std::int32_t rows = 12, cols = 36;
  const PlaceResult placed = anneal_place(nl, rows, cols, AnnealParams{});
  const double estimated =
      netlist::estimate_total_wirelength(nl, static_cast<double>(rows) * cols);
  EXPECT_GT(estimated, placed.final_hpwl / 2.5);
  EXPECT_LT(estimated, placed.final_hpwl * 2.5);
}

TEST(Synthesis, EmitsGeometryMatchingTheNetlist) {
  const netlist::Netlist nl = small_netlist(120, 0.6, 2);
  const PlaceResult placed = anneal_place(nl, 6, 24, AnnealParams{});
  const SynthesisResult synth = synthesize(nl, placed.placement);

  // Every netlist transistor exists in silicon.
  EXPECT_EQ(synth.design.transistor_count(), nl.transistor_count());
  EXPECT_GT(synth.design.flat_rect_count(), 0);
  EXPECT_NEAR(synth.placed_hpwl_sites, placed.final_hpwl, 1e-9);
  EXPECT_GE(synth.channel_height, 8);

  // The measured density lands in the ASIC habitat.
  const double sd = synth.design.density().decompression_index;
  EXPECT_GT(sd, 80.0);
  EXPECT_LT(sd, 1000.0);
}

TEST(Synthesis, WorseWiringMeansSparserSilicon) {
  // The same netlist synthesized from a random placement needs bigger
  // channels than the annealed placement -> larger s_d.  This is the
  // chain the paper describes: design (placement) quality is a density
  // variable, independent of the process.
  const netlist::Netlist nl = small_netlist(300, 0.5, 4);
  const std::int32_t rows = 10, cols = 32;
  const PlaceResult good = anneal_place(nl, rows, cols, AnnealParams{});
  const Placement bad = Placement::random(nl, rows, cols, 17);

  const SynthesisResult synth_good = synthesize(nl, good.placement);
  const SynthesisResult synth_bad = synthesize(nl, bad);
  EXPECT_GT(synth_bad.channel_height, synth_good.channel_height);
  EXPECT_GT(synth_bad.design.density().decompression_index,
            synth_good.design.density().decompression_index);
}

// ---- Golden placer outputs ------------------------------------------------
//
// The placer's results pinned per entry point: final HPWL, accepted
// moves and a digest of every gate's site.  Any change to an accept
// decision, an RNG draw or a delta's rounding moves at least one of
// them, so a refactor of the HPWL cache or the annealing loop that
// claims "same bytes" has to pass these unmodified.  The netlists are
// drawn with exec::SplitMix64 alone (generate_random_logic draws
// through std:: distributions, whose streams differ between standard
// libraries), so the goldens hold on every toolchain.

constexpr std::int32_t kGoldenGates = 240;
constexpr std::int32_t kGoldenRows = 16;
constexpr std::int32_t kGoldenCols = 18;  // 288 sites: moves to empty sites happen

/// Each gate draws its type, then each input from the 16 newest nets;
/// a net that already has 7 sinks hands the pick to the newest net,
/// which never has more than one.  With `hubs`, a quarter of the picks
/// go to one of six shared nets instead (the four primary inputs and
/// the outputs of gates 40 and 120, each taking at most 39 drawn
/// sinks), and gate 10 lists the first primary input twice.
netlist::Netlist seeded_netlist(std::uint64_t seed, bool hubs) {
  netlist::Netlist nl;
  std::vector<std::int32_t> hub_nets;
  for (int i = 0; i < 4; ++i) hub_nets.push_back(nl.add_primary_input());
  std::vector<std::int32_t> sinks(hub_nets.size(), 0);
  exec::SplitMix64 rng(seed);
  for (std::int32_t g = 0; g < kGoldenGates; ++g) {
    auto type = static_cast<netlist::GateType>(exec::bounded_i32(rng, netlist::kGateTypeCount));
    std::vector<std::int32_t> inputs;
    if (hubs && g == 10) {
      type = netlist::GateType::kNand2;
      inputs = {hub_nets[0], hub_nets[0]};
    }
    while (static_cast<int>(inputs.size()) < netlist::fanin_of(type)) {
      const std::int32_t available = nl.net_count();
      std::int32_t net = -1;
      if (hubs && exec::bounded_i32(rng, 4) == 0) {
        net = hub_nets[static_cast<std::size_t>(
            exec::bounded_i32(rng, static_cast<std::int32_t>(hub_nets.size())))];
        if (sinks[static_cast<std::size_t>(net)] >= 39) net = -1;
      }
      if (net < 0) {
        net = available - 1 - exec::bounded_i32(rng, std::min(available, 16));
        if (sinks[static_cast<std::size_t>(net)] >= 7) net = available - 1;
      }
      inputs.push_back(net);
      ++sinks[static_cast<std::size_t>(net)];
    }
    nl.add_gate(type, inputs);
    sinks.push_back(0);
    if (hubs && (g == 40 || g == 120)) hub_nets.push_back(nl.output_net_of(g));
  }
  return nl;
}

int pin_count(const netlist::Net& net) {
  return (net.driver_gate >= 0 ? 1 : 0) + static_cast<int>(net.sink_gates.size());
}

/// Site per gate as little-endian u32s, hashed with FNV-1a.
std::uint64_t site_digest(const Placement& placement) {
  cache::ByteWriter w;
  for (std::int32_t g = 0; g < placement.gate_count(); ++g) {
    w.u32(static_cast<std::uint32_t>(placement.site_of(g)));
  }
  return cache::fnv1a(w.data().data(), w.data().size());
}

struct Golden {
  double final_hpwl;
  std::int64_t moves_accepted;
  std::uint64_t site_digest;
};

void expect_golden(const PlaceResult& result, const Golden& golden, const std::string& what) {
  std::ostringstream actual;
  actual << "actual {" << std::setprecision(17) << result.final_hpwl << ", "
         << result.moves_accepted << ", 0x" << std::hex << site_digest(result.placement)
         << "ULL}";
  SCOPED_TRACE(what + ": " + actual.str());
  EXPECT_EQ(result.final_hpwl, golden.final_hpwl);
  EXPECT_EQ(result.moves_accepted, golden.moves_accepted);
  EXPECT_EQ(site_digest(result.placement), golden.site_digest);
}

std::vector<double> seeded_weights(const netlist::Netlist& nl, std::uint64_t seed) {
  std::vector<double> weights(static_cast<std::size_t>(nl.net_count()));
  exec::SplitMix64 rng(seed);
  for (double& w : weights) w = 0.5 + 2.5 * exec::uniform_unit(rng);
  return weights;
}

struct GoldenCase {
  const char* name;
  bool hubs;
  Golden anneal;
  Golden multistart;
  Golden weighted;
  Golden refined;
};

// A failing golden means the placer's output changed: find the cause,
// do not re-record.
const GoldenCase kGoldenCases[] = {
    {"small nets", false,
     {850, 10123, 0x15f798a7b95819c7ULL},
     {847, 25905, 0x4369d14b69467e76ULL},
     {1442.8315920105558, 9650, 0x29a7119d649a9be5ULL},
     {1842.8083306011379, 2143, 0xcf9f4ecd041e8496ULL}},
    {"hub nets", true,
     {833, 11356, 0x573eff207e84163dULL},
     {787, 28366, 0x5ec18a137f546bf6ULL},
     {1567.8794312691375, 11904, 0xa21571423a9ae4b7ULL},
     {1728.9494602917312, 3110, 0x5f9a2d43854c0a0aULL}},
};

TEST(PlacerGolden, NetlistsCoverTheirPinCountRanges) {
  const netlist::Netlist small = seeded_netlist(21, false);
  for (const netlist::Net& net : small.nets()) EXPECT_LE(pin_count(net), 8);

  const netlist::Netlist hub = seeded_netlist(22, true);
  int large = 0;
  for (const netlist::Net& net : hub.nets()) {
    EXPECT_LE(pin_count(net), 40);
    if (pin_count(net) > 8) ++large;
  }
  EXPECT_GE(large, 4);
  const std::vector<std::int32_t>& twice = hub.gates()[10].input_nets;
  EXPECT_EQ(twice[0], twice[1]);
  EXPECT_GT(pin_count(hub.nets()[static_cast<std::size_t>(twice[0])]), 8);
}

TEST(PlacerGolden, AnnealPlace) {
  for (const GoldenCase& c : kGoldenCases) {
    const netlist::Netlist nl = seeded_netlist(c.hubs ? 22 : 21, c.hubs);
    AnnealParams params;
    params.seed = 5;
    expect_golden(anneal_place(nl, kGoldenRows, kGoldenCols, params), c.anneal, c.name);
  }
}

TEST(PlacerGolden, MultistartAtEveryThreadCount) {
  std::vector<int> thread_counts{1, 2};
  const int hw = exec::ThreadPool::default_thread_count();
  if (hw != 1 && hw != 2) thread_counts.push_back(hw);
  for (const GoldenCase& c : kGoldenCases) {
    const netlist::Netlist nl = seeded_netlist(c.hubs ? 22 : 21, c.hubs);
    AnnealParams params;
    params.seed = 6;
    for (const int threads : thread_counts) {
      exec::ThreadPool pool(threads);
      const MultistartResult r =
          anneal_place_multistart(nl, kGoldenRows, kGoldenCols, 4, params, &pool);
      expect_golden(r.best, c.multistart,
                    std::string(c.name) + ", " + std::to_string(threads) + " threads");
    }
  }
}

TEST(PlacerGolden, AnnealPlaceWeighted) {
  for (const GoldenCase& c : kGoldenCases) {
    const netlist::Netlist nl = seeded_netlist(c.hubs ? 22 : 21, c.hubs);
    AnnealParams params;
    params.seed = 7;
    expect_golden(anneal_place_weighted(nl, kGoldenRows, kGoldenCols, seeded_weights(nl, 31),
                                        params),
                  c.weighted, c.name);
  }
}

TEST(PlacerGolden, AnnealRefineWeighted) {
  for (const GoldenCase& c : kGoldenCases) {
    const netlist::Netlist nl = seeded_netlist(c.hubs ? 22 : 21, c.hubs);
    AnnealParams params;
    params.seed = 8;
    const Placement start = Placement::random(nl, kGoldenRows, kGoldenCols, 44);
    expect_golden(anneal_refine_weighted(nl, start, seeded_weights(nl, 32), params), c.refined,
                  c.name);
  }
}

}  // namespace
}  // namespace nanocost::place
