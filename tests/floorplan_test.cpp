#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>

#include "nanocost/floorplan/slicing.hpp"
#include "nanocost/yield/redundancy.hpp"
#include "nanocost/yield/models.hpp"

namespace nanocost {
namespace {

using floorplan::Block;
using floorplan::FloorplanParams;
using floorplan::FloorplanResult;

Block block(const char* name, double area, double min_aspect = 0.5,
            double max_aspect = 2.0) {
  Block b;
  b.name = name;
  b.area = area;
  b.min_aspect = min_aspect;
  b.max_aspect = max_aspect;
  return b;
}

bool overlaps(const floorplan::PlacedBlock& a, const floorplan::PlacedBlock& b) {
  return a.x < b.x + b.width - 1e-9 && b.x < a.x + a.width - 1e-9 &&
         a.y < b.y + b.height - 1e-9 && b.y < a.y + a.height - 1e-9;
}

TEST(Floorplan, SingleBlockIsItsOwnFloorplan) {
  const FloorplanResult r = floorplan::floorplan({block("a", 4.0, 1.0, 1.0)});
  EXPECT_NEAR(r.area(), 4.0, 1e-9);
  EXPECT_NEAR(r.dead_space(), 0.0, 1e-9);
  ASSERT_EQ(r.blocks.size(), 1u);
  EXPECT_EQ(r.blocks[0].name, "a");
}

TEST(Floorplan, TwoSquaresPackPerfectlyWithFlexibleShapes) {
  // Two 1x1 squares that may stretch 2:1 tile a 2x1 box exactly.
  const FloorplanResult r = floorplan::floorplan(
      {block("a", 1.0, 0.5, 2.0), block("b", 1.0, 0.5, 2.0)});
  EXPECT_NEAR(r.area(), 2.0, 0.05);
  EXPECT_LT(r.dead_space(), 0.03);
}

TEST(Floorplan, BlocksNeverOverlapAndStayInside) {
  std::vector<Block> blocks;
  for (int i = 0; i < 8; ++i) {
    // Appended: GCC 12 flags `"b" + std::string` with a false -Wrestrict.
    blocks.push_back(block(std::string("b").append(std::to_string(i)).c_str(), 1.0 + i * 0.7));
  }
  const FloorplanResult r = floorplan::floorplan(blocks);
  ASSERT_EQ(r.blocks.size(), blocks.size());
  for (std::size_t i = 0; i < r.blocks.size(); ++i) {
    const auto& a = r.blocks[i];
    EXPECT_GE(a.x, -1e-9);
    EXPECT_GE(a.y, -1e-9);
    EXPECT_LE(a.x + a.width, r.width + 1e-9);
    EXPECT_LE(a.y + a.height, r.height + 1e-9);
    for (std::size_t j = i + 1; j < r.blocks.size(); ++j) {
      EXPECT_FALSE(overlaps(a, r.blocks[j])) << a.name << " vs " << r.blocks[j].name;
    }
  }
}

TEST(Floorplan, AreaIsConserved) {
  std::vector<Block> blocks = {block("mem", 8.0), block("cpu", 5.0), block("io", 2.0)};
  const FloorplanResult r = floorplan::floorplan(blocks);
  EXPECT_NEAR(r.block_area(), 15.0, 1e-6);
  EXPECT_GE(r.area(), 15.0 - 1e-9);
}

TEST(Floorplan, AnnealingBeatsNaiveStacking) {
  // Ten varied blocks: the annealed result should waste little silicon.
  std::vector<Block> blocks;
  for (int i = 0; i < 10; ++i) {
    blocks.push_back(block(std::string("b").append(std::to_string(i)).c_str(),
                           0.5 + (i % 4) * 1.3));
  }
  const FloorplanResult r = floorplan::floorplan(blocks);
  EXPECT_LT(r.dead_space(), 0.15);
}

TEST(Floorplan, TableA1StyleMemoryLogicDie) {
  // PA-RISC-like: a big dense cache next to sparse logic (Table A1 row
  // 34: 2.30 cm^2 memory, 2.38 cm^2 logic on a 4.69 cm^2 die -- i.e.
  // near-zero dead space in the real product).
  const FloorplanResult r = floorplan::floorplan(
      {block("cache", 2.30, 0.4, 2.5), block("logic", 2.38, 0.4, 2.5)});
  EXPECT_LT(r.dead_space(), 0.05);
  EXPECT_NEAR(r.area(), 4.69, 4.69 * 0.06);
}

TEST(Floorplan, DeterministicPerSeed) {
  std::vector<Block> blocks = {block("a", 3.0), block("b", 1.0), block("c", 2.0),
                               block("d", 1.5)};
  FloorplanParams params;
  params.seed = 5;
  const FloorplanResult r1 = floorplan::floorplan(blocks, params);
  const FloorplanResult r2 = floorplan::floorplan(blocks, params);
  EXPECT_DOUBLE_EQ(r1.area(), r2.area());
}

TEST(Floorplan, Validation) {
  EXPECT_THROW(floorplan::floorplan({}), std::invalid_argument);
  EXPECT_THROW(floorplan::floorplan({block("bad", 0.0)}), std::invalid_argument);
  Block inverted = block("bad", 1.0, 2.0, 0.5);
  EXPECT_THROW(floorplan::floorplan({inverted}), std::invalid_argument);
  FloorplanParams bad;
  bad.cooling = 1.5;
  EXPECT_THROW(floorplan::floorplan({block("a", 1.0)}, bad), std::invalid_argument);
  // A stop fraction of 0 or below never stops, and NaN would skip the
  // anneal.
  for (const double fraction : {0.0, -1.0, std::nan("")}) {
    FloorplanParams never;
    never.stop_temperature_fraction = fraction;
    EXPECT_THROW(floorplan::floorplan({block("a", 1.0), block("b", 2.0)}, never),
                 std::invalid_argument)
        << fraction;
  }
  // +inf would skip the anneal (the stop temperature is infinite too),
  // and NaN would mean auto.
  const double inf = std::numeric_limits<double>::infinity();
  for (const double temperature : {inf, -inf, std::nan("")}) {
    FloorplanParams hot;
    hot.initial_temperature = temperature;
    EXPECT_THROW(floorplan::floorplan({block("a", 1.0), block("b", 2.0)}, hot),
                 std::invalid_argument)
        << temperature;
  }
}

// ---------------------------------------------------------------------------
// Memory redundancy (the economics of the dense Table-A1 band).

TEST(Redundancy, ZeroSparesMatchesPoisson) {
  EXPECT_NEAR(yield::repairable_yield_poisson(1.5, 0).value(), std::exp(-1.5), 1e-12);
}

TEST(Redundancy, SparesMonotonicallyImproveYield) {
  double prev = 0.0;
  for (int r = 0; r <= 8; ++r) {
    const double y = yield::repairable_yield_poisson(2.0, r).value();
    EXPECT_GT(y, prev);
    prev = y;
  }
  EXPECT_GT(prev, 0.97);  // 8 spares against 2 mean faults: nearly all repaired
}

TEST(Redundancy, MakesDenseMemoryViable) {
  // A big cache with lambda = 3 faults would yield 5% unrepaired; with
  // 6 spare rows it ships at > 90%.
  const double unrepaired = yield::repairable_yield_poisson(3.0, 0).value();
  const double repaired = yield::repairable_yield_poisson(3.0, 6).value();
  EXPECT_LT(unrepaired, 0.06);
  EXPECT_GT(repaired, 0.90);
}

TEST(Redundancy, NegbinMatchesModelAtZeroSpares) {
  const double y0 = yield::repairable_yield_negbin(1.5, 2.0, 0).value();
  EXPECT_NEAR(y0, yield::NegativeBinomialYield{2.0}.yield(1.5).value(), 1e-12);
  // Clustering piles faults on few dies: repair helps less than Poisson.
  EXPECT_LT(yield::repairable_yield_negbin(2.0, 0.5, 4).value(),
            yield::repairable_yield_poisson(2.0, 4).value());
}

TEST(Redundancy, OptimalSparesBalanceAreaAndYield) {
  // Free spares: more is always better (up to the cap).
  const auto free = yield::optimal_spares_poisson(2.0, 0.0, 16);
  EXPECT_EQ(free.spares, 16);
  // Expensive spares (20% area each): very few are worth it.
  const auto pricey = yield::optimal_spares_poisson(2.0, 0.20, 16);
  EXPECT_LE(pricey.spares, 6);
  EXPECT_LT(pricey.spares, free.spares);
  // Moderate cost: an interior optimum.
  const auto typical = yield::optimal_spares_poisson(3.0, 0.02, 16);
  EXPECT_GT(typical.spares, 0);
  EXPECT_LT(typical.spares, 16);
  EXPECT_GT(typical.yield.value(), 0.8);
}

TEST(Redundancy, Validation) {
  EXPECT_THROW(yield::repairable_yield_poisson(-1.0, 2), std::domain_error);
  EXPECT_THROW(yield::repairable_yield_poisson(1.0, -1), std::invalid_argument);
  EXPECT_THROW(yield::repairable_yield_negbin(1.0, 0.0, 2), std::domain_error);
}

}  // namespace
}  // namespace nanocost
