#include <gtest/gtest.h>

#include <stdexcept>

#include "nanocost/roadmap/roadmap.hpp"

namespace nanocost::roadmap {
namespace {

TEST(Roadmap, Itrs1999HasSixNodes) {
  const Roadmap rm = Roadmap::itrs1999();
  EXPECT_EQ(rm.nodes().size(), 6u);
  EXPECT_EQ(rm.front().year, 1999);
  EXPECT_EQ(rm.back().year, 2014);
  EXPECT_DOUBLE_EQ(rm.front().half_pitch.value(), 180.0);
  EXPECT_DOUBLE_EQ(rm.back().half_pitch.value(), 35.0);
}

TEST(Roadmap, TransistorCountsFollowMooresLaw) {
  const Roadmap rm = Roadmap::itrs1999();
  double prev = 0.0;
  for (const TechnologyNode& n : rm.nodes()) {
    EXPECT_GT(n.mpu_transistors, prev * 2.0)
        << "node " << n.name << " less than doubles the previous node";
    prev = n.mpu_transistors;
  }
}

TEST(Roadmap, FeatureSizeShrinksMonotonically) {
  const Roadmap rm = Roadmap::itrs1999();
  double prev = 1e9;
  for (const TechnologyNode& n : rm.nodes()) {
    EXPECT_LT(n.half_pitch.value(), prev);
    prev = n.half_pitch.value();
  }
}

TEST(Roadmap, Anchor1999MatchesThePaper) {
  // The paper's Fig. 3 anchor: 1999 cost/performance MPU at ~$34 die,
  // 8 $/cm^2, yield 0.8 -> 3.4 cm^2 at introduction.
  const Roadmap rm = Roadmap::itrs1999();
  const TechnologyNode& n = rm.at_year(1999);
  EXPECT_DOUBLE_EQ(n.mpu_chip_area.value(), 3.40);
  EXPECT_DOUBLE_EQ(n.cost_per_cm2.value(), 8.0);
  EXPECT_DOUBLE_EQ(n.mpu_transistors, 21e6);
}

TEST(Roadmap, ImpliedSdDeclinesTowardCustomDensity) {
  // The Fig. 2 shape: the roadmap expects the industry to design ever
  // *denser* (s_d falling toward ~100) as feature size shrinks.
  const Roadmap rm = Roadmap::itrs1999();
  double prev = 1e9;
  for (const TechnologyNode& n : rm.nodes()) {
    const double sd = n.implied_decompression_index();
    EXPECT_LT(sd, prev) << "node " << n.name;
    prev = sd;
  }
  EXPECT_NEAR(rm.front().implied_decompression_index(), 500.0, 5.0);
  EXPECT_LT(rm.back().implied_decompression_index(), 150.0);
  EXPECT_GT(rm.back().implied_decompression_index(), 100.0);
}

TEST(Roadmap, AtYearLookup) {
  const Roadmap rm = Roadmap::itrs1999();
  EXPECT_EQ(rm.at_year(2005).name, "100nm");
  EXPECT_THROW(rm.at_year(2000), std::out_of_range);
}

TEST(Roadmap, NearestByHalfPitch) {
  const Roadmap rm = Roadmap::itrs1999();
  EXPECT_EQ(rm.nearest(units::Nanometers{125.0}).name, "130nm");
  EXPECT_EQ(rm.nearest(units::Nanometers{40.0}).name, "35nm");
  EXPECT_EQ(rm.nearest(units::Nanometers{500.0}).name, "180nm");
}

TEST(Roadmap, InterpolationIsGeometricAndClamped) {
  const Roadmap rm = Roadmap::itrs1999();
  const TechnologyNode mid = rm.interpolate(2000.5);
  EXPECT_LT(mid.half_pitch.value(), 180.0);
  EXPECT_GT(mid.half_pitch.value(), 130.0);
  EXPECT_GT(mid.mpu_transistors, 21e6);
  EXPECT_LT(mid.mpu_transistors, 76e6);
  // Geometric midpoint of the half pitch.
  EXPECT_NEAR(mid.half_pitch.value(), std::sqrt(180.0 * 130.0), 0.5);
  // Clamping outside the range.
  EXPECT_EQ(rm.interpolate(1990.0).year, 1999);
  EXPECT_EQ(rm.interpolate(2030.0).year, 2014);
}

TEST(Roadmap, CostEscalationCompoundsPerNode) {
  const Roadmap flat = Roadmap::itrs1999();
  const Roadmap escalated = Roadmap::itrs1999_with_cost_escalation(0.25);
  EXPECT_DOUBLE_EQ(escalated.front().cost_per_cm2.value(),
                   flat.front().cost_per_cm2.value());
  EXPECT_NEAR(escalated.back().cost_per_cm2.value(), 8.0 * std::pow(1.25, 5), 1e-9);
  EXPECT_THROW(Roadmap::itrs1999_with_cost_escalation(-0.1), std::invalid_argument);
}

TEST(Roadmap, ConstructionValidatesOrdering) {
  const Roadmap rm = Roadmap::itrs1999();
  std::vector<TechnologyNode> nodes = {rm.at_year(2002), rm.at_year(1999)};
  EXPECT_THROW(Roadmap{nodes}, std::invalid_argument);
  EXPECT_THROW(Roadmap{std::vector<TechnologyNode>{}}, std::invalid_argument);
}

TEST(Roadmap, WaferDiameterGrowsOverTime) {
  const Roadmap rm = Roadmap::itrs1999();
  EXPECT_DOUBLE_EQ(rm.at_year(1999).wafer_diameter.value(), 200.0);
  EXPECT_DOUBLE_EQ(rm.at_year(2002).wafer_diameter.value(), 300.0);
  EXPECT_DOUBLE_EQ(rm.at_year(2014).wafer_diameter.value(), 450.0);
}

TEST(Roadmap, MaskCountGrowsWithComplexity) {
  const Roadmap rm = Roadmap::itrs1999();
  int prev = 0;
  for (const TechnologyNode& n : rm.nodes()) {
    EXPECT_GT(n.mask_count, prev);
    prev = n.mask_count;
  }
}

}  // namespace
}  // namespace nanocost::roadmap
