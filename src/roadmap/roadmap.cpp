#include "nanocost/roadmap/roadmap.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "nanocost/layout/density.hpp"

namespace nanocost::roadmap {

double TechnologyNode::implied_decompression_index() const {
  return layout::decompression_index(mpu_chip_area, mpu_transistors, lambda());
}

Roadmap::Roadmap(std::vector<TechnologyNode> nodes) : nodes_(std::move(nodes)) {
  if (nodes_.empty()) {
    throw std::invalid_argument("roadmap needs at least one node");
  }
  if (!std::is_sorted(nodes_.begin(), nodes_.end(),
                      [](const TechnologyNode& a, const TechnologyNode& b) {
                        return a.year < b.year;
                      })) {
    throw std::invalid_argument("roadmap nodes must be ordered by year");
  }
}

namespace {

TechnologyNode make_node(int year, const char* name, double half_pitch_nm,
                         double transistors_millions, double chip_cm2, double wafer_mm,
                         int metals, int masks, double cost_per_cm2) {
  TechnologyNode n;
  n.year = year;
  n.name = name;
  n.half_pitch = units::Nanometers{half_pitch_nm};
  n.mpu_transistors = transistors_millions * 1e6;
  n.mpu_chip_area = units::SquareCentimeters{chip_cm2};
  n.wafer_diameter = units::Millimeters{wafer_mm};
  n.metal_layers = metals;
  n.mask_count = masks;
  n.cost_per_cm2 = units::CostPerArea{cost_per_cm2};
  return n;
}

std::vector<TechnologyNode> itrs1999_nodes() {
  // Reconstruction of the ITRS-1999 cost-performance MPU trajectory
  // (introduction targets): transistors x3.6/x2.6/... per 3-year node,
  // chip size +~9%/node, half pitch x0.7/node, 8 $/cm^2 held constant
  // (the paper's optimistic assumption for Fig. 3).
  return {
      make_node(1999, "180nm", 180.0, 21.0, 3.40, 200.0, 6, 22, 8.0),
      make_node(2002, "130nm", 130.0, 76.0, 3.72, 300.0, 7, 24, 8.0),
      make_node(2005, "100nm", 100.0, 200.0, 4.08, 300.0, 8, 26, 8.0),
      make_node(2008, "70nm", 70.0, 539.0, 4.68, 300.0, 9, 28, 8.0),
      make_node(2011, "50nm", 50.0, 1400.0, 5.36, 300.0, 9, 30, 8.0),
      make_node(2014, "35nm", 35.0, 3620.0, 6.16, 450.0, 10, 32, 8.0),
  };
}

}  // namespace

Roadmap Roadmap::itrs1999() { return Roadmap{itrs1999_nodes()}; }

Roadmap Roadmap::itrs1999_with_cost_escalation(double rate_per_node) {
  if (!(rate_per_node >= 0.0)) {
    throw std::invalid_argument("cost escalation rate must be >= 0");
  }
  std::vector<TechnologyNode> nodes = itrs1999_nodes();
  double factor = 1.0;
  for (TechnologyNode& n : nodes) {
    n.cost_per_cm2 = n.cost_per_cm2 * factor;
    factor *= 1.0 + rate_per_node;
  }
  return Roadmap{std::move(nodes)};
}

const TechnologyNode& Roadmap::at_year(int year) const& {
  for (const TechnologyNode& n : nodes_) {
    if (n.year == year) return n;
  }
  throw std::out_of_range("no roadmap node for year " + std::to_string(year));
}

const TechnologyNode& Roadmap::nearest(units::Nanometers half_pitch) const& {
  const TechnologyNode* best = &nodes_.front();
  double best_err = std::fabs(best->half_pitch.value() - half_pitch.value());
  for (const TechnologyNode& n : nodes_) {
    const double err = std::fabs(n.half_pitch.value() - half_pitch.value());
    if (err < best_err) {
      best = &n;
      best_err = err;
    }
  }
  return *best;
}

namespace {

double geometric_mix(double a, double b, double t) {
  return a * std::pow(b / a, t);
}

}  // namespace

TechnologyNode Roadmap::interpolate(double year) const {
  if (year <= nodes_.front().year) return nodes_.front();
  if (year >= nodes_.back().year) return nodes_.back();
  std::size_t hi = 1;
  while (nodes_[hi].year < year) ++hi;
  const TechnologyNode& a = nodes_[hi - 1];
  const TechnologyNode& b = nodes_[hi];
  const double t = (year - a.year) / static_cast<double>(b.year - a.year);

  TechnologyNode out = a;
  out.year = static_cast<int>(std::lround(year));
  out.name = a.name + "~" + b.name;
  out.half_pitch =
      units::Nanometers{geometric_mix(a.half_pitch.value(), b.half_pitch.value(), t)};
  out.mpu_transistors = geometric_mix(a.mpu_transistors, b.mpu_transistors, t);
  out.mpu_chip_area = units::SquareCentimeters{
      geometric_mix(a.mpu_chip_area.value(), b.mpu_chip_area.value(), t)};
  out.cost_per_cm2 =
      units::CostPerArea{geometric_mix(a.cost_per_cm2.value(), b.cost_per_cm2.value(), t)};
  // Discrete attributes snap to the nearer node.
  const TechnologyNode& nearer = t < 0.5 ? a : b;
  out.wafer_diameter = nearer.wafer_diameter;
  out.metal_layers = nearer.metal_layers;
  out.mask_count = nearer.mask_count;
  return out;
}

}  // namespace nanocost::roadmap
