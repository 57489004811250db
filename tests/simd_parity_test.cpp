// Bitwise vector==scalar parity for every SoA/SIMD kernel.
//
// The repo's SIMD contract (DESIGN.md §12) is that a vector lane is an
// *implementation detail*: for any input, the scalar path and the AVX2
// lane produce the identical bit pattern and leave shared RNG streams
// at the identical position.  These tests enumerate the levels the
// host actually supports (a lane the CPU lacks cannot be exercised) and
// compare each against the scalar oracle over randomized inputs and
// every odd-remainder tail length, including the out-of-support/
// model-fallback edges of the kill-probability LUT.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "nanocost/core/risk.hpp"
#include "nanocost/defect/size_distribution.hpp"
#include "nanocost/defect/spatial.hpp"
#include "nanocost/exec/rng.hpp"
#include "nanocost/exec/rng_batch.hpp"
#include "nanocost/exec/simd.hpp"
#include "nanocost/fabsim/simulator.hpp"
#include "nanocost/geometry/wafer_map.hpp"

namespace {

using namespace nanocost;
using exec::SimdLevel;

/// Levels the host can execute, scalar first.
std::vector<SimdLevel> levels() {
  std::vector<SimdLevel> out{SimdLevel::kScalar};
  if (exec::detected_simd_level() >= SimdLevel::kAvx2) out.push_back(SimdLevel::kAvx2);
  return out;
}

/// Tail lengths crossing every lane boundary of the 4-wide AVX2 paths,
/// and the 64-draw staging block of uniform_unit_batch_at.
const std::size_t kLengths[] = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 31, 32, 33, 100};

template <typename T>
void expect_bitwise_equal(const std::vector<T>& a, const std::vector<T>& b,
                          const char* what, std::size_t n) {
  ASSERT_EQ(a.size(), b.size()) << what << " n=" << n;
  if (!a.empty()) {
    EXPECT_EQ(0, std::memcmp(a.data(), b.data(), a.size() * sizeof(T)))
        << what << " diverges at n=" << n;
  }
}

TEST(SimdParity, Splitmix64Batch) {
  for (const std::size_t n : kLengths) {
    std::vector<std::uint64_t> ref(n);
    exec::SplitMix64 rng_ref(12345);
    exec::splitmix64_batch_at(SimdLevel::kScalar, rng_ref, ref.data(), n);
    // The batch must also equal n serial next() calls.
    exec::SplitMix64 serial(12345);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(ref[i], serial.next()) << "batch != serial stream at " << i;
    }
    ASSERT_EQ(rng_ref.state(), serial.state());
    for (const SimdLevel level : levels()) {
      std::vector<std::uint64_t> got(n);
      exec::SplitMix64 rng(12345);
      exec::splitmix64_batch_at(level, rng, got.data(), n);
      expect_bitwise_equal(ref, got, "splitmix64_batch", n);
      EXPECT_EQ(rng_ref.state(), rng.state()) << "stream position diverges";
    }
  }
}

TEST(SimdParity, UniformUnitBatch) {
  for (const std::size_t n : kLengths) {
    std::vector<double> ref(n);
    exec::SplitMix64 rng_ref(99);
    exec::uniform_unit_batch_at(SimdLevel::kScalar, rng_ref, ref.data(), n);
    exec::SplitMix64 serial(99);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(ref[i], exec::uniform_unit(serial));
    }
    for (const SimdLevel level : levels()) {
      std::vector<double> got(n);
      exec::SplitMix64 rng(99);
      exec::uniform_unit_batch_at(level, rng, got.data(), n);
      expect_bitwise_equal(ref, got, "uniform_unit_batch", n);
      EXPECT_EQ(rng_ref.state(), rng.state());
    }
  }
}

TEST(SimdParity, CounterMappers) {
  for (const std::size_t n : kLengths) {
    std::vector<std::uint64_t> seeds_ref(n), mixed_ref(n);
    std::vector<double> unit_ref(n), pos_ref(n);
    exec::for_task_batch_at(SimdLevel::kScalar, 777, 3, seeds_ref.data(), n);
    exec::mix_add_batch_at(SimdLevel::kScalar, seeds_ref.data(), 2 * exec::kGoldenGamma,
                           mixed_ref.data(), n);
    exec::u53_to_unit_batch_at(SimdLevel::kScalar, mixed_ref.data(), unit_ref.data(), n);
    exec::u53_to_unit_pos_batch_at(SimdLevel::kScalar, mixed_ref.data(), pos_ref.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(seeds_ref[i], exec::SeedSequence::for_task(777, 3 + i));
    }
    for (const SimdLevel level : levels()) {
      std::vector<std::uint64_t> seeds(n), mixed(n);
      std::vector<double> unit(n), pos(n);
      exec::for_task_batch_at(level, 777, 3, seeds.data(), n);
      exec::mix_add_batch_at(level, seeds.data(), 2 * exec::kGoldenGamma, mixed.data(), n);
      exec::u53_to_unit_batch_at(level, mixed.data(), unit.data(), n);
      exec::u53_to_unit_pos_batch_at(level, mixed.data(), pos.data(), n);
      expect_bitwise_equal(seeds_ref, seeds, "for_task_batch", n);
      expect_bitwise_equal(mixed_ref, mixed, "mix_add_batch", n);
      expect_bitwise_equal(unit_ref, unit, "u53_to_unit_batch", n);
      expect_bitwise_equal(pos_ref, pos, "u53_to_unit_pos_batch", n);
    }
  }
}

TEST(SimdParity, DefectSizeBatch) {
  const auto classic = defect::DefectSizeDistribution::for_feature_size(units::Micrometers{0.25});
  // Non-cubic tail exercises the general-q (scalar pow) path at every level.
  const defect::DefectSizeDistribution general(units::Micrometers{0.1}, units::Micrometers{0.3},
                                               units::Micrometers{20.0}, 2.5);
  for (const auto* dist : {&classic, &general}) {
    for (const std::size_t n : kLengths) {
      std::vector<double> ref(n);
      exec::SplitMix64 rng_ref(31337);
      dist->sample_batch_at(SimdLevel::kScalar, rng_ref, ref.data(), n);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_GE(ref[i], dist->xmin().value());
        ASSERT_LE(ref[i], dist->xmax().value());
      }
      for (const SimdLevel level : levels()) {
        std::vector<double> got(n);
        exec::SplitMix64 rng(31337);
        dist->sample_batch_at(level, rng, got.data(), n);
        expect_bitwise_equal(ref, got, "sample_batch", n);
        EXPECT_EQ(rng_ref.state(), rng.state());
      }
    }
  }
}

fabsim::FabSimulator make_simulator(defect::DefectFieldParams field) {
  return fabsim::FabSimulator{fabsim::FabConfig{
      geometry::WaferSpec::mm200(),
      geometry::DieSize{units::Millimeters{12.0}, units::Millimeters{12.0}},
      defect::DefectSizeDistribution::for_feature_size(units::Micrometers{0.25}), field,
      defect::WireArray{units::Micrometers{0.25}, units::Micrometers{0.25},
                        units::Micrometers{100.0}, 50}}};
}

TEST(SimdParity, KillLutBatch) {
  const fabsim::FabSimulator sim = make_simulator(defect::DefectFieldParams{});
  const fabsim::KillProbabilityLut& lut = sim.kill_lut();
  const auto sizes = defect::DefectSizeDistribution::for_feature_size(units::Micrometers{0.25});
  // Random in-support sizes plus the support endpoints and
  // out-of-support values (model fallback lanes).
  std::vector<double> xs(997);
  exec::SplitMix64 rng(2718);
  sizes.sample_batch_at(SimdLevel::kScalar, rng, xs.data(), xs.size());
  xs.push_back(sizes.xmin().value());
  xs.push_back(sizes.xmax().value());
  xs.push_back(sizes.xmin().value() / 2.0);
  xs.push_back(sizes.xmax().value() * 2.0);
  for (const std::size_t n : kLengths) {
    const std::size_t m = std::min(n, xs.size());
    std::vector<double> ref(m), got(m);
    lut.evaluate_batch_at(SimdLevel::kScalar, xs.data(), ref.data(), m);
    for (std::size_t i = 0; i < m; ++i) {
      ASSERT_EQ(ref[i], lut(units::Micrometers{xs[i]})) << "batch != operator() at " << i;
    }
    for (const SimdLevel level : levels()) {
      lut.evaluate_batch_at(level, xs.data(), got.data(), m);
      expect_bitwise_equal(ref, got, "evaluate_batch", m);
    }
  }
  // Full vector over everything, endpoints and fallbacks included.
  std::vector<double> ref(xs.size()), got(xs.size());
  lut.evaluate_batch_at(SimdLevel::kScalar, xs.data(), ref.data(), xs.size());
  for (const SimdLevel level : levels()) {
    lut.evaluate_batch_at(level, xs.data(), got.data(), xs.size());
    expect_bitwise_equal(ref, got, "evaluate_batch (full)", xs.size());
  }
}

TEST(SimdParity, DefectFieldSoA) {
  defect::DefectFieldParams flat;
  flat.density_per_cm2 = 1.0;
  defect::DefectFieldParams radial = flat;
  radial.radial = defect::RadialProfile(2.0, 2.0);
  defect::DefectFieldParams clustered = flat;
  clustered.clustered = true;
  clustered.cluster_alpha = 1.5;

  const auto wafer = geometry::WaferSpec::mm200();
  const auto sizes = defect::DefectSizeDistribution::for_feature_size(units::Micrometers{0.25});
  for (const auto& params : {flat, radial, clustered}) {
    const defect::DefectField field(wafer, sizes, params);
    defect::DefectSoA ref;
    exec::SplitMix64 rng_ref(555);
    field.sample_wafer_at(SimdLevel::kScalar, rng_ref, ref);
    for (const SimdLevel level : levels()) {
      defect::DefectSoA got;
      exec::SplitMix64 rng(555);
      field.sample_wafer_at(level, rng, got);
      ASSERT_EQ(ref.size(), got.size());
      expect_bitwise_equal(ref.x_mm, got.x_mm, "defect x", ref.size());
      expect_bitwise_equal(ref.y_mm, got.y_mm, "defect y", ref.size());
      expect_bitwise_equal(ref.size_um, got.size_um, "defect size", ref.size());
      EXPECT_EQ(rng_ref.state(), rng.state()) << "wafer stream position diverges";
    }
  }
}

TEST(SimdParity, WaferSiteBatch) {
  // Every outcome of the scalar site_at oracle, in lanes and tails:
  // die centers; points exactly on each body edge and one ulp outside
  // it; cell and street boundaries; points past the grid; far-off and
  // non-finite values (the oracle range-tests in double, so those are
  // defined too); and random points over the wafer's bounding square.
  using units::Millimeters;
  const geometry::WaferMap maps[] = {
      geometry::WaferMap(geometry::WaferSpec::mm300(),
                         geometry::DieSize{Millimeters{13.0}, Millimeters{13.0}}),
      geometry::WaferMap(geometry::WaferSpec::mm200(),
                         geometry::DieSize{Millimeters{7.5}, Millimeters{11.0}},
                         geometry::GridAnchor::kStreetCentered),
  };
  const double inf = std::numeric_limits<double>::infinity();
  for (const geometry::WaferMap& map : maps) {
    std::vector<double> xs;
    std::vector<double> ys;
    const auto add = [&](double x, double y) {
      xs.push_back(x);
      ys.push_back(y);
    };
    const double half_w = map.die().width().value() / 2.0;
    const double half_h = map.die().height().value() / 2.0;
    const double street = map.wafer().scribe_street().value();
    const double cell_w = map.die().width().value() + street;
    const double cell_h = map.die().height().value() + street;
    for (const geometry::DieSite& site : map.sites()) {
      const double cx = site.center_x.value();
      const double cy = site.center_y.value();
      add(cx, cy);
      for (const double edge : {cx - half_w, cx + half_w}) {
        add(edge, cy);
        add(std::nextafter(edge, edge < cx ? -inf : inf), cy);
      }
      for (const double edge : {cy - half_h, cy + half_h}) {
        add(cx, edge);
        add(cx, std::nextafter(edge, edge < cy ? -inf : inf));
      }
      add(cx + cell_w / 2.0, cy);  // cell boundaries
      add(cx, cy - cell_h / 2.0);
      add(cx + (half_w + cell_w / 2.0) / 2.0, cy);  // mid-street
      add(cx + cell_w / 2.0, cy + cell_h / 2.0);    // street crossing
    }
    const double r = map.wafer().radius().value();
    const double max = std::numeric_limits<double>::max();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double far[] = {0.0,   -0.0,   r + 1.0, -r - 1.0, 1e19, -1e19, 1e300,
                          -1e300, 5e-324, max,     -max,     inf,  -inf,  nan};
    for (const double a : far) {
      for (const double b : far) add(a, b);
    }
    exec::SplitMix64 rng(4242);
    for (int i = 0; i < 2000; ++i) {
      add((2.0 * exec::uniform_unit(rng) - 1.0) * (r + 5.0),
          (2.0 * exec::uniform_unit(rng) - 1.0) * (r + 5.0));
    }

    std::vector<std::int64_t> ref(xs.size());
    for (std::size_t i = 0; i < xs.size(); ++i) {
      ref[i] = map.site_at(Millimeters{xs[i]}, Millimeters{ys[i]});
    }
    ASSERT_GT(std::count_if(ref.begin(), ref.end(), [](std::int64_t s) { return s >= 0; }),
              static_cast<std::ptrdiff_t>(map.sites().size()));
    for (const SimdLevel level : levels()) {
      // Consecutive windows of each length 0-9 tile the points, so each
      // point runs through the 4-wide body and through scalar tails.
      for (std::size_t n = 0; n <= 9; ++n) {
        for (std::size_t begin = 0; begin + n <= xs.size(); begin += std::max<std::size_t>(n, 1)) {
          std::vector<std::int64_t> got(n);
          map.site_at_batch_at(level, xs.data() + begin, ys.data() + begin, got.data(), n);
          const std::vector<std::int64_t> want(ref.begin() + static_cast<std::ptrdiff_t>(begin),
                                               ref.begin() +
                                                   static_cast<std::ptrdiff_t>(begin + n));
          expect_bitwise_equal(want, got, "site_at_batch", n);
        }
      }
      std::vector<std::int64_t> got(xs.size());
      map.site_at_batch_at(level, xs.data(), ys.data(), got.data(), xs.size());
      expect_bitwise_equal(ref, got, "site_at_batch (full)", xs.size());
    }
  }
}

TEST(SimdParity, RiskSampleBatch) {
  core::UncertainInputs u;
  u.nominal.transistors_per_chip = 1e7;
  u.nominal.n_wafers = 10000.0;
  u.nominal.yield = units::Probability{0.7};
  const double s_d = 300.0;
  for (const std::size_t n : kLengths) {
    std::vector<double> ref(n);
    core::risk_sample_cost_batch_at(SimdLevel::kScalar, u, s_d, 17, 5, n, ref.data());
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(ref[i], core::risk_sample_cost(u, s_d, 17, 5 + i))
          << "batch != scalar kernel at " << i;
    }
    for (const SimdLevel level : levels()) {
      std::vector<double> got(n);
      core::risk_sample_cost_batch_at(level, u, s_d, 17, 5, n, got.data());
      expect_bitwise_equal(ref, got, "risk_sample_cost_batch", n);
    }
  }
}

}  // namespace
