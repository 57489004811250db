#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "nanocost/defect/critical_area.hpp"
#include "nanocost/defect/size_distribution.hpp"
#include "nanocost/defect/spatial.hpp"
#include "nanocost/exec/rng.hpp"
#include "nanocost/exec/simd.hpp"
#include "nanocost/geometry/wafer.hpp"

namespace nanocost::defect {
namespace {

using units::Micrometers;

DefectSizeDistribution reference_dist() {
  return DefectSizeDistribution{Micrometers{0.1}, Micrometers{0.25}, Micrometers{25.0}, 3.0};
}

TEST(SizeDistribution, ValidatesConstruction) {
  EXPECT_THROW(DefectSizeDistribution(Micrometers{0.3}, Micrometers{0.25}, Micrometers{25.0}),
               std::domain_error);
  EXPECT_THROW(DefectSizeDistribution(Micrometers{0.1}, Micrometers{0.25}, Micrometers{0.2}),
               std::domain_error);
  EXPECT_THROW(
      DefectSizeDistribution(Micrometers{0.1}, Micrometers{0.25}, Micrometers{25.0}, 0.5),
      std::domain_error);
}

TEST(SizeDistribution, PdfIntegratesToOne) {
  const auto dist = reference_dist();
  // Trapezoidal integral over the support.
  const double a = dist.xmin().value(), b = dist.xmax().value();
  const int n = 200000;
  double integral = 0.0;
  double prev = dist.pdf(Micrometers{a});
  for (int i = 1; i <= n; ++i) {
    const double x = a + (b - a) * i / n;
    const double cur = dist.pdf(Micrometers{x});
    integral += (prev + cur) / 2.0 * (b - a) / n;
    prev = cur;
  }
  EXPECT_NEAR(integral, 1.0, 1e-3);
}

TEST(SizeDistribution, CdfIsMonotoneAndBounded) {
  const auto dist = reference_dist();
  double prev = -1.0;
  for (double x = 0.05; x <= 30.0; x *= 1.3) {
    const double c = dist.cdf(Micrometers{x});
    EXPECT_GE(c, prev);
    EXPECT_GE(c, 0.0);
    EXPECT_LE(c, 1.0);
    prev = c;
  }
  EXPECT_DOUBLE_EQ(dist.cdf(dist.xmax()), 1.0);
  EXPECT_DOUBLE_EQ(dist.cdf(dist.xmin()), 0.0);
}

TEST(SizeDistribution, PdfPeaksAtPeak) {
  const auto dist = reference_dist();
  const double at_peak = dist.pdf(dist.peak());
  EXPECT_GT(at_peak, dist.pdf(Micrometers{0.12}));
  EXPECT_GT(at_peak, dist.pdf(Micrometers{0.5}));
  EXPECT_DOUBLE_EQ(dist.pdf(Micrometers{0.01}), 0.0);
  EXPECT_DOUBLE_EQ(dist.pdf(Micrometers{100.0}), 0.0);
}

TEST(SizeDistribution, MostMassIsNearThePeak) {
  // The cubic tail means defects much larger than the peak are rare:
  // >= 90% of defects are below 4x the peak size.
  const auto dist = reference_dist();
  EXPECT_GT(dist.cdf(Micrometers{1.0}), 0.9);
}

TEST(SizeDistribution, SamplingMatchesCdf) {
  const auto dist = reference_dist();
  exec::SplitMix64 rng(7);
  const int n = 200000;
  std::vector<double> drawn(n);
  dist.sample_batch(rng, drawn.data(), drawn.size());
  int below_peak = 0, below_1um = 0;
  double sum = 0.0;
  for (const double um : drawn) {
    const Micrometers x{um};
    ASSERT_GE(x.value(), dist.xmin().value());
    ASSERT_LE(x.value(), dist.xmax().value());
    if (x < dist.peak()) ++below_peak;
    if (x.value() < 1.0) ++below_1um;
    sum += x.value();
  }
  EXPECT_NEAR(below_peak / static_cast<double>(n), dist.cdf(dist.peak()), 0.01);
  EXPECT_NEAR(below_1um / static_cast<double>(n), dist.cdf(Micrometers{1.0}), 0.01);
  EXPECT_NEAR(sum / n, dist.mean().value(), dist.mean().value() * 0.05);
}

TEST(SizeDistribution, ForFeatureSizeScalesWithLambda) {
  const auto d1 = DefectSizeDistribution::for_feature_size(Micrometers{0.25});
  const auto d2 = DefectSizeDistribution::for_feature_size(Micrometers{0.13});
  EXPECT_DOUBLE_EQ(d1.peak().value(), 0.25);
  EXPECT_DOUBLE_EQ(d2.peak().value(), 0.13);
  EXPECT_LT(d2.mean().value(), d1.mean().value());
}

TEST(WireArray, ShortCriticalAreaThresholds) {
  // width 0.25, spacing 0.25, length 100, 10 wires.
  const WireArray array{Micrometers{0.25}, Micrometers{0.25}, Micrometers{100.0}, 10};
  EXPECT_DOUBLE_EQ(array.short_critical_area(Micrometers{0.2}).value(), 0.0);
  EXPECT_DOUBLE_EQ(array.short_critical_area(Micrometers{0.25}).value(), 0.0);
  // Just above the spacing: 9 pairs x (x - s) x length.
  const double a = array.short_critical_area(Micrometers{0.35}).value();
  EXPECT_NEAR(a, 9 * 0.1 * 100.0, 1e-9);
  // Saturates at the footprint for huge defects.
  const double big = array.short_critical_area(Micrometers{50.0}).value();
  EXPECT_LE(big, array.footprint().value() + 1e-9);
}

TEST(WireArray, OpenCriticalAreaThresholds) {
  const WireArray array{Micrometers{0.3}, Micrometers{0.2}, Micrometers{50.0}, 5};
  EXPECT_DOUBLE_EQ(array.open_critical_area(Micrometers{0.3}).value(), 0.0);
  const double a = array.open_critical_area(Micrometers{0.4}).value();
  EXPECT_NEAR(a, 5 * 0.1 * 50.0, 1e-9);
}

TEST(WireArray, CriticalAreaMonotoneInDefectSize) {
  const WireArray array{Micrometers{0.25}, Micrometers{0.25}, Micrometers{100.0}, 20};
  double prev_s = -1.0, prev_o = -1.0;
  for (double x = 0.1; x < 10.0; x *= 1.5) {
    const double s = array.short_critical_area(Micrometers{x}).value();
    const double o = array.open_critical_area(Micrometers{x}).value();
    EXPECT_GE(s, prev_s);
    EXPECT_GE(o, prev_o);
    prev_s = s;
    prev_o = o;
  }
}

TEST(WireArray, AverageCriticalAreaIsPositiveAndBounded) {
  const WireArray array{Micrometers{0.25}, Micrometers{0.25}, Micrometers{100.0}, 20};
  const auto dist = DefectSizeDistribution::for_feature_size(Micrometers{0.25});
  const double avg_short = array.average_short_critical_area(dist).value();
  const double avg_open = array.average_open_critical_area(dist).value();
  EXPECT_GT(avg_short, 0.0);
  EXPECT_GT(avg_open, 0.0);
  EXPECT_LT(avg_short, array.footprint().value());
  EXPECT_LT(avg_open, array.footprint().value());
}

TEST(WireArray, WiderSpacingReducesShortCriticalArea) {
  const auto dist = DefectSizeDistribution::for_feature_size(Micrometers{0.25});
  const WireArray tight{Micrometers{0.25}, Micrometers{0.25}, Micrometers{100.0}, 20};
  const WireArray loose{Micrometers{0.25}, Micrometers{0.75}, Micrometers{100.0}, 20};
  EXPECT_GT(critical_area_ratio(tight, dist), critical_area_ratio(loose, dist));
}

TEST(DensityScaling, SparserDesignsAreLessSensitive) {
  const Micrometers lambda{0.25};
  const double dense = density_scaled_critical_area_ratio(100.0, 100.0, lambda);
  const double sparse = density_scaled_critical_area_ratio(400.0, 100.0, lambda);
  EXPECT_GT(dense, sparse);
  EXPECT_GT(dense, 0.0);
  EXPECT_LT(dense, 1.0);
}

class DensityScalingSweep : public ::testing::TestWithParam<double> {};

TEST_P(DensityScalingSweep, RatioDecreasesMonotonically) {
  const double s_d = GetParam();
  const Micrometers lambda{0.25};
  const double here = density_scaled_critical_area_ratio(s_d, 100.0, lambda);
  const double sparser = density_scaled_critical_area_ratio(s_d * 1.5, 100.0, lambda);
  EXPECT_GT(here, sparser) << "s_d = " << s_d;
}

INSTANTIATE_TEST_SUITE_P(SdRange, DensityScalingSweep,
                         ::testing::Values(50.0, 100.0, 150.0, 250.0, 400.0, 700.0));

TEST(RadialProfile, FlatByDefault) {
  const RadialProfile flat;
  EXPECT_TRUE(flat.is_flat());
  EXPECT_DOUBLE_EQ(flat.multiplier(0.0), 1.0);
  EXPECT_DOUBLE_EQ(flat.multiplier(1.0), 1.0);
}

TEST(RadialProfile, AreaWeightedMeanIsOne) {
  const RadialProfile prof{2.0, 2.0};
  // Numerically integrate multiplier(u) * 2u du over [0,1].
  const int n = 100000;
  double integral = 0.0;
  for (int i = 0; i < n; ++i) {
    const double u = (i + 0.5) / n;
    integral += prof.multiplier(u) * 2.0 * u / n;
  }
  EXPECT_NEAR(integral, 1.0, 1e-4);
  EXPECT_GT(prof.multiplier(1.0), prof.multiplier(0.0));
}

TEST(DefectField, ExpectedCountMatchesDensityTimesArea) {
  const auto wafer = geometry::WaferSpec::mm200();
  const auto dist = DefectSizeDistribution::for_feature_size(Micrometers{0.25});
  DefectFieldParams params;
  params.density_per_cm2 = 0.5;
  const DefectField field(wafer, dist, params);
  EXPECT_NEAR(field.expected_count(), 0.5 * wafer.area().value(), 1e-9);
}

TEST(DefectField, SampledCountsHaveRightMean) {
  const auto wafer = geometry::WaferSpec::mm200();
  const auto dist = DefectSizeDistribution::for_feature_size(Micrometers{0.25});
  DefectFieldParams params;
  params.density_per_cm2 = 0.3;
  const DefectField field(wafer, dist, params);
  exec::SplitMix64 rng(11);
  DefectSoA defects;
  double total = 0.0;
  const int wafers = 500;
  for (int i = 0; i < wafers; ++i) {
    field.sample_wafer(rng, defects);
    total += static_cast<double>(defects.size());
  }
  const double expected = field.expected_count();
  EXPECT_NEAR(total / wafers, expected, expected * 0.1);
}

TEST(DefectField, AllDefectsInsideWafer) {
  const auto wafer = geometry::WaferSpec::mm200();
  const auto dist = DefectSizeDistribution::for_feature_size(Micrometers{0.25});
  DefectFieldParams params;
  params.density_per_cm2 = 1.0;
  params.radial = RadialProfile{3.0, 2.0};
  const DefectField field(wafer, dist, params);
  exec::SplitMix64 rng(13);
  DefectSoA defects;
  for (int i = 0; i < 20; ++i) {
    field.sample_wafer(rng, defects);
    for (std::size_t d = 0; d < defects.size(); ++d) {
      const double r = std::hypot(defects.x_mm[d], defects.y_mm[d]);
      EXPECT_LE(r, wafer.radius().value() + 1e-9);
      EXPECT_GT(defects.size_um[d], 0.0);
    }
  }
}

TEST(DefectField, ClusteringInflatesWaferToWaferVariance) {
  const auto wafer = geometry::WaferSpec::mm200();
  const auto dist = DefectSizeDistribution::for_feature_size(Micrometers{0.25});
  DefectFieldParams poisson;
  poisson.density_per_cm2 = 0.5;
  DefectFieldParams clustered = poisson;
  clustered.clustered = true;
  clustered.cluster_alpha = 0.5;

  const auto variance_of = [&](const DefectFieldParams& p, std::uint64_t seed) {
    const DefectField field(wafer, dist, p);
    exec::SplitMix64 rng(seed);
    DefectSoA defects;
    const int n = 400;
    std::vector<double> counts(n);
    double mean = 0.0;
    for (int i = 0; i < n; ++i) {
      field.sample_wafer(rng, defects);
      counts[i] = static_cast<double>(defects.size());
      mean += counts[i];
    }
    mean /= n;
    double ss = 0.0;
    for (const double c : counts) ss += (c - mean) * (c - mean);
    return ss / (n - 1) / mean;  // variance-to-mean ratio
  };

  EXPECT_NEAR(variance_of(poisson, 17), 1.0, 0.3);
  EXPECT_GT(variance_of(clustered, 17), 2.0);
}

TEST(DefectField, RadialProfileSkewsDefectsOutward) {
  const auto wafer = geometry::WaferSpec::mm200();
  const auto dist = DefectSizeDistribution::for_feature_size(Micrometers{0.25});
  DefectFieldParams flat;
  flat.density_per_cm2 = 1.0;
  DefectFieldParams edgy = flat;
  edgy.radial = RadialProfile{5.0, 3.0};

  const auto mean_radius = [&](const DefectFieldParams& p) {
    const DefectField field(wafer, dist, p);
    exec::SplitMix64 rng(23);
    DefectSoA defects;
    double sum = 0.0;
    int n = 0;
    for (int i = 0; i < 100; ++i) {
      field.sample_wafer(rng, defects);
      for (std::size_t d = 0; d < defects.size(); ++d) {
        sum += std::hypot(defects.x_mm[d], defects.y_mm[d]);
        ++n;
      }
    }
    return sum / n;
  };

  EXPECT_GT(mean_radius(edgy), mean_radius(flat) * 1.05);
}

/// The flat-profile position sampler as it ran before blocking: one
/// 16-uniform round at a time, stopping the moment `count` points are
/// in.  The reference the blocked sampler must reproduce bitwise.
void disc_round_by_round(exec::SplitMix64& rng, double radius_mm, std::size_t count,
                         std::vector<double>& x_mm, std::vector<double>& y_mm) {
  x_mm.clear();
  y_mm.clear();
  double u[16];
  while (x_mm.size() < count) {
    for (double& v : u) v = exec::uniform_unit(rng);
    for (int i = 0; i < 8; ++i) {
      if (x_mm.size() == count) break;
      const double cx = (2.0 * u[i] - 1.0) * radius_mm;
      const double cy = (2.0 * u[8 + i] - 1.0) * radius_mm;
      if (cx * cx + cy * cy <= radius_mm * radius_mm) {
        x_mm.push_back(cx);
        y_mm.push_back(cy);
      }
    }
  }
}

TEST(DefectField, BlockedDiscSamplerMatchesTheRoundOracle) {
  // Counts around one round's 8 candidates, on both sides of a full
  // 64-round block, and past the dense benchmark lot's ~2,100 defects.
  // Every level runs the same blocking code, so only this oracle can
  // catch a rewind that leaves the stream in the wrong place.
  const double radius = geometry::WaferSpec::mm300().radius().value();
  std::vector<exec::SimdLevel> levels{exec::SimdLevel::kScalar};
  if (exec::detected_simd_level() >= exec::SimdLevel::kSse2) {
    levels.push_back(exec::SimdLevel::kSse2);
  }
  if (exec::detected_simd_level() >= exec::SimdLevel::kAvx2) {
    levels.push_back(exec::SimdLevel::kAvx2);
  }
  for (const std::size_t count : {0, 1, 7, 8, 9, 63, 400, 401, 2133, 5000}) {
    for (std::uint64_t seed = 1; seed <= 64; ++seed) {
      std::vector<double> want_x;
      std::vector<double> want_y;
      exec::SplitMix64 want_rng(seed);
      disc_round_by_round(want_rng, radius, count, want_x, want_y);
      for (const exec::SimdLevel level : levels) {
        std::vector<double> x{1.0, 2.0, 3.0};  // stale contents are replaced
        std::vector<double> y;
        exec::SplitMix64 rng(seed);
        sample_disc_at(level, rng, radius, count, x, y);
        ASSERT_EQ(x.size(), count);
        ASSERT_EQ(y.size(), count);
        if (count > 0) {
          EXPECT_EQ(0, std::memcmp(x.data(), want_x.data(), count * sizeof(double)))
              << "x diverges: count " << count << " seed " << seed;
          EXPECT_EQ(0, std::memcmp(y.data(), want_y.data(), count * sizeof(double)))
              << "y diverges: count " << count << " seed " << seed;
        }
        EXPECT_EQ(rng.state(), want_rng.state())
            << "stream position diverges: count " << count << " seed " << seed;
      }
    }
  }
}

}  // namespace
}  // namespace nanocost::defect
