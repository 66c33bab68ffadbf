#include "noise/noisy_function.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "stats/welford.hpp"

namespace {

using sfopt::noise::NoisyFunction;
using sfopt::noise::SampleKey;

NoisyFunction makeConstant(double value, double sigma0, double dt = 1.0) {
  NoisyFunction::Options o;
  o.sigma0 = sigma0;
  o.sampleDuration = dt;
  o.seed = 2024;
  return NoisyFunction(2, [value](std::span<const double>) { return value; }, o);
}

TEST(NoisyFunction, ExposesDimensionAndTrueValue) {
  auto f = makeConstant(7.0, 1.0);
  EXPECT_EQ(f.dimension(), 2u);
  const std::vector<double> x{0.0, 0.0};
  ASSERT_TRUE(f.trueValue(x).has_value());
  EXPECT_DOUBLE_EQ(*f.trueValue(x), 7.0);
  ASSERT_TRUE(f.noiseScale(x).has_value());
  EXPECT_DOUBLE_EQ(*f.noiseScale(x), 1.0);
}

TEST(NoisyFunction, SampleMeanConvergesToTrueValue) {
  auto f = makeConstant(10.0, 5.0);
  const std::vector<double> x{1.0, 2.0};
  sfopt::stats::Welford w;
  for (std::uint64_t i = 0; i < 50000; ++i) w.add(f.sample(x, {0, i}));
  EXPECT_NEAR(w.mean(), 10.0, 0.1);
}

TEST(NoisyFunction, PerSampleVarianceIsSigma0SquaredOverDt) {
  // With dt = 4, per-sample variance must be sigma0^2 / 4 so that the mean
  // over total time t has variance sigma0^2 / t (eq. 1.2).
  const double sigma0 = 6.0;
  const double dt = 4.0;
  auto f = makeConstant(0.0, sigma0, dt);
  const std::vector<double> x{0.0, 0.0};
  sfopt::stats::Welford w;
  for (std::uint64_t i = 0; i < 100000; ++i) w.add(f.sample(x, {1, i}));
  EXPECT_NEAR(w.variance(), sigma0 * sigma0 / dt, 0.3);
}

TEST(NoisyFunction, MeanOverTimeTHasVarianceSigma0SquaredOverT) {
  // Direct check of the decay law: form many independent "vertices", each
  // sampled n times; the empirical variance of the vertex means should be
  // sigma0^2 / (n * dt).
  const double sigma0 = 2.0;
  const double dt = 1.0;
  const int n = 16;
  auto f = makeConstant(0.0, sigma0, dt);
  const std::vector<double> x{0.0, 0.0};
  sfopt::stats::Welford acrossVertices;
  for (std::uint64_t v = 0; v < 4000; ++v) {
    sfopt::stats::Welford inner;
    for (std::uint64_t i = 0; i < n; ++i) inner.add(f.sample(x, {v, i}));
    acrossVertices.add(inner.mean());
  }
  const double expected = sigma0 * sigma0 / (n * dt);
  EXPECT_NEAR(acrossVertices.variance(), expected, expected * 0.15);
}

TEST(NoisyFunction, ReproducibleAcrossInstances) {
  auto f1 = makeConstant(0.0, 1.0);
  auto f2 = makeConstant(0.0, 1.0);
  const std::vector<double> x{0.5, -0.5};
  for (std::uint64_t i = 0; i < 50; ++i) {
    EXPECT_DOUBLE_EQ(f1.sample(x, {3, i}), f2.sample(x, {3, i}));
  }
}

TEST(NoisyFunction, DifferentStreamsDecorrelated) {
  auto f = makeConstant(0.0, 1.0);
  const std::vector<double> x{0.0, 0.0};
  // Correlation estimate between streams 1 and 2 over matched indices.
  sfopt::stats::Welford wa;
  sfopt::stats::Welford wb;
  double cross = 0.0;
  const int n = 20000;
  for (std::uint64_t i = 0; i < static_cast<std::uint64_t>(n); ++i) {
    const double a = f.sample(x, {1, i});
    const double b = f.sample(x, {2, i});
    wa.add(a);
    wb.add(b);
    cross += a * b;
  }
  const double cov = cross / n - wa.mean() * wb.mean();
  const double corr = cov / (wa.stddev() * wb.stddev());
  EXPECT_NEAR(corr, 0.0, 0.03);
}

TEST(NoisyFunction, RejectsNonFiniteOrNegativeSigma0) {
  for (const double bad : {std::nan(""), std::numeric_limits<double>::infinity(), -1.0}) {
    EXPECT_THROW((void)makeConstant(0.0, bad), std::invalid_argument) << bad;
  }
  EXPECT_NO_THROW((void)makeConstant(0.0, 0.0));
}

TEST(NoisyFunction, RejectsNonPositiveSampleDuration) {
  for (const double bad : {0.0, -1.0, std::nan("")}) {
    EXPECT_THROW((void)makeConstant(0.0, 1.0, bad), std::invalid_argument) << bad;
  }
}

TEST(NoisyFunction, ZeroNoiseIsExact) {
  auto f = makeConstant(3.25, 0.0);
  const std::vector<double> x{0.0, 0.0};
  for (std::uint64_t i = 0; i < 10; ++i) {
    EXPECT_DOUBLE_EQ(f.sample(x, {0, i}), 3.25);
  }
}

}  // namespace
