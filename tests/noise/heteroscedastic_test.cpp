#include "noise/heteroscedastic_function.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "core/algorithms.hpp"
#include "core/noise_probe.hpp"
#include "stats/welford.hpp"
#include "testfunctions/functions.hpp"
#include "tests/core/test_helpers.hpp"

namespace {

using namespace sfopt;
using noise::HeteroscedasticFunction;

/// Sphere with noise that grows with distance from the origin: quiet near
/// the optimum, loud far away.
HeteroscedasticFunction distanceNoisySphere(std::size_t dim, double base, double slope,
                                            std::uint64_t seed = 0x6e7) {
  HeteroscedasticFunction::Options o;
  o.seed = seed;
  return HeteroscedasticFunction(
      dim, [](std::span<const double> x) { return testfunctions::sphere(x); },
      [base, slope](std::span<const double> x) {
        double r2 = 0.0;
        for (double v : x) r2 += v * v;
        return base + slope * std::sqrt(r2);
      },
      o);
}

TEST(Heteroscedastic, NoiseScaleTracksLocation) {
  auto obj = distanceNoisySphere(2, 0.5, 2.0);
  EXPECT_DOUBLE_EQ(*obj.noiseScale(std::vector<double>{0.0, 0.0}), 0.5);
  EXPECT_DOUBLE_EQ(*obj.noiseScale(std::vector<double>{3.0, 4.0}), 0.5 + 10.0);
}

TEST(Heteroscedastic, RejectsNonPositiveSampleDuration) {
  for (const double bad : {0.0, -2.0, std::nan("")}) {
    HeteroscedasticFunction::Options o;
    o.sampleDuration = bad;
    EXPECT_THROW(HeteroscedasticFunction(
                     2, [](std::span<const double> x) { return testfunctions::sphere(x); },
                     [](std::span<const double>) { return 1.0; }, o),
                 std::invalid_argument)
        << bad;
  }
}

TEST(Heteroscedastic, SampleVarianceMatchesDeclaredScale) {
  auto obj = distanceNoisySphere(2, 1.0, 1.0);
  const std::vector<double> far{3.0, 4.0};  // sigma0 = 6
  stats::Welford w;
  for (std::uint64_t i = 0; i < 40000; ++i) w.add(obj.sample(far, {1, i}));
  EXPECT_NEAR(w.stddev(), 6.0, 0.15);
}

TEST(Heteroscedastic, ProbeRecoversLocalScale) {
  auto obj = distanceNoisySphere(2, 1.0, 1.0);
  const auto near = core::probeNoise(obj, {0.0, 0.0}, 4000);
  const auto far = core::probeNoise(obj, {3.0, 4.0}, 4000);
  EXPECT_NEAR(near.sigma0Estimate, 1.0, 0.1);
  EXPECT_NEAR(far.sigma0Estimate, 6.0, 0.4);
  EXPECT_NEAR(near.meanEstimate, 0.0, 0.1);
  EXPECT_NEAR(far.meanEstimate, 25.0, 0.4);
}

TEST(Heteroscedastic, ProbeValidation) {
  auto obj = distanceNoisySphere(2, 1.0, 1.0);
  EXPECT_THROW((void)core::probeNoise(obj, {0.0, 0.0}, 1), std::invalid_argument);
  EXPECT_THROW((void)core::probeNoise(obj, {0.0}, 100), std::invalid_argument);
}

TEST(Heteroscedastic, ProbeAccountsForSampleDuration) {
  // With dt = 4, per-sample sd is sigma0/2; the probe must rescale back.
  HeteroscedasticFunction::Options o;
  o.sampleDuration = 4.0;
  HeteroscedasticFunction obj(
      2, [](std::span<const double>) { return 0.0; },
      [](std::span<const double>) { return 8.0; }, o);
  const auto probe = core::probeNoise(obj, {0.0, 0.0}, 4000);
  EXPECT_NEAR(probe.sigma0Estimate, 8.0, 0.5);
  EXPECT_DOUBLE_EQ(probe.sampledTime, 16000.0);
}

TEST(Heteroscedastic, MnStillConverges) {
  // The algorithms never see sigma0(x); estimated sigmas must carry them
  // through the location-dependent noise.
  auto obj = distanceNoisySphere(2, 0.5, 1.5, 99);
  core::MaxNoiseOptions mn;
  mn.common.termination.tolerance = 1e-3;
  mn.common.termination.maxIterations = 300;
  mn.common.termination.maxSamples = 300'000;
  const auto res = core::runMaxNoise(obj, test::simpleStart(2, -3.0, 1.0), mn);
  ASSERT_TRUE(res.bestTrue.has_value());
  EXPECT_LT(*res.bestTrue, 1.0);
}

TEST(Heteroscedastic, PcStillConverges) {
  auto obj = distanceNoisySphere(2, 0.5, 1.5, 98);
  core::PCOptions pc;
  pc.common.termination.tolerance = 1e-3;
  pc.common.termination.maxIterations = 300;
  pc.common.termination.maxSamples = 300'000;
  const auto res = core::runPointToPoint(obj, test::simpleStart(2, -3.0, 1.0), pc);
  ASSERT_TRUE(res.bestTrue.has_value());
  EXPECT_LT(*res.bestTrue, 1.0);
}

TEST(Heteroscedastic, ExactSigmaModeUsesDeclaredScale) {
  auto obj = distanceNoisySphere(2, 2.0, 0.0);  // constant sigma0 = 2
  core::SamplingContext ctx(obj, {.sigmaMode = core::SigmaMode::Exact});
  auto v = ctx.createVertex({1.0, 1.0}, 16);
  EXPECT_DOUBLE_EQ(ctx.sigma(*v), 2.0 / 4.0);  // sigma0 / sqrt(16)
}

}  // namespace
