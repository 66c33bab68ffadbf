#include "water/cost.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "core/algorithms.hpp"
#include "stats/performance.hpp"

namespace {

using namespace sfopt;
using water::PropertyTarget;
using water::WaterCostObjective;
using water::weightedCost;

TEST(WeightedCost, SizesMustMatch) {
  const std::vector<PropertyTarget> t{{"a", 1.0, 1.0}};
  EXPECT_THROW((void)weightedCost(std::vector<double>{1.0, 2.0}, t), std::invalid_argument);
}

TEST(WeightedCost, ZeroAtTargets) {
  const std::vector<PropertyTarget> t{{"a", 2.0, 3.0}, {"b", -1.0, 1.0}};
  EXPECT_DOUBLE_EQ(weightedCost(std::vector<double>{2.0, -1.0}, t), 0.0);
}

TEST(WeightedCost, RelativeErrorFormula) {
  // Single target: w^2 (p - p0)^2 / p0^2 with w=2, p0=4, p=6 => 4*4/16 = 1.
  const std::vector<PropertyTarget> t{{"a", 4.0, 2.0}};
  EXPECT_DOUBLE_EQ(weightedCost(std::vector<double>{6.0}, t), 1.0);
}

TEST(WeightedCost, ZeroTargetUsesAbsoluteError) {
  const std::vector<PropertyTarget> t{{"rdf", 0.0, 3.0}};
  EXPECT_DOUBLE_EQ(weightedCost(std::vector<double>{0.5}, t), 9.0 * 0.25);
}

TEST(WeightedCost, WeightScalesQuadratically) {
  const std::vector<PropertyTarget> w1{{"a", 1.0, 1.0}};
  const std::vector<PropertyTarget> w3{{"a", 1.0, 3.0}};
  const std::vector<double> v{2.0};
  EXPECT_DOUBLE_EQ(weightedCost(v, w3), 9.0 * weightedCost(v, w1));
}

TEST(DefaultTargets, BalancedAtTip4p) {
  // Each term contributes O(1) at the published parameters: no property
  // silently dominates the fit (the paper's subjective-balancing rule).
  WaterCostObjective obj;
  const std::vector<double> tip4p{0.1550, 3.1536, 0.5200};
  const auto props = obj.surrogate().properties(water::paramsFromPoint(tip4p));
  const auto values = water::propertyVector(props);
  const auto& targets = obj.targets();
  for (std::size_t i = 0; i < targets.size(); ++i) {
    const std::vector<double> one{values[i]};
    const std::vector<PropertyTarget> oneT{targets[i]};
    const double term = weightedCost(one, oneT);
    EXPECT_LT(term, 10.0) << targets[i].name;
  }
}

TEST(ParamsFromPoint, Validates) {
  EXPECT_THROW((void)water::paramsFromPoint(std::vector<double>{1.0, 2.0}),
               std::invalid_argument);
  const auto p = water::paramsFromPoint(std::vector<double>{0.15, 3.1, 0.5});
  EXPECT_DOUBLE_EQ(p.epsilon, 0.15);
  EXPECT_DOUBLE_EQ(p.sigma, 3.1);
  EXPECT_DOUBLE_EQ(p.qH, 0.5);
}

TEST(WaterCostObjective, NoiseFollowsDecayLaw) {
  WaterCostObjective::Options o;
  o.sigma0 = 2.0;
  WaterCostObjective obj(o);
  const std::vector<double> x{0.155, 3.15, 0.52};
  // Variance of single samples ~ sigma0^2 / dt.
  stats::Welford w;
  for (std::uint64_t i = 0; i < 20000; ++i) w.add(obj.sample(x, {1, i}));
  EXPECT_NEAR(w.variance(), 4.0, 0.25);
  EXPECT_NEAR(w.mean(), *obj.trueValue(x), 0.05);
}

TEST(WaterCostObjective, GoldenSamplesArePinned) {
  // The default objective at the first Table 3.4a row: pins the surrogate
  // cost and the noise stream on top of it, bit for bit.
  const WaterCostObjective obj;
  const std::vector<double> x{0.210, 3.00, 0.54};
  EXPECT_EQ(*obj.trueValue(x), 0x1.e1988e0370322p+8);
  const noise::SampleKey keys[] = {{1, 0}, {1, 1}, {5, (1ULL << 40) + 3}};
  const double golden[] = {0x1.e1e2120fdbcfdp+8, 0x1.e218e08ec091p+8, 0x1.e0f1427f68901p+8};
  for (std::size_t i = 0; i < std::size(golden); ++i) {
    EXPECT_EQ(obj.sample(x, keys[i]), golden[i]) << "key " << i;
  }
}

TEST(WaterCostObjective, TrueCostLowerNearStructuralOptimum) {
  WaterCostObjective obj;
  const auto opt = obj.surrogate().structuralOptimum();
  const std::vector<double> good{opt.epsilon, opt.sigma, opt.qH};
  const std::vector<double> bad{0.21, 3.0, 0.54};  // a Table 3.4a start row
  EXPECT_LT(*obj.trueValue(good), *obj.trueValue(bad));
}

TEST(WaterCostObjective, RejectsBadOptions) {
  WaterCostObjective::Options o;
  o.targets = {{"only-one", 1.0, 1.0}};
  EXPECT_THROW(WaterCostObjective{o}, std::invalid_argument);
  WaterCostObjective::Options o2;
  o2.sampleDuration = 0.0;
  EXPECT_THROW(WaterCostObjective{o2}, std::invalid_argument);
}

TEST(WaterCostObjective, RejectsNonFiniteOrNegativeSigma0) {
  for (const double bad : {std::nan(""), std::numeric_limits<double>::infinity(), -0.5}) {
    WaterCostObjective::Options o;
    o.sigma0 = bad;
    EXPECT_THROW(WaterCostObjective{o}, std::invalid_argument) << bad;
  }
  WaterCostObjective::Options zero;
  zero.sigma0 = 0.0;
  EXPECT_NO_THROW(WaterCostObjective{zero});
}

TEST(Table34InitialPoints, ShapeAndRanges) {
  const auto pts = water::table34InitialPoints();
  ASSERT_EQ(pts.size(), 6u);  // d+3 rows as printed in the dissertation
  for (const auto& p : pts) {
    ASSERT_EQ(p.size(), 3u);
    EXPECT_GT(p[0], 0.05);
    EXPECT_LT(p[0], 0.5);  // epsilon, kcal/mol
    EXPECT_GT(p[1], 2.5);
    EXPECT_LT(p[1], 3.8);  // sigma, A
    EXPECT_GT(p[2], 0.3);
    EXPECT_LT(p[2], 0.8);  // qH, e
  }
}

TEST(WaterOptimization, MaxNoiseRecoversNearTip4pParameters) {
  // The headline application result (Table 3.4): starting from the poor
  // Table 3.4a simplex, the stochastic simplex drives the parameters into
  // the neighbourhood of the published TIP4P values.
  WaterCostObjective::Options o;
  o.sigma0 = 0.3;
  WaterCostObjective obj(o);
  const auto all = water::table34InitialPoints();
  const std::vector<core::Point> start(all.begin(), all.begin() + 4);

  core::MaxNoiseOptions mn;
  mn.common.termination.tolerance = 1e-3;
  mn.common.termination.maxIterations = 200;
  mn.common.sampling.maxSamplesPerVertex = 100'000;
  const auto res = core::runMaxNoise(obj, start, mn);

  const auto opt = obj.surrogate().structuralOptimum();
  EXPECT_NEAR(res.best[0], opt.epsilon, 0.05);
  EXPECT_NEAR(res.best[1], opt.sigma, 0.15);
  EXPECT_NEAR(res.best[2], opt.qH, 0.05);
}

}  // namespace
