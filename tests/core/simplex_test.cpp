#include "core/simplex.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "tests/core/test_helpers.hpp"

namespace {

using namespace sfopt;
using core::Point;
using core::Simplex;
using core::Vertex;

/// Build a simplex whose vertex means are forced to the given values.
Simplex makeSimplex(const std::vector<Point>& pts, const std::vector<double>& means) {
  std::vector<std::unique_ptr<Vertex>> vs;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    auto v = std::make_unique<Vertex>(pts[i], i);
    stats::Welford samples;
    samples.add(means[i]);
    samples.add(means[i]);  // two identical samples: mean fixed, variance 0
    v->absorb(samples);
    vs.push_back(std::move(v));
  }
  return Simplex(std::move(vs));
}

TEST(SimplexTransforms, ReflectExpandContract) {
  const Point cent{1.0, 1.0};
  const Point worst{2.0, 0.0};
  const Point ref = core::reflectPoint(cent, worst);  // 2c - w
  EXPECT_EQ(ref, (Point{0.0, 2.0}));
  const Point exp = core::expandPoint(ref, cent);  // 2r - c
  EXPECT_EQ(exp, (Point{-1.0, 3.0}));
  const Point con = core::contractPoint(worst, cent);  // (w + c) / 2
  EXPECT_EQ(con, (Point{1.5, 0.5}));
}

TEST(SimplexTransforms, CoefficientsRespected) {
  const Point cent{0.0, 0.0};
  const Point worst{1.0, 0.0};
  // alpha = 0.5: ref = 1.5 c - 0.5 w.
  EXPECT_EQ(core::reflectPoint(cent, worst, 0.5), (Point{-0.5, 0.0}));
  // beta = 0.25: con = 0.25 w + 0.75 c.
  EXPECT_EQ(core::contractPoint(worst, cent, 0.25), (Point{0.25, 0.0}));
}

TEST(SimplexTransforms, ReflectionOfReflectionIsIdentity) {
  const Point cent{0.3, -1.2};
  const Point w{2.0, 0.7};
  const Point r = core::reflectPoint(cent, w);
  const Point rr = core::reflectPoint(cent, r);
  EXPECT_NEAR(rr[0], w[0], 1e-12);
  EXPECT_NEAR(rr[1], w[1], 1e-12);
}

TEST(Simplex, RequiresAtLeastThreeVertices) {
  std::vector<std::unique_ptr<Vertex>> vs;
  vs.push_back(std::make_unique<Vertex>(Point{0.0}, 0));
  vs.push_back(std::make_unique<Vertex>(Point{1.0}, 1));
  EXPECT_THROW(Simplex(std::move(vs)), std::invalid_argument);
}

TEST(Simplex, VertexDimensionMustMatch) {
  std::vector<std::unique_ptr<Vertex>> vs;
  vs.push_back(std::make_unique<Vertex>(Point{0.0, 0.0, 0.0}, 0));
  vs.push_back(std::make_unique<Vertex>(Point{1.0, 0.0, 0.0}, 1));
  vs.push_back(std::make_unique<Vertex>(Point{0.0, 1.0, 0.0}, 2));
  EXPECT_THROW(Simplex(std::move(vs)), std::invalid_argument);  // 3 verts => d=2 expected
}

TEST(Simplex, OrderingIdentifiesMaxSmaxMin) {
  auto s = makeSimplex({{0.0, 0.0}, {1.0, 0.0}, {0.0, 1.0}}, {5.0, 1.0, 3.0});
  const auto o = s.ordering();
  EXPECT_EQ(o.max, 0u);
  EXPECT_EQ(o.smax, 2u);
  EXPECT_EQ(o.min, 1u);
}

TEST(Simplex, OrderingWithMaxAtEnd) {
  auto s = makeSimplex({{0.0, 0.0}, {1.0, 0.0}, {0.0, 1.0}}, {1.0, 3.0, 7.0});
  const auto o = s.ordering();
  EXPECT_EQ(o.max, 2u);
  EXPECT_EQ(o.smax, 1u);
  EXPECT_EQ(o.min, 0u);
}

TEST(Simplex, CentroidExcluding) {
  auto s = makeSimplex({{0.0, 0.0}, {2.0, 0.0}, {0.0, 2.0}}, {9.0, 1.0, 1.0});
  EXPECT_EQ(s.centroidExcluding(0), (Point{1.0, 1.0}));
  EXPECT_EQ(s.centroidExcluding(1), (Point{0.0, 1.0}));
  EXPECT_THROW((void)s.centroidExcluding(3), std::out_of_range);
}

TEST(Simplex, ReplaceSwapsOwnership) {
  auto s = makeSimplex({{0.0, 0.0}, {1.0, 0.0}, {0.0, 1.0}}, {5.0, 1.0, 3.0});
  auto fresh = std::make_unique<Vertex>(Point{9.0, 9.0}, 99);
  auto old = s.replace(0, std::move(fresh));
  ASSERT_NE(old, nullptr);
  EXPECT_EQ(old->id(), 0u);
  EXPECT_EQ(s.at(0).id(), 99u);
  EXPECT_EQ(s.at(0).point(), (Point{9.0, 9.0}));
}

TEST(Simplex, ReplaceValidatesDimension) {
  auto s = makeSimplex({{0.0, 0.0}, {1.0, 0.0}, {0.0, 1.0}}, {5.0, 1.0, 3.0});
  EXPECT_THROW((void)s.replace(0, std::make_unique<Vertex>(Point{1.0}, 7)),
               std::invalid_argument);
  EXPECT_THROW((void)s.replace(0, nullptr), std::invalid_argument);
}

TEST(Simplex, CollapseTargetsHalveTowardMin) {
  auto s = makeSimplex({{0.0, 0.0}, {2.0, 0.0}, {0.0, 2.0}}, {5.0, 1.0, 3.0});
  const auto targets = s.collapseTargets(1);  // min at (2, 0)
  ASSERT_EQ(targets.size(), 2u);
  EXPECT_EQ(targets[0].first, 0u);
  EXPECT_EQ(targets[0].second, (Point{1.0, 0.0}));
  EXPECT_EQ(targets[1].first, 2u);
  EXPECT_EQ(targets[1].second, (Point{1.0, 1.0}));
}

TEST(Simplex, DiameterIsMaxPairwiseDistance) {
  auto s = makeSimplex({{0.0, 0.0}, {3.0, 4.0}, {0.0, 1.0}}, {1.0, 2.0, 3.0});
  EXPECT_DOUBLE_EQ(s.diameter(), 5.0);
}

TEST(Simplex, ValueSpreadAndMean) {
  auto s = makeSimplex({{0.0, 0.0}, {1.0, 0.0}, {0.0, 1.0}}, {5.0, 1.0, 3.0});
  EXPECT_DOUBLE_EQ(s.valueSpread(), 4.0);
  EXPECT_DOUBLE_EQ(s.meanValue(), 3.0);
}

TEST(Simplex, InternalVariance) {
  auto s = makeSimplex({{0.0, 0.0}, {1.0, 0.0}, {0.0, 1.0}}, {5.0, 1.0, 3.0});
  // gbar = 3; deviations 2, -2, 0 => mean square = 8/3.
  EXPECT_DOUBLE_EQ(s.internalVariance(), 8.0 / 3.0);
}

TEST(Simplex, ContractionLevelBookkeeping) {
  auto s = makeSimplex({{0.0, 0.0}, {1.0, 0.0}, {0.0, 1.0}}, {5.0, 1.0, 3.0});
  EXPECT_EQ(s.contractionLevel(), 0);
  s.noteContraction();
  EXPECT_EQ(s.contractionLevel(), 1);
  s.noteExpansion();
  EXPECT_EQ(s.contractionLevel(), 0);
  s.noteCollapse();  // d = 2
  EXPECT_EQ(s.contractionLevel(), 2);
}

TEST(Simplex, MaxSigmaOverVertices) {
  auto obj = sfopt::test::noisySphere(2, 1.0);
  core::SamplingContext ctx(obj);
  std::vector<std::unique_ptr<Vertex>> vs;
  vs.push_back(ctx.createVertex({0.0, 0.0}, 100));
  vs.push_back(ctx.createVertex({1.0, 0.0}, 4));
  vs.push_back(ctx.createVertex({0.0, 1.0}, 100));
  Simplex s(std::move(vs));
  // The least-sampled vertex dominates.
  EXPECT_NEAR(s.maxSigma(ctx), ctx.sigma(s.at(1)), 1e-12);
  EXPECT_GT(s.maxSigma(ctx), 0.0);
}

}  // namespace
