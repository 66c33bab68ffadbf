#include "core/vertex.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "stats/welford.hpp"

namespace {

using sfopt::core::Vertex;

/// `v` absorbs `samples` as one batch, in order.
void absorbAll(Vertex& v, const std::vector<double>& samples) {
  sfopt::stats::Welford batch;
  for (const double y : samples) batch.add(y);
  v.absorb(batch);
}

TEST(Vertex, HoldsPointAndId) {
  Vertex v({1.0, 2.0}, 42);
  EXPECT_EQ(v.id(), 42u);
  EXPECT_EQ(v.point(), (sfopt::core::Point{1.0, 2.0}));
  EXPECT_EQ(v.sampleCount(), 0);
}

TEST(Vertex, AbsorbUpdatesEstimate) {
  Vertex v({0.0, 0.0}, 0);
  absorbAll(v, {2.0, 4.0});
  EXPECT_EQ(v.sampleCount(), 2);
  EXPECT_DOUBLE_EQ(v.mean(), 3.0);
  EXPECT_DOUBLE_EQ(v.estimatedSigma(), std::sqrt(2.0 / 2.0));
}

TEST(Vertex, TotalTimeScalesWithDuration) {
  Vertex v({0.0, 0.0}, 0);
  absorbAll(v, {1.0, 1.0, 1.0});
  EXPECT_DOUBLE_EQ(v.totalTime(2.0), 6.0);
  EXPECT_DOUBLE_EQ(v.totalTime(0.5), 1.5);
}

TEST(Vertex, ExactSigmaFollowsDecayLaw) {
  Vertex v({0.0, 0.0}, 0);
  EXPECT_TRUE(std::isinf(v.exactSigma(10.0, 1.0)));
  absorbAll(v, std::vector<double>(4, 0.0));
  // t = 4, sigma = sigma0 / sqrt(4) = sigma0 / 2.
  EXPECT_DOUBLE_EQ(v.exactSigma(10.0, 1.0), 5.0);
  absorbAll(v, std::vector<double>(12, 0.0));
  // t = 16.
  EXPECT_DOUBLE_EQ(v.exactSigma(10.0, 1.0), 2.5);
}

TEST(Vertex, AbsorbWelfordBatch) {
  Vertex v({0.0}, 1);
  absorbAll(v, {1.0});
  sfopt::stats::Welford partial;
  partial.add(3.0);
  partial.add(5.0);
  v.absorb(partial);
  EXPECT_EQ(v.sampleCount(), 3);
  EXPECT_DOUBLE_EQ(v.mean(), 3.0);
}

TEST(Vertex, SigmaInfiniteUntilTwoSamples) {
  Vertex v({0.0}, 1);
  absorbAll(v, {1.0});
  EXPECT_TRUE(std::isinf(v.estimatedSigma()));
  absorbAll(v, {2.0});
  EXPECT_FALSE(std::isinf(v.estimatedSigma()));
}

}  // namespace
