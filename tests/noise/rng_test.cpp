#include "noise/rng.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

#include "noise/heteroscedastic_function.hpp"
#include "noise/noisy_function.hpp"
#include "stats/welford.hpp"
#include "testfunctions/functions.hpp"

namespace {

using sfopt::noise::CounterRng;
using sfopt::noise::RngStream;
using sfopt::noise::SampleKey;

TEST(CounterRng, DeterministicForSameKey) {
  CounterRng rng(123);
  const SampleKey k{7, 42};
  EXPECT_EQ(rng.bits(k), rng.bits(k));
  EXPECT_DOUBLE_EQ(rng.uniform(k), rng.uniform(k));
  EXPECT_DOUBLE_EQ(rng.gaussian(k), rng.gaussian(k));
}

TEST(CounterRng, DifferentKeysDiffer) {
  CounterRng rng(123);
  EXPECT_NE(rng.bits({0, 0}), rng.bits({0, 1}));
  EXPECT_NE(rng.bits({0, 0}), rng.bits({1, 0}));
  // stream/index are not interchangeable
  EXPECT_NE(rng.bits({3, 5}), rng.bits({5, 3}));
}

TEST(CounterRng, DifferentSeedsDiffer) {
  CounterRng a(1);
  CounterRng b(2);
  EXPECT_NE(a.bits({0, 0}), b.bits({0, 0}));
}

TEST(CounterRng, UniformInUnitInterval) {
  CounterRng rng(99);
  for (std::uint64_t i = 0; i < 10000; ++i) {
    const double u = rng.uniform({1, i});
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(CounterRng, UniformRangeRespected) {
  CounterRng rng(99);
  for (std::uint64_t i = 0; i < 1000; ++i) {
    const double u = rng.uniform({2, i}, -6.0, 3.0);
    EXPECT_GE(u, -6.0);
    EXPECT_LT(u, 3.0);
  }
}

TEST(CounterRng, UniformMeanIsHalf) {
  CounterRng rng(7);
  sfopt::stats::Welford w;
  for (std::uint64_t i = 0; i < 100000; ++i) w.add(rng.uniform({0, i}));
  EXPECT_NEAR(w.mean(), 0.5, 0.01);
  EXPECT_NEAR(w.variance(), 1.0 / 12.0, 0.01);
}

TEST(CounterRng, GaussianMomentsMatchStandardNormal) {
  CounterRng rng(11);
  sfopt::stats::Welford w;
  for (std::uint64_t i = 0; i < 100000; ++i) w.add(rng.gaussian({0, i}));
  EXPECT_NEAR(w.mean(), 0.0, 0.02);
  EXPECT_NEAR(w.variance(), 1.0, 0.03);
}

TEST(CounterRng, GaussianTailFractionReasonable) {
  // ~4.55% of standard normal draws lie beyond 2 sigma.
  CounterRng rng(17);
  int beyond = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (std::fabs(rng.gaussian({0, static_cast<std::uint64_t>(i)})) > 2.0) ++beyond;
  }
  const double frac = static_cast<double>(beyond) / n;
  EXPECT_NEAR(frac, 0.0455, 0.01);
}

// Golden values pin the noise stream itself: every bitwise-vs-solo
// guarantee (and every recorded trajectory) assumes these exact bits, so
// any change to the key hash or Box-Muller must show up here first.
struct GoldenDraw {
  SampleKey key;
  std::uint64_t bits0;
  std::uint64_t bits2;
  double uniform;
  double gaussian0;
  double gaussian2;
};

constexpr GoldenDraw kGolden[] = {
    {{0, 0}, 0x7e22e78fa6a306faULL, 0x9ca895847cd90faaULL, 0x1.f88b9e3e9a8cp-2,
     0x1.11038b23d6907p-1, -0x1.f54cc3f92897fp-1},
    {{7, 42}, 0xc72028c98bb9bedbULL, 0xdd1db08de4a1ee7eULL, 0x1.8e40519317737p-1,
     -0x1.17dddbfd5c367p-2, -0x1.871743a289bc9p-2},
    {{3, (1ULL << 32) + 5}, 0x637506d174cfbce6ULL, 0xb2d0884eef1e62d0ULL, 0x1.8dd41b45d33eep-2,
     -0x1.4ab48da33b622p+0, -0x1.c48a56c49c942p-2},
    {{(1ULL << 40) + 3, 9}, 0xc64782d15f83d236ULL, 0xcc3cd7bbdb8944eeULL, 0x1.8c8f05a2bf07ap-1,
     0x1.056741d30a8fap-2, 0x1.610e71f65e66fp-3},
};

TEST(CounterRng, GoldenStreamIsPinned) {
  const CounterRng rng(0x5f0b);
  for (const GoldenDraw& g : kGolden) {
    SCOPED_TRACE(testing::Message() << "key {" << g.key.stream << ", " << g.key.index << "}");
    EXPECT_EQ(rng.bits(g.key), g.bits0);
    EXPECT_EQ(rng.bits(g.key, 2), g.bits2);
    EXPECT_EQ(rng.uniform(g.key), g.uniform);
    EXPECT_EQ(rng.gaussian(g.key), g.gaussian0);
    EXPECT_EQ(rng.gaussian(g.key, 2), g.gaussian2);
  }
}

TEST(CounterRng, PrefixedDrawsMatchKeyedDraws) {
  const CounterRng rng(0x5f0b);
  for (const GoldenDraw& g : kGolden) {
    const std::uint64_t prefix = rng.streamPrefix(g.key.stream);
    EXPECT_EQ(sfopt::noise::bitsAt(prefix, g.key.index, 2), g.bits2);
    EXPECT_EQ(sfopt::noise::gaussianAt(prefix, g.key.index), g.gaussian0);
    EXPECT_EQ(sfopt::noise::gaussianAt(prefix, g.key.index, 2), g.gaussian2);
  }
}

// The objectives' noise formulas, pinned at keys where f and the
// per-sample scale are exact (sphere at dyadic points, scale 2).
constexpr SampleKey kObjectiveKeys[] = {{3, 0}, {3, 1}, {11, (1ULL << 32) + 7}};

TEST(NoisyFunction, GoldenSamplesArePinned) {
  sfopt::noise::NoisyFunction::Options o;
  o.sigma0 = 1.0;
  o.sampleDuration = 0.25;
  o.seed = 0x5f0b;
  const sfopt::noise::NoisyFunction f(
      2, [](std::span<const double> x) { return sfopt::testfunctions::sphere(x); }, o);
  const std::vector<double> x{0.5, -1.25};
  const double golden[] = {-0x1.8397124c18746p+1, 0x1.02827aae07f9bp+0, 0x1.f642a366aec44p+1};
  for (std::size_t i = 0; i < std::size(golden); ++i) {
    EXPECT_EQ(f.sample(x, kObjectiveKeys[i]), golden[i]) << "key " << i;
  }
}

TEST(HeteroscedasticFunction, GoldenSamplesArePinned) {
  const sfopt::noise::HeteroscedasticFunction f(
      2, [](std::span<const double> x) { return sfopt::testfunctions::sphere(x); },
      [](std::span<const double> x) { return 1.0 + std::abs(x[0]); });
  const std::vector<double> x{1.0, -0.5};
  const double golden[] = {0x1.aa4d5c40a18bbp+1, -0x1.0a13857df6d6ep+1, 0x1.a63ea72f93e9p-1};
  for (std::size_t i = 0; i < std::size(golden); ++i) {
    EXPECT_EQ(f.sample(x, kObjectiveKeys[i]), golden[i]) << "key " << i;
  }
}

TEST(RngStream, AdvancesAndIsReproducible) {
  RngStream a(5, 0);
  RngStream b(5, 0);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
  }
  // Consecutive draws differ (the counter advances).
  RngStream c(5, 0);
  EXPECT_NE(c.uniform(), c.uniform());
}

TEST(RngStream, DistinctStreamsAreIndependent) {
  RngStream a(5, 1);
  RngStream b(5, 2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.bits() == b.bits()) ++equal;
  }
  EXPECT_EQ(equal, 0);
}

TEST(RngStream, BelowStaysInRange) {
  RngStream a(9, 0);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 200; ++i) {
    const auto v = a.below(7);
    EXPECT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all residues hit in 200 draws
  EXPECT_EQ(a.below(0), 0u);
}

TEST(SplitMix, KnownGoodMixing) {
  // Adjacent inputs should produce wildly different outputs.
  const auto a = sfopt::noise::splitmix64(1);
  const auto b = sfopt::noise::splitmix64(2);
  int diffBits = 0;
  for (int i = 0; i < 64; ++i) {
    if (((a ^ b) >> i) & 1u) ++diffBits;
  }
  EXPECT_GT(diffBits, 16);
}

}  // namespace
