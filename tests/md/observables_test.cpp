#include "md/observables.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <vector>

#include "md/system.hpp"
#include "noise/rng.hpp"
#include "simd/isa.hpp"

namespace {

using namespace sfopt::md;

TEST(RdfAccumulator, ValidatesConstruction) {
  EXPECT_THROW(RdfAccumulator(0.0, 10), std::invalid_argument);
  EXPECT_THROW(RdfAccumulator(5.0, 0), std::invalid_argument);
}

TEST(RdfAccumulator, CurveWithoutFramesThrows) {
  auto sys = buildWaterLattice(8, 0.997, 298.0, tip4pPublished(), 3.0, 1);
  RdfAccumulator rdf(3.5, 10);
  EXPECT_THROW((void)rdf.curve(PairKind::OO, sys), std::logic_error);
}

TEST(RdfAccumulator, UniformGasApproachesUnity) {
  // Scatter "molecules" uniformly at random (overlaps allowed): the OO
  // g(r) must be ~1 across r, the defining normalization property.
  const int molecules = 125;
  const double density = 0.997;
  auto sys = buildWaterLattice(molecules, density, 298.0, tip4pPublished(), 5.0, 2);
  sfopt::noise::RngStream rng(99, 0);
  const double L = sys.box().edge();
  for (int m = 0; m < molecules; ++m) {
    const Vec3 c{rng.uniform(0.0, L), rng.uniform(0.0, L), rng.uniform(0.0, L)};
    const auto base = static_cast<std::size_t>(3 * m);
    const Vec3 offset1 = sys.positions[base + 1] - sys.positions[base];
    const Vec3 offset2 = sys.positions[base + 2] - sys.positions[base];
    sys.positions[base] = c;
    sys.positions[base + 1] = c + offset1;
    sys.positions[base + 2] = c + offset2;
  }
  RdfAccumulator rdf(5.0, 25);
  rdf.addFrame(sys);
  const auto curve = rdf.curve(PairKind::OO, sys);
  ASSERT_EQ(curve.g.size(), 25u);
  // Average of g over bins past the first few (tiny shells are noisy).
  double avg = 0.0;
  int used = 0;
  for (std::size_t b = 5; b < curve.g.size(); ++b) {
    avg += curve.g[b];
    ++used;
  }
  avg /= used;
  EXPECT_NEAR(avg, 1.0, 0.15);
}

TEST(RdfAccumulator, ExcludesIntramolecularPairs) {
  // A single frame of the equilibrium lattice: the OH histogram must have
  // no weight at the bond length if only intermolecular pairs are counted
  // (the lattice spacing keeps other molecules away).
  auto sys = buildWaterLattice(27, 0.997, 298.0, tip4pPublished(), 4.0, 3);
  RdfAccumulator rdf(1.2, 12);  // up to 1.2 A: only bonds could land here
  rdf.addFrame(sys);
  const auto curve = rdf.curve(PairKind::OH, sys);
  for (double g : curve.g) EXPECT_EQ(g, 0.0);
}

TEST(RdfAccumulator, FramesAccumulate) {
  auto sys = buildWaterLattice(8, 0.997, 298.0, tip4pPublished(), 3.0, 4);
  RdfAccumulator rdf(3.5, 10);
  rdf.addFrame(sys);
  rdf.addFrame(sys);
  EXPECT_EQ(rdf.frames(), 2);
  // Identical frames: curve equals the single-frame curve.
  RdfAccumulator one(3.5, 10);
  one.addFrame(sys);
  const auto c2 = rdf.curve(PairKind::OO, sys);
  const auto c1 = one.curve(PairKind::OO, sys);
  for (std::size_t b = 0; b < c1.g.size(); ++b) EXPECT_NEAR(c2.g[b], c1.g[b], 1e-12);
}

TEST(MsdAccumulator, BallisticMotionRecoversDiffusion) {
  // Give every molecule the same speed v in random directions; MSD grows
  // as v^2 t^2 — not linear — so instead test a synthetic random walk:
  // move each O by a fresh Gaussian step of variance 2 D dt per axis.
  auto sys = buildWaterLattice(64, 0.997, 298.0, tip4pPublished(), 5.0, 5);
  MsdAccumulator msd(sys);
  sfopt::noise::RngStream rng(7, 1);
  const double dt = 0.1;           // ps
  const double dTarget = 0.5;      // A^2/ps
  const double stepSigma = std::sqrt(2.0 * dTarget * dt);
  for (int frame = 1; frame <= 200; ++frame) {
    for (int m = 0; m < sys.molecules(); ++m) {
      auto& o = sys.positions[static_cast<std::size_t>(3 * m)];
      o += Vec3{stepSigma * rng.gaussian(), stepSigma * rng.gaussian(),
                stepSigma * rng.gaussian()};
    }
    msd.addFrame(sys, frame * dt);
  }
  // Slope/6 in A^2/ps -> cm^2/s via 1e-4.
  EXPECT_NEAR(msd.diffusionCm2PerS(), dTarget * 1e-4, dTarget * 1e-4 * 0.25);
}

TEST(MsdAccumulator, NeedsTwoFrames) {
  auto sys = buildWaterLattice(8, 0.997, 298.0, tip4pPublished(), 3.0, 6);
  MsdAccumulator msd(sys);
  EXPECT_THROW((void)msd.diffusionCm2PerS(), std::logic_error);
  msd.addFrame(sys, 0.1);
  EXPECT_THROW((void)msd.diffusionCm2PerS(), std::logic_error);
  msd.addFrame(sys, 0.2);
  EXPECT_NEAR(msd.diffusionCm2PerS(), 0.0, 1e-12);  // nothing moved
}

TEST(RdfResidual, ZeroForIdenticalCurves) {
  RdfCurve a;
  for (int i = 0; i < 20; ++i) {
    a.r.push_back(0.1 * i);
    a.g.push_back(1.0 + std::sin(i));
  }
  EXPECT_DOUBLE_EQ(rdfResidual(a, a, 0.0, 2.0), 0.0);
}

TEST(RdfResidual, ConstantOffsetRecovered) {
  RdfCurve a;
  RdfCurve b;
  for (int i = 0; i < 20; ++i) {
    a.r.push_back(0.1 * i);
    a.g.push_back(1.0);
    b.r.push_back(0.1 * i);
    b.g.push_back(1.5);
  }
  EXPECT_NEAR(rdfResidual(a, b, 0.0, 2.0), 0.5, 1e-12);
}

TEST(RdfResidual, RangeValidation) {
  RdfCurve a;
  a.r = {0.0, 1.0};
  a.g = {1.0, 1.0};
  EXPECT_THROW((void)rdfResidual(a, a, 2.0, 1.0), std::invalid_argument);
}

TEST(RdfResidual, WindowRestrictsComparison) {
  RdfCurve a;
  RdfCurve b;
  for (int i = 0; i < 20; ++i) {
    const double r = 0.1 * i;
    a.r.push_back(r);
    b.r.push_back(r);
    a.g.push_back(1.0);
    b.g.push_back(r < 1.0 ? 1.0 : 3.0);  // differ only beyond r = 1
  }
  EXPECT_NEAR(rdfResidual(a, b, 0.0, 0.9), 0.0, 1e-12);
  EXPECT_GT(rdfResidual(a, b, 1.1, 1.9), 1.0);
}

TEST(RdfAccumulator, HistogramsMatchAllPairsScanUnderEveryIsa) {
  // Unwrapped sites scattered over several periodic images: every ISA's
  // distance kernel must bin exactly what the per-pair minimum-image scan
  // bins, pair kind by pair kind, over two different frames.
  auto sys = buildWaterLattice(27, 0.997, 298.0, tip4pPublished(), 4.5, 5);
  const double L = sys.box().edge();
  const double rMax = 4.5;
  const int bins = 45;
  sfopt::noise::RngStream rng(7, 0);
  std::vector<std::vector<Vec3>> frames;
  for (int f = 0; f < 2; ++f) {
    for (auto& p : sys.positions) {
      p = Vec3{rng.uniform(-2.0 * L, 3.0 * L), rng.uniform(-2.0 * L, 3.0 * L),
               rng.uniform(-2.0 * L, 3.0 * L)};
    }
    frames.push_back(sys.positions);
  }

  std::array<std::vector<std::uint64_t>, 3> want;
  for (auto& h : want) h.assign(bins, 0);
  const double dr = rMax / bins;
  for (const auto& frame : frames) {
    for (int i = 0; i < sys.sites(); ++i) {
      for (int j = i + 1; j < sys.sites(); ++j) {
        if (sys.moleculeOf(i) == sys.moleculeOf(j)) continue;
        const double r = norm(sys.box().minimumImage(frame[static_cast<std::size_t>(i)],
                                                     frame[static_cast<std::size_t>(j)]));
        if (r >= rMax) continue;
        const bool iO = sys.speciesOf(i) == Species::Oxygen;
        const bool jO = sys.speciesOf(j) == Species::Oxygen;
        const PairKind kind = iO && jO ? PairKind::OO : (iO != jO ? PairKind::OH : PairKind::HH);
        ++want[static_cast<std::size_t>(kind)][static_cast<std::size_t>(r / dr)];
      }
    }
  }

  const sfopt::simd::Isa saved = sfopt::simd::activeIsa();
  for (const sfopt::simd::Isa isa : sfopt::simd::supportedIsas()) {
    sfopt::simd::setActiveIsa(isa);
    RdfAccumulator rdf(rMax, bins);
    for (const auto& frame : frames) {
      sys.positions = frame;
      rdf.addFrame(sys);
    }
    for (const PairKind kind : {PairKind::OO, PairKind::OH, PairKind::HH}) {
      const auto got = rdf.histogram(kind);
      const auto& expected = want[static_cast<std::size_t>(kind)];
      EXPECT_EQ(std::vector<std::uint64_t>(got.begin(), got.end()), expected)
          << sfopt::simd::isaName(isa) << " kind " << static_cast<int>(kind);
    }
  }
  sfopt::simd::setActiveIsa(saved);
}

}  // namespace
