#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <vector>

#include "md/forces.hpp"
#include "md/neighbor_list.hpp"
#include "md/periodic_box.hpp"
#include "md/system.hpp"
#include "simd/dispatch.hpp"
#include "simd/force_kernel.hpp"
#include "simd/isa.hpp"

namespace {

using namespace sfopt;

struct IsaGuard {
  simd::Isa saved = simd::activeIsa();
  ~IsaGuard() { simd::setActiveIsa(saved); }
};

/// SoA site arrays plus a padded pair list, ready for forcePairBlock.
struct Block {
  std::vector<double> x, y, z, q, oxy;
  std::vector<std::int32_t> i, j;
  std::int64_t count = 0;

  void addSite(double sx, double sy, double sz, double charge, bool oxygen) {
    x.push_back(sx);
    y.push_back(sy);
    z.push_back(sz);
    q.push_back(charge);
    oxy.push_back(oxygen ? 1.0 : 0.0);
  }

  void addPair(std::int32_t a, std::int32_t b) {
    i.push_back(a);
    j.push_back(b);
    ++count;
  }

  void pad() {
    while (static_cast<std::int64_t>(i.size()) % simd::kForceLaneGroup != 0) {
      i.push_back(i.back());
      j.push_back(j.back());
    }
  }

  [[nodiscard]] simd::ForcePairBlockIn in() const {
    return {x.data(), y.data(), z.data(), q.data(), oxy.data(),
            i.data(), j.data(), count};
  }
};

struct Outputs {
  std::vector<double> dx, dy, dz, coulombE, coulombS, ljE, ljS;
  std::vector<std::uint8_t> within, coulombActive, ljActive;

  explicit Outputs(std::size_t padded)
      : dx(padded), dy(padded), dz(padded), coulombE(padded), coulombS(padded),
        ljE(padded), ljS(padded), within(padded), coulombActive(padded),
        ljActive(padded) {}

  [[nodiscard]] simd::ForcePairBlockOut out() {
    return {dx.data(), dy.data(), dz.data(), coulombE.data(), coulombS.data(),
            ljE.data(), ljS.data(), within.data(), coulombActive.data(),
            ljActive.data()};
  }
};

/// TIP4P-ish constants; the exact values only need to be shared between
/// the scalar and vector kernels under test.
simd::ForceConstants testConstants() {
  simd::ForceConstants c;
  c.boxEdge = 12.0;
  c.invBoxEdge = 1.0 / c.boxEdge;
  c.rc = 4.0;
  c.rc2 = c.rc * c.rc;
  c.invRc = 1.0 / c.rc;
  c.invRc2 = 1.0 / c.rc2;
  const double sigma = 3.15;
  const double eps = 0.155;
  c.s2 = sigma * sigma;
  c.eps4 = 4.0 * eps;
  c.eps24 = 24.0 * eps;
  const double inv2 = c.s2 / c.rc2;
  const double inv6 = inv2 * inv2 * inv2;
  const double inv12 = inv6 * inv6;
  c.ljErc = c.eps4 * (inv12 - inv6);
  c.ljFrc = c.eps24 * (2.0 * inv12 - inv6) / c.rc2 * c.rc;
  c.coulombScale = 332.06371;
  return c;
}

/// A block exercising the kernel's edge cases: zero-distance pair,
/// pairs straddling the cutoff by one ulp-ish margin, denormal offsets,
/// charge-free pairs and mixed species.
Block adversarialBlock(std::uint64_t seed, int pairs) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> pos(-6.0, 18.0);  // spans images
  std::bernoulli_distribution isOxy(0.4);
  Block b;
  for (int s = 0; s < 40; ++s) {
    const bool oxy = isOxy(rng);
    b.addSite(pos(rng), pos(rng), pos(rng), oxy ? -1.04 : 0.52, oxy);
  }
  // Edge-case sites appended at known indices.
  const auto base = static_cast<std::int32_t>(b.x.size());
  b.addSite(1.0, 1.0, 1.0, 0.52, false);                           // base
  b.addSite(1.0, 1.0, 1.0, -1.04, true);                           // base+1: zero distance
  b.addSite(1.0 + 4.0 - 1e-12, 1.0, 1.0, -1.04, true);             // base+2: just inside rc
  b.addSite(1.0 + 4.0 + 1e-12, 1.0, 1.0, -1.04, true);             // base+3: just outside rc
  b.addSite(1.0 + std::numeric_limits<double>::denorm_min(), 1.0, 1.0, -1.04,
            true);                                                 // base+4: denormal offset
  b.addSite(5.0, 5.0, 5.0, 0.0, true);                             // base+5: zero charge
  b.addPair(base, base + 1);
  b.addPair(base, base + 2);
  b.addPair(base, base + 3);
  b.addPair(base, base + 4);
  b.addPair(base + 1, base + 5);
  std::uniform_int_distribution<std::int32_t> site(0, base - 1);
  while (b.count < pairs) {
    const std::int32_t a = site(rng);
    std::int32_t c = site(rng);
    if (a == c) c = (c + 1) % base;
    b.addPair(a, c);
  }
  b.pad();
  return b;
}

/// Bit-pattern equality, so identically-computed NaNs compare equal.
void expectBitEqual(double a, double b, const char* what, std::int64_t k,
                    const char* isa) {
  std::uint64_t ba = 0;
  std::uint64_t bb = 0;
  std::memcpy(&ba, &a, sizeof ba);
  std::memcpy(&bb, &b, sizeof bb);
  EXPECT_EQ(ba, bb) << isa << " " << what << " pair " << k << " (" << a << " vs " << b
                    << ")";
}

void expectClose(double a, double b, const char* what, std::int64_t k) {
  if (std::isnan(a) || std::isnan(b)) {
    EXPECT_TRUE(std::isnan(a) && std::isnan(b)) << what << " pair " << k;
    return;
  }
  if (std::isinf(a) || std::isinf(b)) {
    EXPECT_EQ(a, b) << what << " pair " << k;
    return;
  }
  EXPECT_NEAR(a, b, 1e-12 * std::max(1.0, std::fabs(a))) << what << " pair " << k;
}

TEST(SimdForceKernel, EveryIsaAgreesWithScalarOnAdversarialPairs) {
  const auto c = testConstants();
  const Block b = adversarialBlock(99, 100);
  const std::size_t padded = b.i.size();

  IsaGuard guard;
  simd::setActiveIsa(simd::Isa::Scalar);
  Outputs ref(padded);
  simd::forcePairBlock(c, b.in(), ref.out());

  for (const simd::Isa isa : simd::supportedIsas()) {
    simd::setActiveIsa(isa);
    Outputs got(padded);
    simd::forcePairBlock(c, b.in(), got.out());
    for (std::int64_t k = 0; k < b.count; ++k) {
      const auto idx = static_cast<std::size_t>(k);
      EXPECT_EQ(got.within[idx], ref.within[idx]) << simd::isaName(isa) << " pair " << k;
      EXPECT_EQ(got.coulombActive[idx], ref.coulombActive[idx])
          << simd::isaName(isa) << " pair " << k;
      EXPECT_EQ(got.ljActive[idx], ref.ljActive[idx])
          << simd::isaName(isa) << " pair " << k;
      expectClose(got.dx[idx], ref.dx[idx], "dx", k);
      expectClose(got.dy[idx], ref.dy[idx], "dy", k);
      expectClose(got.dz[idx], ref.dz[idx], "dz", k);
      if (ref.coulombActive[idx] != 0) {
        expectClose(got.coulombE[idx], ref.coulombE[idx], "coulombE", k);
        expectClose(got.coulombS[idx], ref.coulombS[idx], "coulombS", k);
      }
      if (ref.ljActive[idx] != 0) {
        expectClose(got.ljE[idx], ref.ljE[idx], "ljE", k);
        expectClose(got.ljS[idx], ref.ljS[idx], "ljS", k);
      }
    }
  }
}

TEST(SimdForceKernel, PairOutputsDoNotDependOnLanePosition) {
  // Per-lane purity: the same pair must produce bitwise-identical outputs
  // no matter where it sits in a block.  This is what keeps all-pairs,
  // neighbor-list and per-block parallel enumerations bitwise consistent
  // within an ISA.
  const auto c = testConstants();
  IsaGuard guard;
  for (const simd::Isa isa : simd::supportedIsas()) {
    simd::setActiveIsa(isa);
    Block straight = adversarialBlock(7, 40);
    Outputs a(straight.i.size());
    simd::forcePairBlock(c, straight.in(), a.out());

    // Rebuild the same pair list rotated by a non-multiple of any lane
    // width, so every pair lands in a different lane and group.
    Block rotated = straight;
    rotated.i.assign(straight.i.begin(), straight.i.begin() + straight.count);
    rotated.j.assign(straight.j.begin(), straight.j.begin() + straight.count);
    std::rotate(rotated.i.begin(), rotated.i.begin() + 13, rotated.i.end());
    std::rotate(rotated.j.begin(), rotated.j.begin() + 13, rotated.j.end());
    rotated.pad();
    Outputs r(rotated.i.size());
    simd::forcePairBlock(c, rotated.in(), r.out());

    for (std::int64_t k = 0; k < straight.count; ++k) {
      const auto from = static_cast<std::size_t>((k + 13) % straight.count);
      const auto to = static_cast<std::size_t>(k);
      EXPECT_EQ(a.within[from], r.within[to]) << simd::isaName(isa);
      expectBitEqual(a.dx[from], r.dx[to], "dx", k, simd::isaName(isa));
      expectBitEqual(a.coulombE[from], r.coulombE[to], "coulombE", k, simd::isaName(isa));
      expectBitEqual(a.ljS[from], r.ljS[to], "ljS", k, simd::isaName(isa));
    }
  }
}

TEST(SimdForceKernel, EachIsaIsBitwiseReproducibleRunToRun) {
  const auto c = testConstants();
  const Block b = adversarialBlock(55, 80);
  IsaGuard guard;
  for (const simd::Isa isa : simd::supportedIsas()) {
    simd::setActiveIsa(isa);
    Outputs first(b.i.size());
    simd::forcePairBlock(c, b.in(), first.out());
    Outputs second(b.i.size());
    simd::forcePairBlock(c, b.in(), second.out());
    const auto bytes = static_cast<std::size_t>(b.count) * sizeof(double);
    EXPECT_EQ(std::memcmp(first.dx.data(), second.dx.data(), bytes), 0)
        << simd::isaName(isa);
    EXPECT_EQ(std::memcmp(first.coulombE.data(), second.coulombE.data(), bytes), 0)
        << simd::isaName(isa);
    EXPECT_EQ(std::memcmp(first.coulombS.data(), second.coulombS.data(), bytes), 0)
        << simd::isaName(isa);
    EXPECT_EQ(std::memcmp(first.ljE.data(), second.ljE.data(), bytes), 0)
        << simd::isaName(isa);
    EXPECT_EQ(std::memcmp(first.ljS.data(), second.ljS.data(), bytes), 0)
        << simd::isaName(isa);
  }
}

TEST(SimdForceKernel, FullForceEvaluationAgreesAcrossIsas) {
  // End to end through md::computeForces: the total decomposition of a
  // real water box must agree with the scalar path to 1e-12 relative
  // under every vector ISA, over both pair enumerations.
  IsaGuard guard;
  md::WaterSystem sys =
      md::buildWaterLattice(64, 0.997, 298.0, md::tip4pPublished(), 4.0, 3);
  md::NeighborList list(4.0, 1.0);
  list.rebuild(sys);

  simd::setActiveIsa(simd::Isa::Scalar);
  const auto refAll = md::computeForces(sys);
  const auto refList = md::computeForces(sys, list);
  const std::vector<md::Vec3> refForces = sys.forces;

  for (const simd::Isa isa : simd::supportedIsas()) {
    simd::setActiveIsa(isa);
    const auto all = md::computeForces(sys);
    EXPECT_EQ(all.pairsEvaluated, refAll.pairsEvaluated) << simd::isaName(isa);
    EXPECT_NEAR(all.potential, refAll.potential, 1e-12 * std::fabs(refAll.potential))
        << simd::isaName(isa);
    EXPECT_NEAR(all.coulomb, refAll.coulomb, 1e-12 * std::fabs(refAll.coulomb))
        << simd::isaName(isa);
    EXPECT_NEAR(all.lennardJones, refAll.lennardJones,
                1e-12 * std::fabs(refAll.lennardJones))
        << simd::isaName(isa);
    EXPECT_NEAR(all.virial, refAll.virial, 1e-12 * std::fabs(refAll.virial))
        << simd::isaName(isa);

    const auto viaList = md::computeForces(sys, list);
    EXPECT_NEAR(viaList.potential, refList.potential,
                1e-12 * std::fabs(refList.potential))
        << simd::isaName(isa);
    double maxForce = 0.0;
    for (const auto& f : refForces) {
      maxForce = std::max({maxForce, std::fabs(f.x), std::fabs(f.y), std::fabs(f.z)});
    }
    for (std::size_t s = 0; s < refForces.size(); ++s) {
      EXPECT_NEAR(sys.forces[s].x, refForces[s].x, 1e-12 * maxForce)
          << simd::isaName(isa) << " site " << s;
      EXPECT_NEAR(sys.forces[s].y, refForces[s].y, 1e-12 * maxForce)
          << simd::isaName(isa) << " site " << s;
      EXPECT_NEAR(sys.forces[s].z, refForces[s].z, 1e-12 * maxForce)
          << simd::isaName(isa) << " site " << s;
    }
  }
}

/// A block of `pairs` pairs in the testConstants() box (L = 12, rc = 4)
/// whose in-cutoff positions are exactly `inside`.  Each pair gets two
/// fresh sites: an inside pair sits 2.5 A apart, an outside one 5 A apart
/// (minimum image; both well away from rc), with the second site shifted
/// by whole box edges so the minimum image matters.  With `oxygenPairs`
/// every pair is O-O, without it every pair is O-H.
Block cutoffBlock(int pairs, const std::vector<int>& inside, bool oxygenPairs) {
  Block b;
  for (int p = 0; p < pairs; ++p) {
    const bool in = std::find(inside.begin(), inside.end(), p) != inside.end();
    const double ax = 0.5 + 0.03 * p;
    const double ay = 0.37 * p;
    const double az = -0.21 * p;
    const double image = 12.0 * static_cast<double>(p % 3 - 1);
    b.addSite(ax, ay, az, -1.04, true);
    b.addSite(ax + (in ? 2.5 : 5.0) + image, ay - image, az, oxygenPairs ? -1.04 : 0.52,
              oxygenPairs);
    b.addPair(2 * p, 2 * p + 1);
  }
  b.pad();
  return b;
}

/// Every ISA's active outputs are the scalar kernel's, bit for bit; so
/// are the displacements and flags of every pair.
void expectActiveOutputsMatchScalar(const Block& b, std::int64_t wantInside,
                                    std::int64_t wantLj) {
  const auto c = testConstants();
  IsaGuard guard;
  simd::setActiveIsa(simd::Isa::Scalar);
  Outputs ref(b.i.size());
  simd::forcePairBlock(c, b.in(), ref.out());
  std::int64_t inside = 0;
  std::int64_t lj = 0;
  for (std::int64_t k = 0; k < b.count; ++k) {
    inside += ref.within[static_cast<std::size_t>(k)];
    lj += ref.ljActive[static_cast<std::size_t>(k)];
  }
  ASSERT_EQ(inside, wantInside);
  ASSERT_EQ(lj, wantLj);

  for (const simd::Isa isa : simd::supportedIsas()) {
    simd::setActiveIsa(isa);
    Outputs got(b.i.size());
    simd::forcePairBlock(c, b.in(), got.out());
    const char* name = simd::isaName(isa);
    for (std::int64_t k = 0; k < b.count; ++k) {
      const auto idx = static_cast<std::size_t>(k);
      EXPECT_EQ(got.within[idx], ref.within[idx]) << name << " pair " << k;
      EXPECT_EQ(got.coulombActive[idx], ref.coulombActive[idx]) << name << " pair " << k;
      EXPECT_EQ(got.ljActive[idx], ref.ljActive[idx]) << name << " pair " << k;
      expectBitEqual(got.dx[idx], ref.dx[idx], "dx", k, name);
      expectBitEqual(got.dy[idx], ref.dy[idx], "dy", k, name);
      expectBitEqual(got.dz[idx], ref.dz[idx], "dz", k, name);
      if (ref.coulombActive[idx] != 0) {
        expectBitEqual(got.coulombE[idx], ref.coulombE[idx], "coulombE", k, name);
        expectBitEqual(got.coulombS[idx], ref.coulombS[idx], "coulombS", k, name);
      }
      if (ref.ljActive[idx] != 0) {
        expectBitEqual(got.ljE[idx], ref.ljE[idx], "ljE", k, name);
        expectBitEqual(got.ljS[idx], ref.ljS[idx], "ljS", k, name);
      }
    }
  }
}

TEST(SimdForceKernel, NoPairInsideTheCutoff) {
  expectActiveOutputsMatchScalar(cutoffBlock(13, {}, true), 0, 0);
}

TEST(SimdForceKernel, OnePairInsideTheCutoff) {
  expectActiveOutputsMatchScalar(cutoffBlock(13, {6}, true), 1, 1);
  expectActiveOutputsMatchScalar(cutoffBlock(13, {12}, true), 1, 1);  // in the tail group
}

TEST(SimdForceKernel, InsideCountNotAMultipleOfTheLaneWidth) {
  expectActiveOutputsMatchScalar(cutoffBlock(13, {0, 3, 4, 9, 11}, true), 5, 5);
  std::vector<int> inside;
  for (int p = 0; p < simd::kForceBlockPairs; p += 2) inside.push_back(p);
  inside.push_back(simd::kForceBlockPairs - 1);
  const auto insideCount = static_cast<std::int64_t>(inside.size());
  expectActiveOutputsMatchScalar(
      cutoffBlock(static_cast<int>(simd::kForceBlockPairs), inside, true), insideCount,
      insideCount);
}

TEST(SimdForceKernel, NoOxygenPairs) {
  expectActiveOutputsMatchScalar(cutoffBlock(21, {1, 2, 3, 7, 8, 15, 20}, false), 7, 0);
}

TEST(SimdForceKernel, PairDistancesMatchMinimumImageUnderEveryIsa) {
  // Unwrapped sites over several periodic images, plus separations whose
  // d / L is an exact rounding tie (L = 8, so 1/L is exact), zero, or past
  // 2^52 (already an integer).
  const md::PeriodicBox box(8.0);
  std::mt19937_64 rng(2026);
  std::uniform_real_distribution<double> pos(-30.0, 40.0);
  std::vector<md::Vec3> sites;
  for (int s = 0; s < 30; ++s) sites.push_back({pos(rng), pos(rng), pos(rng)});
  for (const double x : {0.0, 4.0, -4.0, 12.0, -12.0, 20.0, 1e20}) {
    sites.push_back({x, 2.0 * x, -x});
  }
  std::vector<double> x, y, z;
  for (const md::Vec3& p : sites) {
    x.push_back(p.x);
    y.push_back(p.y);
    z.push_back(p.z);
  }
  std::vector<std::int32_t> pi, pj;
  for (std::size_t a = 0; a < sites.size(); ++a) {
    for (std::size_t b = a + 1; b < sites.size(); ++b) {
      pi.push_back(static_cast<std::int32_t>(a));
      pj.push_back(static_cast<std::int32_t>(b));
    }
  }
  const auto count = static_cast<std::int64_t>(pi.size());
  while (pi.size() % simd::kForceLaneGroup != 0) {
    pi.push_back(pi.back());
    pj.push_back(pj.back());
  }
  const simd::PairDistanceIn in{.boxEdge = box.edge(),
                                .invBoxEdge = 1.0 / box.edge(),
                                .x = x.data(),
                                .y = y.data(),
                                .z = z.data(),
                                .i = pi.data(),
                                .j = pj.data(),
                                .count = count};
  IsaGuard guard;
  for (const simd::Isa isa : simd::supportedIsas()) {
    simd::setActiveIsa(isa);
    std::vector<double> r2(pi.size());
    simd::pairDistancesSquared(in, r2.data());
    for (std::int64_t k = 0; k < count; ++k) {
      const auto idx = static_cast<std::size_t>(k);
      const md::Vec3& a = sites[static_cast<std::size_t>(pi[idx])];
      const md::Vec3& b = sites[static_cast<std::size_t>(pj[idx])];
      const double want = md::normSquared(box.minimumImage(a, b));
      expectBitEqual(r2[idx], want, "r2", k, simd::isaName(isa));
    }
  }
}

}  // namespace
