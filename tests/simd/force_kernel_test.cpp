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
#include "simd/kernels.hpp"

namespace {

using namespace sfopt;

struct IsaGuard {
  simd::Isa saved = simd::activeIsa();
  ~IsaGuard() { simd::setActiveIsa(saved); }
};

/// A position snapshot plus a padded pair table, ready for the kernels.
struct Table {
  std::vector<simd::SiteRow> xyz0;
  std::vector<bool> oxygen;
  std::vector<std::int32_t> i, j;
  std::vector<std::uint8_t> species;
  std::int64_t count = 0;

  void addSite(double sx, double sy, double sz, bool isOxygen) {
    xyz0.push_back({sx, sy, sz, 0.0});
    oxygen.push_back(isOxygen);
  }

  void addPair(std::int32_t a, std::int32_t b) {
    i.push_back(a);
    j.push_back(b);
    const auto code = (oxygen[static_cast<std::size_t>(a)] ? 0 : 2) +
                      (oxygen[static_cast<std::size_t>(b)] ? 0 : 1);
    species.push_back(static_cast<std::uint8_t>(code));
    ++count;
  }

  void pad() {
    while (static_cast<std::int64_t>(i.size()) % simd::kForceLaneGroup != 0) {
      i.push_back(i.back());
      j.push_back(j.back());
      species.push_back(species.back());
    }
  }

  [[nodiscard]] simd::PairSlice slice() const {
    return {i.data(), j.data(), species.data(), count};
  }
};

/// What pass 1 and the divide pass leave for the drain, in arrays sized
/// for `count` pairs.
struct Passes {
  std::vector<simd::SiteRow> d;
  std::vector<double> r2, qq;
  std::vector<std::int32_t> hit, coulomb, lj;
  std::vector<double> coulombE, coulombS, ljE, ljS;
  simd::detail::PackedPairs packed;

  // `packed` points into the vectors, which a move keeps and a copy would not.
  Passes(const Passes&) = delete;
  Passes(Passes&&) = default;

  explicit Passes(std::int64_t count) {
    const auto room = static_cast<std::size_t>(count + simd::kForceLaneGroup);
    d.resize(room);
    r2.resize(room);
    qq.resize(room);
    hit.resize(room);
    coulomb.resize(room);
    lj.resize(room);
    coulombE.resize(room);
    coulombS.resize(room);
    ljE.resize(room);
    ljS.resize(room);
    packed = {d.data(), r2.data(), qq.data(), hit.data(), coulomb.data(), lj.data()};
  }

  [[nodiscard]] simd::detail::PairTerms terms() {
    return {coulombE.data(), coulombS.data(), ljE.data(), ljS.data()};
  }

  /// Whether position k is in a packed list.
  [[nodiscard]] static bool listed(const std::vector<std::int32_t>& list, std::int64_t n,
                                   std::int64_t k) {
    return std::find(list.begin(), list.begin() + n, static_cast<std::int32_t>(k)) !=
           list.begin() + n;
  }
  [[nodiscard]] bool within(std::int64_t k) const { return listed(hit, packed.hits, k); }
  [[nodiscard]] bool coulombActive(std::int64_t k) const {
    return listed(coulomb, packed.coulombs, k);
  }
  [[nodiscard]] bool ljActive(std::int64_t k) const { return listed(lj, packed.ljs, k); }
};

/// Pass 1 and the divide pass of one ISA's kernels over a table.
Passes runPasses(simd::Isa isa, const simd::ForceConstants& c, const Table& t) {
  const simd::detail::KernelTable kernels = simd::detail::kernelsFor(isa);
  Passes p(t.count);
  kernels.pack(c, t.slice(), t.xyz0.data(), p.packed);
  kernels.terms(c, p.packed, p.terms());
  return p;
}

/// TIP4P-ish constants; the exact values only need to be shared between
/// the scalar and vector kernels under test.  The H-O charge product is
/// zero, so H-O pairs are never Coulomb-active while O-H pairs are.
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
  const double coulomb = 332.06371;
  const double qO = -1.04;
  const double qH = 0.52;
  c.qq[simd::kPairOO] = (coulomb * qO) * qO;
  c.qq[simd::kPairOH] = (coulomb * qO) * qH;
  c.qq[simd::kPairHO] = 0.0;
  c.qq[simd::kPairHH] = (coulomb * qH) * qH;
  return c;
}

/// A table exercising the kernel's edge cases: zero-distance pair, pairs
/// straddling the cutoff by one ulp-ish margin, denormal offsets,
/// charge-free (H-O) pairs and mixed species.
Table adversarialTable(std::uint64_t seed, int pairs) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> pos(-6.0, 18.0);  // spans images
  std::bernoulli_distribution isOxy(0.4);
  Table t;
  for (int s = 0; s < 40; ++s) t.addSite(pos(rng), pos(rng), pos(rng), isOxy(rng));
  // Edge-case sites appended at known indices.  Each edge pair is O-H, so
  // its Coulomb term is active.
  const auto base = static_cast<std::int32_t>(t.xyz0.size());
  t.addSite(1.0, 1.0, 1.0, false);                                   // base
  t.addSite(1.0, 1.0, 1.0, true);                                    // base+1: zero distance
  t.addSite(1.0 + 4.0 - 1e-12, 1.0, 1.0, true);                      // base+2: just inside rc
  t.addSite(1.0 + 4.0 + 1e-12, 1.0, 1.0, true);                      // base+3: just outside rc
  t.addSite(1.0 + std::numeric_limits<double>::denorm_min(), 1.0, 1.0,
            true);                                                   // base+4: denormal offset
  t.addSite(2.0, 1.0, 1.0, false);                                   // base+5: 1 A from base+1
  t.addPair(base + 1, base);
  t.addPair(base + 2, base);
  t.addPair(base + 3, base);
  t.addPair(base + 4, base);
  t.addPair(base + 5, base + 1);  // H-O: inside the cutoff, no charge product
  std::uniform_int_distribution<std::int32_t> site(0, base - 1);
  while (t.count < pairs) {
    const std::int32_t a = site(rng);
    std::int32_t b = site(rng);
    if (a == b) b = (b + 1) % base;
    t.addPair(a, b);
  }
  t.pad();
  return t;
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
  const Table t = adversarialTable(99, 100);
  const Passes ref = runPasses(simd::Isa::Scalar, c, t);

  for (const simd::Isa isa : simd::supportedIsas()) {
    const Passes got = runPasses(isa, c, t);
    ASSERT_EQ(got.packed.hits, ref.packed.hits) << simd::isaName(isa);
    ASSERT_EQ(got.packed.coulombs, ref.packed.coulombs) << simd::isaName(isa);
    ASSERT_EQ(got.packed.ljs, ref.packed.ljs) << simd::isaName(isa);
    for (std::int64_t k = 0; k < t.count; ++k) {
      const auto idx = static_cast<std::size_t>(k);
      EXPECT_EQ(got.within(k), ref.within(k)) << simd::isaName(isa) << " pair " << k;
      EXPECT_EQ(got.coulombActive(k), ref.coulombActive(k))
          << simd::isaName(isa) << " pair " << k;
      EXPECT_EQ(got.ljActive(k), ref.ljActive(k)) << simd::isaName(isa) << " pair " << k;
      expectClose(got.d[idx].x, ref.d[idx].x, "dx", k);
      expectClose(got.d[idx].y, ref.d[idx].y, "dy", k);
      expectClose(got.d[idx].z, ref.d[idx].z, "dz", k);
    }
    for (std::int64_t m = 0; m < ref.packed.coulombs; ++m) {
      const auto idx = static_cast<std::size_t>(m);
      const std::int64_t k = ref.coulomb[idx];
      expectClose(got.coulombE[idx], ref.coulombE[idx], "coulombE", k);
      expectClose(got.coulombS[idx], ref.coulombS[idx], "coulombS", k);
    }
    for (std::int64_t m = 0; m < ref.packed.ljs; ++m) {
      const auto idx = static_cast<std::size_t>(m);
      const std::int64_t k = ref.lj[idx];
      expectClose(got.ljE[idx], ref.ljE[idx], "ljE", k);
      expectClose(got.ljS[idx], ref.ljS[idx], "ljS", k);
    }
  }
  // The H-O pair at position 4 is inside the cutoff but has no charge
  // product: a hit, not Coulomb-active.
  EXPECT_TRUE(ref.within(4));
  EXPECT_FALSE(ref.coulombActive(4));
}

/// The per-pair outputs of position k: displacement, flags, and the
/// energy and scale of each active term (0 for an inactive one).
struct PairOutputs {
  double dx = 0.0;
  bool within = false;
  double coulombE = 0.0;
  double ljS = 0.0;
};

PairOutputs outputsOf(const Passes& p, std::int64_t k) {
  PairOutputs o;
  o.dx = p.d[static_cast<std::size_t>(k)].x;
  o.within = p.within(k);
  for (std::int64_t m = 0; m < p.packed.coulombs; ++m) {
    const auto idx = static_cast<std::size_t>(m);
    if (p.coulomb[idx] == k) o.coulombE = p.coulombE[idx];
  }
  for (std::int64_t m = 0; m < p.packed.ljs; ++m) {
    const auto idx = static_cast<std::size_t>(m);
    if (p.lj[idx] == k) o.ljS = p.ljS[idx];
  }
  return o;
}

TEST(SimdForceKernel, PairOutputsDoNotDependOnLanePosition) {
  // Per-lane purity: the same pair must produce bitwise-identical outputs
  // no matter where it sits in a slice.  This is what keeps the all-pairs
  // and neighbor-list enumerations bitwise consistent within an ISA.
  const auto c = testConstants();
  for (const simd::Isa isa : simd::supportedIsas()) {
    const Table straight = adversarialTable(7, 40);
    const Passes a = runPasses(isa, c, straight);

    // Rebuild the same pair list rotated by a non-multiple of any lane
    // width, so every pair lands in a different lane and group.
    Table rotated = straight;
    const auto n = static_cast<std::ptrdiff_t>(straight.count);
    rotated.i.assign(straight.i.begin(), straight.i.begin() + n);
    rotated.j.assign(straight.j.begin(), straight.j.begin() + n);
    rotated.species.assign(straight.species.begin(), straight.species.begin() + n);
    std::rotate(rotated.i.begin(), rotated.i.begin() + 13, rotated.i.end());
    std::rotate(rotated.j.begin(), rotated.j.begin() + 13, rotated.j.end());
    std::rotate(rotated.species.begin(), rotated.species.begin() + 13, rotated.species.end());
    rotated.pad();
    const Passes r = runPasses(isa, c, rotated);

    for (std::int64_t k = 0; k < straight.count; ++k) {
      const PairOutputs from = outputsOf(a, (k + 13) % straight.count);
      const PairOutputs to = outputsOf(r, k);
      EXPECT_EQ(from.within, to.within) << simd::isaName(isa);
      expectBitEqual(from.dx, to.dx, "dx", k, simd::isaName(isa));
      expectBitEqual(from.coulombE, to.coulombE, "coulombE", k, simd::isaName(isa));
      expectBitEqual(from.ljS, to.ljS, "ljS", k, simd::isaName(isa));
    }
  }
}

/// forcePairs over a table into fresh zero force rows.
struct Evaluation {
  std::vector<simd::SiteRow> force0;
  simd::ForceSums sums;
};

Evaluation evaluate(const simd::ForceConstants& c, const Table& t) {
  Evaluation e;
  e.force0.assign(t.xyz0.size(), simd::SiteRow{});
  simd::forcePairs(c, t.slice(), t.xyz0.data(), e.force0.data(), e.sums);
  return e;
}

void expectSameEvaluation(const Evaluation& got, const Evaluation& want, const char* isa) {
  expectBitEqual(got.sums.coulomb, want.sums.coulomb, "coulomb sum", 0, isa);
  expectBitEqual(got.sums.lennardJones, want.sums.lennardJones, "lj sum", 0, isa);
  expectBitEqual(got.sums.virial, want.sums.virial, "virial", 0, isa);
  ASSERT_EQ(got.force0.size(), want.force0.size());
  for (std::size_t s = 0; s < want.force0.size(); ++s) {
    const auto site = static_cast<std::int64_t>(s);
    expectBitEqual(got.force0[s].x, want.force0[s].x, "force x, site", site, isa);
    expectBitEqual(got.force0[s].y, want.force0[s].y, "force y, site", site, isa);
    expectBitEqual(got.force0[s].z, want.force0[s].z, "force z, site", site, isa);
  }
}

TEST(SimdForceKernel, EachIsaIsBitwiseReproducibleRunToRun) {
  const auto c = testConstants();
  Table t = adversarialTable(55, 80);
  IsaGuard guard;
  for (const simd::Isa isa : simd::supportedIsas()) {
    const Passes first = runPasses(isa, c, t);
    const Passes second = runPasses(isa, c, t);
    const auto bytes = [](std::int64_t n) { return static_cast<std::size_t>(n) * sizeof(double); };
    EXPECT_EQ(std::memcmp(first.d.data(), second.d.data(),
                          static_cast<std::size_t>(t.count) * sizeof(simd::SiteRow)),
              0)
        << simd::isaName(isa);
    EXPECT_EQ(std::memcmp(first.coulombE.data(), second.coulombE.data(),
                          bytes(first.packed.coulombs)),
              0)
        << simd::isaName(isa);
    EXPECT_EQ(std::memcmp(first.coulombS.data(), second.coulombS.data(),
                          bytes(first.packed.coulombs)),
              0)
        << simd::isaName(isa);
    EXPECT_EQ(std::memcmp(first.ljE.data(), second.ljE.data(), bytes(first.packed.ljs)), 0)
        << simd::isaName(isa);
    EXPECT_EQ(std::memcmp(first.ljS.data(), second.ljS.data(), bytes(first.packed.ljs)), 0)
        << simd::isaName(isa);
  }
  // The whole kernel too, over a table without the two zero-distance
  // pairs (their infinite forces would make the sums NaN).
  for (const std::size_t k : {0, 3}) {
    t.i[k] = t.i[1];
    t.j[k] = t.j[1];
    t.species[k] = t.species[1];
  }
  for (const simd::Isa isa : simd::supportedIsas()) {
    simd::setActiveIsa(isa);
    expectSameEvaluation(evaluate(c, t), evaluate(c, t), simd::isaName(isa));
  }
}

/// One evaluation's decomposition, virial and every force component equal
/// the reference's bit for bit.
void expectSameEvaluation(const md::ForceResult& got, const std::vector<md::Vec3>& gotForces,
                          const md::ForceResult& want, const std::vector<md::Vec3>& wantForces,
                          const char* isa) {
  EXPECT_EQ(got.pairsEvaluated, want.pairsEvaluated) << isa;
  expectBitEqual(got.potential, want.potential, "potential", 0, isa);
  expectBitEqual(got.coulomb, want.coulomb, "coulomb", 0, isa);
  expectBitEqual(got.lennardJones, want.lennardJones, "lennardJones", 0, isa);
  expectBitEqual(got.intramolecular, want.intramolecular, "intramolecular", 0, isa);
  expectBitEqual(got.virial, want.virial, "virial", 0, isa);
  ASSERT_EQ(gotForces.size(), wantForces.size()) << isa;
  for (std::size_t s = 0; s < wantForces.size(); ++s) {
    const auto site = static_cast<std::int64_t>(s);
    expectBitEqual(gotForces[s].x, wantForces[s].x, "force x, site", site, isa);
    expectBitEqual(gotForces[s].y, wantForces[s].y, "force y, site", site, isa);
    expectBitEqual(gotForces[s].z, wantForces[s].z, "force z, site", site, isa);
  }
}

TEST(SimdForceKernel, FullForceEvaluationAgreesAcrossIsas) {
  // End to end through md::computeForces: every ISA runs the same IEEE ops
  // per pair and per sum, so a real water box's energy decomposition,
  // virial and every force component equal the scalar path's bit for bit,
  // over both pair enumerations.
  IsaGuard guard;
  md::WaterSystem sys =
      md::buildWaterLattice(64, 0.997, 298.0, md::tip4pPublished(), 4.0, 3);
  md::NeighborList list(4.0, 1.0);
  list.rebuild(sys);

  simd::setActiveIsa(simd::Isa::Scalar);
  const auto refAll = md::computeForces(sys);
  const std::vector<md::Vec3> refAllForces = sys.forces;
  const auto refList = md::computeForces(sys, list);
  const std::vector<md::Vec3> refListForces = sys.forces;

  for (const simd::Isa isa : simd::supportedIsas()) {
    simd::setActiveIsa(isa);
    const auto all = md::computeForces(sys);
    expectSameEvaluation(all, sys.forces, refAll, refAllForces, simd::isaName(isa));
    const auto viaList = md::computeForces(sys, list);
    expectSameEvaluation(viaList, sys.forces, refList, refListForces, simd::isaName(isa));
  }
}

TEST(SimdForceKernel, OneDispatchPerEvaluation) {
  // simd.dispatch.force_blocks counts forcePairs calls: one per nonbonded
  // evaluation, however many kForceBlockPairs blocks its table spans.
  md::WaterSystem sys =
      md::buildWaterLattice(64, 0.997, 298.0, md::tip4pPublished(), 4.0, 3);
  md::ForceScratch scratch;
  const auto before = simd::dispatchCounts();
  const auto result = md::computeForces(sys, scratch);
  const auto after = simd::dispatchCounts();
  EXPECT_GT(result.pairsEvaluated, 2 * simd::kForceBlockPairs);
  EXPECT_EQ(after.forceBlocks, before.forceBlocks + 1);
}

/// A table of `pairs` pairs in the testConstants() box (L = 12, rc = 4)
/// whose in-cutoff positions are exactly `inside`.  Each pair gets two
/// fresh sites: an inside pair sits 2.5 A apart, an outside one 5 A apart
/// (minimum image; both well away from rc), with the second site shifted
/// by whole box edges so the minimum image matters.  With `oxygenPairs`
/// every pair is O-O, without it every pair is O-H.
Table cutoffTable(int pairs, const std::vector<int>& inside, bool oxygenPairs) {
  Table t;
  for (int p = 0; p < pairs; ++p) {
    const bool in = std::find(inside.begin(), inside.end(), p) != inside.end();
    const double ax = 0.5 + 0.03 * p;
    const double ay = 0.37 * p;
    const double az = -0.21 * p;
    const double image = 12.0 * static_cast<double>(p % 3 - 1);
    t.addSite(ax, ay, az, true);
    t.addSite(ax + (in ? 2.5 : 5.0) + image, ay - image, az, oxygenPairs);
    t.addPair(2 * p, 2 * p + 1);
  }
  t.pad();
  return t;
}

/// Every ISA's active outputs are the scalar kernel's, bit for bit; so
/// are the displacements and flags of every pair.
void expectActiveOutputsMatchScalar(const Table& t, std::int64_t wantInside,
                                    std::int64_t wantLj) {
  const auto c = testConstants();
  const Passes ref = runPasses(simd::Isa::Scalar, c, t);
  ASSERT_EQ(ref.packed.hits, wantInside);
  ASSERT_EQ(ref.packed.ljs, wantLj);

  for (const simd::Isa isa : simd::supportedIsas()) {
    const Passes got = runPasses(isa, c, t);
    const char* name = simd::isaName(isa);
    for (std::int64_t k = 0; k < t.count; ++k) {
      const auto idx = static_cast<std::size_t>(k);
      EXPECT_EQ(got.within(k), ref.within(k)) << name << " pair " << k;
      EXPECT_EQ(got.coulombActive(k), ref.coulombActive(k)) << name << " pair " << k;
      EXPECT_EQ(got.ljActive(k), ref.ljActive(k)) << name << " pair " << k;
      expectBitEqual(got.d[idx].x, ref.d[idx].x, "dx", k, name);
      expectBitEqual(got.d[idx].y, ref.d[idx].y, "dy", k, name);
      expectBitEqual(got.d[idx].z, ref.d[idx].z, "dz", k, name);
    }
    ASSERT_EQ(got.packed.coulombs, ref.packed.coulombs) << name;
    ASSERT_EQ(got.packed.ljs, ref.packed.ljs) << name;
    for (std::int64_t m = 0; m < ref.packed.coulombs; ++m) {
      const auto idx = static_cast<std::size_t>(m);
      expectBitEqual(got.coulombE[idx], ref.coulombE[idx], "coulombE", ref.coulomb[idx], name);
      expectBitEqual(got.coulombS[idx], ref.coulombS[idx], "coulombS", ref.coulomb[idx], name);
    }
    for (std::int64_t m = 0; m < ref.packed.ljs; ++m) {
      const auto idx = static_cast<std::size_t>(m);
      expectBitEqual(got.ljE[idx], ref.ljE[idx], "ljE", ref.lj[idx], name);
      expectBitEqual(got.ljS[idx], ref.ljS[idx], "ljS", ref.lj[idx], name);
    }
  }
}

TEST(SimdForceKernel, NoPairInsideTheCutoff) {
  expectActiveOutputsMatchScalar(cutoffTable(13, {}, true), 0, 0);
}

TEST(SimdForceKernel, OnePairInsideTheCutoff) {
  expectActiveOutputsMatchScalar(cutoffTable(13, {6}, true), 1, 1);
  expectActiveOutputsMatchScalar(cutoffTable(13, {12}, true), 1, 1);  // in the tail group
}

TEST(SimdForceKernel, InsideCountNotAMultipleOfTheLaneWidth) {
  expectActiveOutputsMatchScalar(cutoffTable(13, {0, 3, 4, 9, 11}, true), 5, 5);
  std::vector<int> inside;
  for (int p = 0; p < simd::kForceBlockPairs; p += 2) inside.push_back(p);
  inside.push_back(simd::kForceBlockPairs - 1);
  const auto insideCount = static_cast<std::int64_t>(inside.size());
  expectActiveOutputsMatchScalar(
      cutoffTable(static_cast<int>(simd::kForceBlockPairs), inside, true), insideCount,
      insideCount);
}

TEST(SimdForceKernel, NoOxygenPairs) {
  expectActiveOutputsMatchScalar(cutoffTable(21, {1, 2, 3, 7, 8, 15, 20}, false), 7, 0);
}

TEST(SimdForceKernel, PackMatchesScalarReferenceUnderEveryIsa) {
  // Pass 1's packed lists against a plain reference: a hit is r^2 < rc^2
  // with r^2 from PeriodicBox::minimumImage, Coulomb-active a hit whose
  // species has a nonzero charge product, LJ-active an O-O hit.  Counts
  // around the lane widths and the block size; every pattern of hits.
  const auto c = testConstants();
  const md::PeriodicBox box(c.boxEdge);
  for (const int count : {0, 1, 3, 4, 5, 255, 256, 257, 481}) {
    for (const int pattern : {0, 1, 2}) {  // all in, none in, alternating
      Table t;
      for (int p = 0; p < count; ++p) {
        const bool in = pattern == 0 || (pattern == 2 && p % 2 == 0);
        const double ax = 0.5 + 0.03 * p;
        const double image = 12.0 * static_cast<double>(p % 3 - 1);
        // The species codes cycle O-O, O-H, H-O, H-H.
        t.addSite(ax, 0.37 * p, -0.21 * p, p % 4 < 2);
        t.addSite(ax + (in ? 2.5 : 5.0) + image, 0.37 * p - image, -0.21 * p, p % 2 == 0);
        t.addPair(2 * p, 2 * p + 1);
      }
      if (count > 0) t.pad();
      std::vector<std::int32_t> hit, coulomb, lj;
      for (std::int64_t k = 0; k < t.count; ++k) {
        const auto idx = static_cast<std::size_t>(k);
        const simd::SiteRow& a = t.xyz0[static_cast<std::size_t>(t.i[idx])];
        const simd::SiteRow& b = t.xyz0[static_cast<std::size_t>(t.j[idx])];
        const double r2 = md::normSquared(box.minimumImage({a.x, a.y, a.z}, {b.x, b.y, b.z}));
        if (!(r2 < c.rc2)) continue;
        hit.push_back(static_cast<std::int32_t>(k));
        if (c.qq[t.species[idx]] != 0.0) coulomb.push_back(static_cast<std::int32_t>(k));
        if (t.species[idx] == simd::kPairOO) lj.push_back(static_cast<std::int32_t>(k));
      }
      ASSERT_EQ(static_cast<int>(hit.size()), pattern == 0 ? count
                                              : pattern == 1 ? 0
                                                             : (count + 1) / 2);

      for (const simd::Isa isa : simd::supportedIsas()) {
        const Passes got = runPasses(isa, c, t);
        const auto expectList = [&](const std::vector<std::int32_t>& gotList, std::int64_t n,
                                    const std::vector<std::int32_t>& want, const char* what) {
          ASSERT_EQ(n, static_cast<std::int64_t>(want.size()))
              << simd::isaName(isa) << " " << what << " count " << count << " pattern "
              << pattern;
          for (std::size_t m = 0; m < want.size(); ++m) {
            EXPECT_EQ(gotList[m], want[m]) << simd::isaName(isa) << " " << what << " entry "
                                           << m << " count " << count;
          }
          // Padded with the last entry up to a whole lane group.
          for (std::size_t m = want.size();
               !want.empty() && m % static_cast<std::size_t>(simd::kForceLaneGroup) != 0; ++m) {
            EXPECT_EQ(gotList[m], want.back()) << simd::isaName(isa) << " " << what
                                               << " padding " << m << " count " << count;
          }
        };
        expectList(got.hit, got.packed.hits, hit, "hit");
        expectList(got.coulomb, got.packed.coulombs, coulomb, "coulomb");
        expectList(got.lj, got.packed.ljs, lj, "lj");
      }
    }
  }
}

/// Sites in a 2.3 A cube (every pair within the 4 A cutoff), one in three
/// an oxygen.
Table clusteredSites(int sites, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> pos(0.0, 2.3);
  Table t;
  for (int s = 0; s < sites; ++s) t.addSite(pos(rng), pos(rng), pos(rng), s % 3 == 0);
  return t;
}

/// The same pairs evaluated one pair per call: every pair's force on i is
/// loaded and stored on its own, the per-pair drain.
Evaluation evaluatePairByPair(const simd::ForceConstants& c, const Table& t) {
  Evaluation e;
  e.force0.assign(t.xyz0.size(), simd::SiteRow{});
  for (std::int64_t k = 0; k < t.count; ++k) {
    const auto idx = static_cast<std::size_t>(k);
    std::vector<std::int32_t> i(simd::kForceLaneGroup, t.i[idx]);
    std::vector<std::int32_t> j(simd::kForceLaneGroup, t.j[idx]);
    std::vector<std::uint8_t> species(simd::kForceLaneGroup, t.species[idx]);
    simd::forcePairs(c, {i.data(), j.data(), species.data(), 1}, t.xyz0.data(),
                     e.force0.data(), e.sums);
  }
  return e;
}

TEST(SimdForceKernel, RegisterHeldDrainEqualsPerPairDrain) {
  const auto c = testConstants();
  // Runs of length 1: every pair has its own first site.
  Table single = clusteredSites(120, 3);
  for (int p = 0; p < 59; ++p) single.addPair(p, p + 60);
  single.pad();
  // Long runs: site 0 against 299 others (a run across the block
  // boundary), then shorter runs, then runs of 1.
  Table runs = clusteredSites(300, 4);
  for (int j = 1; j < 300; ++j) runs.addPair(0, j);
  for (int i = 1; i < 8; ++i) {
    for (int j = i + 1; j < i + 40; ++j) runs.addPair(i, j);
  }
  for (int i = 8; i < 20; ++i) runs.addPair(i, 299);
  runs.pad();

  IsaGuard guard;
  for (const Table* t : {&single, &runs}) {
    simd::setActiveIsa(simd::Isa::Scalar);
    const Evaluation scalar = evaluate(c, *t);
    double forceSum = 0.0;
    for (const simd::SiteRow& f : scalar.force0) forceSum += std::fabs(f.x);
    ASSERT_GT(forceSum, 0.0);
    ASSERT_NE(scalar.sums.lennardJones, 0.0);
    for (const simd::Isa isa : simd::supportedIsas()) {
      simd::setActiveIsa(isa);
      const Evaluation held = evaluate(c, *t);
      expectSameEvaluation(held, evaluatePairByPair(c, *t), simd::isaName(isa));
      expectSameEvaluation(held, scalar, simd::isaName(isa));
    }
  }
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
  std::vector<simd::SiteRow> xyz0;
  for (const md::Vec3& p : sites) xyz0.push_back({p.x, p.y, p.z, 0.0});
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
                                .xyz0 = xyz0.data(),
                                .pairs = {pi.data(), pj.data(), nullptr, count}};
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
