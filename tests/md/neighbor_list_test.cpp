#include "md/neighbor_list.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>

#include "md/forces.hpp"
#include "md/integrator.hpp"
#include "md/intermolecular_pairs.hpp"
#include "md/system.hpp"
#include "simd/force_kernel.hpp"

namespace {

using namespace sfopt::md;

WaterSystem mediumSystem(std::uint64_t seed = 3) {
  // 64 waters: box ~12.4 A, cutoff 4.0 + skin 1.0 fits under half edge.
  return buildWaterLattice(64, 0.997, 298.0, tip4pPublished(), 4.0, seed);
}

TEST(NeighborList, Validation) {
  EXPECT_THROW(NeighborList(0.0, 1.0), std::invalid_argument);
  EXPECT_THROW(NeighborList(4.0, 0.0), std::invalid_argument);
  auto sys = buildWaterLattice(8, 0.997, 298.0, tip4pPublished(), 3.0, 1);
  NeighborList tooBig(3.0, 2.0);  // 5.0 > box/2 ~ 3.1
  EXPECT_THROW(tooBig.rebuild(sys), std::invalid_argument);
}

TEST(NeighborList, NeedsRebuildBeforeFirstBuild) {
  auto sys = mediumSystem();
  NeighborList list(4.0, 1.0);
  EXPECT_TRUE(list.needsRebuild(sys));
  list.rebuild(sys);
  EXPECT_FALSE(list.needsRebuild(sys));
  EXPECT_EQ(list.rebuilds(), 1);
}

TEST(NeighborList, ContainsAllCutoffPairs) {
  auto sys = mediumSystem();
  NeighborList list(4.0, 1.0);
  list.rebuild(sys);
  // Every intermolecular pair within the bare cutoff must be listed.
  const double rc2 = 4.0 * 4.0;
  std::size_t inCutoff = 0;
  for (int i = 0; i < sys.sites(); ++i) {
    for (int j = i + 1; j < sys.sites(); ++j) {
      if (sys.moleculeOf(i) == sys.moleculeOf(j)) continue;
      const Vec3 d = sys.box().minimumImage(sys.positions[static_cast<std::size_t>(i)],
                                            sys.positions[static_cast<std::size_t>(j)]);
      if (normSquared(d) < rc2) ++inCutoff;
    }
  }
  std::size_t listedInCutoff = 0;
  const PairTable& table = list.table();
  for (std::size_t k = 0; k < table.size(); ++k) {
    const Vec3 d =
        sys.box().minimumImage(sys.positions[static_cast<std::size_t>(table.first()[k])],
                               sys.positions[static_cast<std::size_t>(table.second()[k])]);
    if (normSquared(d) < rc2) ++listedInCutoff;
  }
  EXPECT_EQ(listedInCutoff, inCutoff);
  EXPECT_GE(table.size(), inCutoff);  // plus the skin shell
}

TEST(NeighborList, SmallDriftNeedsNoRebuild) {
  auto sys = mediumSystem();
  NeighborList list(4.0, 1.0);
  list.rebuild(sys);
  for (auto& p : sys.positions) p += Vec3{0.1, 0.1, 0.1};  // |d| ~ 0.17 < 0.5
  EXPECT_FALSE(list.needsRebuild(sys));
  sys.positions[0] += Vec3{0.6, 0.0, 0.0};  // one site past skin/2
  EXPECT_TRUE(list.needsRebuild(sys));
  EXPECT_TRUE(list.update(sys));
  EXPECT_FALSE(list.update(sys));
}

TEST(NeighborList, ForcesMatchAllPairsPath) {
  auto sys = mediumSystem();
  auto sysRef = sys;
  NeighborList list(4.0, 1.0);
  list.rebuild(sys);
  const auto viaList = computeForces(sys, list);
  const auto viaAll = computeForces(sysRef);
  EXPECT_NEAR(viaList.potential, viaAll.potential, 1e-9);
  EXPECT_NEAR(viaList.virial, viaAll.virial, 1e-9);
  for (std::size_t i = 0; i < sys.forces.size(); ++i) {
    EXPECT_NEAR(sys.forces[i].x, sysRef.forces[i].x, 1e-9);
    EXPECT_NEAR(sys.forces[i].y, sysRef.forces[i].y, 1e-9);
    EXPECT_NEAR(sys.forces[i].z, sysRef.forces[i].z, 1e-9);
  }
}

TEST(NeighborList, DynamicsMatchAllPairsPath) {
  // Run the same trajectory with and without lists; the list path must
  // track the all-pairs path (tiny fp drift allowed over 200 steps).
  auto sysA = mediumSystem(7);
  auto sysB = sysA;
  VelocityVerlet plain(sysA, {.dtPs = 0.0002});
  VelocityVerlet listed(sysB, {.dtPs = 0.0002, .useNeighborList = true, .neighborSkin = 1.0});
  for (int i = 0; i < 200; ++i) {
    const auto fa = plain.step();
    const auto fb = listed.step();
    ASSERT_NEAR(fa.potential, fb.potential, 1e-6 * std::abs(fa.potential) + 1e-9)
        << "step " << i;
  }
  EXPECT_GE(listed.neighborRebuilds(), 1);
  EXPECT_EQ(plain.neighborRebuilds(), 0);
}

TEST(NeighborList, NveEnergyConservedWithList) {
  auto sys = mediumSystem(9);
  VelocityVerlet vv(sys, {.dtPs = 0.0002, .useNeighborList = true, .neighborSkin = 1.0});
  const double e0 = vv.lastForces().potential + sys.kineticEnergy();
  double maxDev = 0.0;
  for (int i = 0; i < 400; ++i) {
    const auto f = vv.step();
    maxDev = std::max(maxDev, std::abs(f.potential + sys.kineticEnergy() - e0));
  }
  const double scale = std::abs(e0) + sys.kineticEnergy();
  EXPECT_LT(maxDev, 0.01 * scale);
}

TEST(PairTable, AllPairsTableHoldsEveryIntermolecularPairWithItsSpecies) {
  auto sys = buildWaterLattice(16, 0.997, 298.0, tip4pPublished(), 3.0, 7);
  IntermolecularPairs all;
  const PairTable& table = all.table(sys);
  const std::span<const double> d2 = all.distancesSquared(sys);
  ASSERT_EQ(d2.size(), table.size());
  std::size_t k = 0;
  for (int i = 0; i < sys.sites(); ++i) {
    for (int j = i + 1; j < sys.sites(); ++j) {
      if (sys.moleculeOf(i) == sys.moleculeOf(j)) continue;
      ASSERT_LT(k, table.size());
      EXPECT_EQ(table.first()[k], i);
      EXPECT_EQ(table.second()[k], j);
      const bool iH = sys.speciesOf(i) == Species::Hydrogen;
      const bool jH = sys.speciesOf(j) == Species::Hydrogen;
      EXPECT_EQ(table.species()[k], (iH ? 2 : 0) + (jH ? 1 : 0)) << i << " " << j;
      const double want = normSquared(
          sys.box().minimumImage(sys.positions[static_cast<std::size_t>(i)],
                                 sys.positions[static_cast<std::size_t>(j)]));
      EXPECT_EQ(std::memcmp(&d2[k], &want, sizeof want), 0) << i << " " << j;
      ++k;
    }
  }
  EXPECT_EQ(table.size(), k);
  // The kernels read whole lane groups: the padding repeats the last pair.
  for (std::size_t p = k; p % static_cast<std::size_t>(sfopt::simd::kForceLaneGroup) != 0;
       ++p) {
    EXPECT_EQ(table.first()[p], table.first()[k - 1]);
    EXPECT_EQ(table.second()[p], table.second()[k - 1]);
    EXPECT_EQ(table.species()[p], table.species()[k - 1]);
  }
}

}  // namespace
