#include "md/cell_list.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <utility>
#include <vector>

#include "md/forces.hpp"
#include "md/integrator.hpp"
#include "md/neighbor_list.hpp"
#include "md/system.hpp"

namespace {

using namespace sfopt::md;

// 216 waters: box ~18.6 A, so the 5 A list radius (cutoff 4 + skin 1)
// admits 3 cells per dimension, enough for the cell list to be sound.
WaterSystem cellSystem(std::uint64_t seed = 3) {
  return buildWaterLattice(216, 0.997, 298.0, tip4pPublished(), 4.0, seed);
}

/// Scramble positions so configurations are not lattice-structured.
void randomizePositions(WaterSystem& sys, std::uint64_t seed) {
  std::mt19937_64 gen(seed);
  std::uniform_real_distribution<double> jitter(-0.4, 0.4);
  // Also push some molecules across the periodic boundary: unwrapped
  // coordinates must bin correctly regardless of image.
  std::uniform_int_distribution<int> images(-2, 2);
  for (int m = 0; m < sys.molecules(); ++m) {
    const Vec3 shift{sys.box().edge() * images(gen), sys.box().edge() * images(gen),
                     sys.box().edge() * images(gen)};
    for (int s = 0; s < kSitesPerMolecule; ++s) {
      auto& p = sys.positions[static_cast<std::size_t>(m * kSitesPerMolecule + s)];
      p += shift + Vec3{jitter(gen), jitter(gen), jitter(gen)};
    }
  }
}

TEST(CellList, AdmissionRule) {
  // 64 waters: box ~12.4 A -> 2 cells/dim at 5 A; not admissible.
  const auto small = buildWaterLattice(64, 0.997, 298.0, tip4pPublished(), 4.0, 1);
  EXPECT_FALSE(CellList::admits(small.box(), 5.0));
  EXPECT_THROW(CellList(small.box(), 5.0), std::invalid_argument);

  const auto big = cellSystem();
  EXPECT_TRUE(CellList::admits(big.box(), 5.0));
  CellList cells(big.box(), 5.0);
  EXPECT_EQ(cells.cellsPerDim(), 3);
  EXPECT_GE(cells.cellEdge(), 5.0);
}

TEST(CellList, CandidatePairsCoverEveryCloseBruteForcePair) {
  for (std::uint64_t seed : {1ULL, 7ULL, 42ULL}) {
    auto sys = cellSystem(seed);
    randomizePositions(sys, seed * 1000 + 5);
    CellList cells(sys.box(), 5.0);
    cells.bin(sys.positions);

    std::vector<std::pair<int, int>> candidates;
    cells.forEachCandidatePair([&](int i, int j, const Vec3& dr) {
      ASSERT_LT(i, j);
      // Within the interaction radius the adjacency-image displacement
      // must agree in magnitude with the minimum image.
      const Vec3 mi =
          sys.box().minimumImage(sys.positions[static_cast<std::size_t>(i)],
                                 sys.positions[static_cast<std::size_t>(j)]);
      if (normSquared(dr) < 25.0) {
        ASSERT_NEAR(normSquared(dr), normSquared(mi), 1e-9);
      }
      candidates.emplace_back(i, j);
    });
    std::sort(candidates.begin(), candidates.end());
    // Exactly once each.
    ASSERT_TRUE(std::adjacent_find(candidates.begin(), candidates.end()) ==
                candidates.end());

    // Every pair within the interaction radius must be a candidate.
    for (int i = 0; i < sys.sites(); ++i) {
      for (int j = i + 1; j < sys.sites(); ++j) {
        const Vec3 d = sys.box().minimumImage(sys.positions[static_cast<std::size_t>(i)],
                                              sys.positions[static_cast<std::size_t>(j)]);
        if (normSquared(d) < 25.0) {
          ASSERT_TRUE(std::binary_search(candidates.begin(), candidates.end(),
                                         std::make_pair(i, j)))
              << "missing close pair (" << i << ", " << j << ") seed " << seed;
        }
      }
    }
  }
}

TEST(CellList, NeighborListPairsIdenticalUnderBothStrategies) {
  for (std::uint64_t seed : {2ULL, 11ULL, 99ULL}) {
    auto sys = cellSystem(seed);
    randomizePositions(sys, seed);
    NeighborList viaCells(4.0, 1.0, NeighborStrategy::kCellList);
    NeighborList viaBrute(4.0, 1.0, NeighborStrategy::kBruteForce);
    viaCells.rebuild(sys);
    viaBrute.rebuild(sys);
    EXPECT_TRUE(viaCells.lastRebuildUsedCells());
    EXPECT_FALSE(viaBrute.lastRebuildUsedCells());
    // Same pairs in the same (lexicographic) order: the force loop is
    // bitwise independent of the build strategy.
    ASSERT_EQ(viaCells.table(), viaBrute.table()) << "seed " << seed;
  }
}

// 343 waters: box ~21.8 A, 4 cells per dimension at the 5 A list radius.
WaterSystem fourCellSystem(std::uint64_t seed = 5) {
  return buildWaterLattice(343, 0.997, 298.0, tip4pPublished(), 4.0, seed);
}

TEST(CellList, AutoStrategyFallsBackBelowFourCellsPerDimension) {
  // 64 molecules: 2 cells/dim at the 5 A radius -> brute-force fallback.
  auto small = buildWaterLattice(64, 0.997, 298.0, tip4pPublished(), 4.0, 5);
  NeighborList list(4.0, 1.0);
  list.rebuild(small);
  EXPECT_FALSE(list.lastRebuildUsedCells());
  EXPECT_EQ(list.cellsPerDim(), 0);

  // 216 molecules: 3 cells/dim, where the half stencil reaches every cell
  // and the brute scan is faster -> still the brute scan.
  auto threeCells = cellSystem();
  ASSERT_EQ(CellList::cellsPerDimension(threeCells.box(), 5.0), 3);
  NeighborList threeList(4.0, 1.0);
  threeList.rebuild(threeCells);
  EXPECT_FALSE(threeList.lastRebuildUsedCells());
  EXPECT_EQ(threeList.cellsPerDim(), 0);

  // 343 molecules: 4 cells/dim -> the cell path engages automatically.
  auto big = fourCellSystem();
  NeighborList bigList(4.0, 1.0);
  bigList.rebuild(big);
  EXPECT_TRUE(bigList.lastRebuildUsedCells());
  EXPECT_EQ(bigList.cellsPerDim(), 4);
  EXPECT_GT(bigList.averageCellOccupancy(), 0.0);
  EXPECT_GE(bigList.maxCellOccupancy(), 1);
}

TEST(CellList, SerialCellListAndParallelForcesAgree) {
  auto sysAll = cellSystem(13);
  randomizePositions(sysAll, 77);
  auto sysList = sysAll;

  const ForceResult all = computeForces(sysAll);  // O(N^2) reference
  NeighborList list(4.0, 1.0, NeighborStrategy::kCellList);
  list.rebuild(sysList);
  const ForceResult viaList = computeForces(sysList, list);

  // All-pairs and cell-list walk the contributing pairs in the same
  // lexicographic order: bitwise identical.
  EXPECT_EQ(all.potential, viaList.potential);
  EXPECT_EQ(all.virial, viaList.virial);
  for (std::size_t i = 0; i < sysAll.forces.size(); ++i) {
    EXPECT_EQ(sysAll.forces[i], sysList.forces[i]) << "site " << i;
  }
}

TEST(CellList, PerfCountersReportTheForcePath) {
  auto sys = fourCellSystem(41);
  VelocityVerlet vv(sys, {.dtPs = 0.0002, .useNeighborList = true, .neighborSkin = 1.0});
  (void)vv.run(40);
  const MdPerfCounters perf = vv.perfCounters();
  EXPECT_EQ(perf.forceEvaluations, 41);  // constructor eval + 40 steps
  EXPECT_GT(perf.pairsEvaluated, 0);
  EXPECT_GT(perf.pairsPerEvaluation(), 0.0);
  EXPECT_GE(perf.neighborRebuilds, 1);
  EXPECT_GT(perf.forceSeconds, 0.0);
  EXPECT_TRUE(perf.cellListUsed);
  EXPECT_EQ(perf.cellsPerDim, 4);
  EXPECT_GT(perf.maxDriftSeen, 0.0);
}

}  // namespace
