#pragma once

#include <utility>
#include <vector>

#include "md/intermolecular_pairs.hpp"
#include "md/system.hpp"

namespace sfopt::md {

/// How NeighborList::rebuild enumerates candidate pairs.
enum class NeighborStrategy {
  kAuto,        ///< cell list from 4 cells/dim up (the measured crossover), else brute force
  kBruteForce,  ///< always the O(N^2) all-pairs scan
  kCellList,    ///< always the O(N) cell list (throws on too-small boxes)
};

/// Verlet neighbor list: the intermolecular site pairs within
/// cutoff + skin, rebuilt only when some site has moved more than skin/2
/// since the last rebuild (the classic sufficient condition for no pair
/// inside the cutoff to be missing from the list).
///
/// Rebuilds go through a linked-cell decomposition (`CellList`) in O(N)
/// whenever the box holds >= 4 cells per dimension at the list radius,
/// falling back to the O(N^2) all-pairs scan for smaller boxes (a cached
/// intermolecular pair table through the SIMD distance kernel).  Either
/// way the pair table is filled in ascending (i, j) order, so the force
/// kernel's accumulation order — and hence every trajectory bit — is
/// independent of the build strategy.
class NeighborList {
 public:
  /// skin > 0; effective list radius is cutoff + skin.
  NeighborList(double cutoff, double skin,
               NeighborStrategy strategy = NeighborStrategy::kAuto);

  /// Rebuild from the system's current positions.
  void rebuild(const WaterSystem& sys);

  /// Has any site moved more than skin/2 since the last rebuild?
  /// (Always true before the first rebuild.)  Early-exits on the first
  /// offending site; the drift scanned so far feeds maxDriftSeen().
  [[nodiscard]] bool needsRebuild(const WaterSystem& sys) const;

  /// Rebuild if needed; returns true when a rebuild happened.
  bool update(const WaterSystem& sys);

  /// The listed pairs, ascending (i, j) under either strategy.
  [[nodiscard]] const PairTable& table() const noexcept { return table_; }
  [[nodiscard]] double cutoff() const noexcept { return cutoff_; }
  [[nodiscard]] double skin() const noexcept { return skin_; }
  [[nodiscard]] NeighborStrategy strategy() const noexcept { return strategy_; }
  [[nodiscard]] std::int64_t rebuilds() const noexcept { return rebuilds_; }

  /// Perf counters for the most recent rebuild / drift checks.
  [[nodiscard]] bool lastRebuildUsedCells() const noexcept { return usedCells_; }
  [[nodiscard]] int cellsPerDim() const noexcept { return cellsPerDim_; }
  [[nodiscard]] double averageCellOccupancy() const noexcept { return avgOccupancy_; }
  [[nodiscard]] int maxCellOccupancy() const noexcept { return maxOccupancy_; }
  /// Largest site displacement (A) relative to the rebuild reference that
  /// needsRebuild() has observed over this list's lifetime.  Because the
  /// check early-exits, a triggering call records the first offending
  /// drift, not a full-scan max.
  [[nodiscard]] double maxDriftSeen() const noexcept;

 private:
  double cutoff_;
  double skin_;
  NeighborStrategy strategy_;
  PairTable table_;
  IntermolecularPairs allPairs_;                  ///< brute-force candidates
  std::vector<std::pair<int, int>> cellPairs_;    ///< cell-list candidates, unsorted
  std::vector<std::pair<int, int>> sortScratch_;  ///< counting-sort scratch
  std::vector<int> countScratch_;                 ///< per-site pair counts
  std::vector<Vec3> referencePositions_;
  std::int64_t rebuilds_ = 0;
  bool usedCells_ = false;
  int cellsPerDim_ = 0;
  double avgOccupancy_ = 0.0;
  int maxOccupancy_ = 0;
  mutable double maxDriftSeen2_ = 0.0;  ///< squared; updated by const needsRebuild
};

}  // namespace sfopt::md
