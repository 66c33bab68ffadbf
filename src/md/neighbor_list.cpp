#include "md/neighbor_list.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "md/cell_list.hpp"

namespace sfopt::md {

namespace {

/// kAuto's crossover.  At 3 cells per dimension the half stencil reaches
/// every cell, so a cell rebuild visits every pair and then sorts them: it
/// lost to the brute scan at every size measured.  From 4 it visits at
/// most 27/64 of the pairs and won from 648 sites up (DESIGN.md §9.1).
constexpr int kAutoCellsPerDimension = 4;

}  // namespace

NeighborList::NeighborList(double cutoff, double skin, NeighborStrategy strategy)
    : cutoff_(cutoff), skin_(skin), strategy_(strategy) {
  if (!(cutoff > 0.0)) throw std::invalid_argument("NeighborList: cutoff must be positive");
  if (!(skin > 0.0)) throw std::invalid_argument("NeighborList: skin must be positive");
}

void NeighborList::rebuild(const WaterSystem& sys) {
  const double listRadius = cutoff_ + skin_;
  if (listRadius > sys.box().edge() / 2.0) {
    throw std::invalid_argument("NeighborList: cutoff + skin exceeds half the box edge");
  }
  const double r2 = listRadius * listRadius;
  const int n = sys.sites();

  const bool wantCells =
      strategy_ == NeighborStrategy::kCellList ||
      (strategy_ == NeighborStrategy::kAuto &&
       CellList::cellsPerDimension(sys.box(), listRadius) >= kAutoCellsPerDimension);
  if (wantCells) {
    CellList cells(sys.box(), listRadius);
    cells.bin(sys.positions);
    // dr is the displacement under the cell-adjacency image; within the
    // list radius it coincides with the minimum image (cell edge >=
    // radius), so no per-pair minimum-image computation is needed.
    cellPairs_.clear();
    cells.forEachCandidatePair([&](int i, int j, const Vec3& dr) {
      if (normSquared(dr) < r2 && sys.moleculeOf(i) != sys.moleculeOf(j)) {
        cellPairs_.emplace_back(i, j);
      }
    });
    // Canonicalize to the brute-force scan order so the force kernel sums
    // contributions identically under either strategy.  Cell enumeration
    // emits pairs grouped by cell, so a counting sort on i (O(P + N)) plus
    // tiny per-i sorts on j beats a comparison sort.
    sortScratch_.resize(cellPairs_.size());
    countScratch_.assign(static_cast<std::size_t>(n) + 1, 0);
    for (const auto& [i, j] : cellPairs_) ++countScratch_[static_cast<std::size_t>(i) + 1];
    for (std::size_t i = 1; i < countScratch_.size(); ++i) {
      countScratch_[i] += countScratch_[i - 1];
    }
    for (const auto& p : cellPairs_) {
      sortScratch_[static_cast<std::size_t>(
          countScratch_[static_cast<std::size_t>(p.first)]++)] = p;
    }
    // countScratch_[i] now ends each i's segment; walk the segments.
    std::size_t begin = 0;
    for (int i = 0; i < n; ++i) {
      const auto end = static_cast<std::size_t>(countScratch_[static_cast<std::size_t>(i)]);
      std::sort(sortScratch_.begin() + static_cast<std::ptrdiff_t>(begin),
                sortScratch_.begin() + static_cast<std::ptrdiff_t>(end));
      begin = end;
    }
    table_.resize(sortScratch_.size());
    for (std::size_t k = 0; k < sortScratch_.size(); ++k) {
      const auto [i, j] = sortScratch_[k];
      table_.set(k, i, j, pairSpecies(sys, i, j));
    }
    usedCells_ = true;
    cellsPerDim_ = cells.cellsPerDim();
    avgOccupancy_ = cells.averageOccupancy();
    maxOccupancy_ = cells.maxOccupancy();
  } else {
    // Every intermolecular pair's squared minimum-image distance from the
    // SIMD kernel, then a branch-free compaction of those inside the
    // list radius; the candidates are already in ascending (i, j) order.
    const std::span<const double> d2 = allPairs_.distancesSquared(sys);
    const PairTable& all = allPairs_.table(sys);
    table_.resize(d2.size());
    std::size_t kept = 0;
    for (std::size_t k = 0; k < d2.size(); ++k) {
      table_.set(kept, all.first()[k], all.second()[k], all.species()[k]);
      kept += d2[k] < r2 ? 1 : 0;
    }
    table_.resize(kept);
    usedCells_ = false;
    cellsPerDim_ = 0;
    avgOccupancy_ = 0.0;
    maxOccupancy_ = 0;
  }
  table_.pad();
  referencePositions_ = sys.positions;
  ++rebuilds_;
}

bool NeighborList::needsRebuild(const WaterSystem& sys) const {
  if (referencePositions_.size() != sys.positions.size()) return true;
  const double limit2 = (skin_ / 2.0) * (skin_ / 2.0);
  for (std::size_t i = 0; i < sys.positions.size(); ++i) {
    // Unwrapped coordinates: plain displacement is the true drift.
    const Vec3 d = sys.positions[i] - referencePositions_[i];
    const double d2 = normSquared(d);
    if (d2 > maxDriftSeen2_) maxDriftSeen2_ = d2;
    if (d2 > limit2) return true;  // early exit: one mover forces a rebuild
  }
  return false;
}

bool NeighborList::update(const WaterSystem& sys) {
  if (!needsRebuild(sys)) return false;
  rebuild(sys);
  return true;
}

double NeighborList::maxDriftSeen() const noexcept { return std::sqrt(maxDriftSeen2_); }

}  // namespace sfopt::md
