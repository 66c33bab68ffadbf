#pragma once

#include <cstdint>
#include <vector>

#include "md/intermolecular_pairs.hpp"
#include "md/neighbor_list.hpp"
#include "md/system.hpp"
#include "simd/force_kernel.hpp"

namespace sfopt::md {

/// Energy/virial decomposition of one force evaluation, plus the perf
/// counters of that evaluation (candidate pairs visited, wall time).
struct ForceResult {
  double potential = 0.0;       ///< total potential energy, kcal/mol
  double lennardJones = 0.0;    ///< O-O LJ part
  double coulomb = 0.0;         ///< site-site electrostatic part
  double intramolecular = 0.0;  ///< bond + angle part
  double virial = 0.0;          ///< sum over pairs of r . F, kcal/mol
  std::int64_t pairsEvaluated = 0;  ///< nonbonded candidate pairs visited
  double evalSeconds = 0.0;         ///< wall time of this evaluation
};

/// Aggregated force-path performance counters over a run: what the MD
/// evaluation actually cost, and which fast paths it exercised.  Summed
/// across integrators by operator+= (counters that describe configuration
/// rather than work — the cell geometry — keep the last value).
struct MdPerfCounters {
  std::int64_t forceEvaluations = 0;   ///< computeForces calls
  std::int64_t pairsEvaluated = 0;     ///< nonbonded candidates visited, total
  double forceSeconds = 0.0;           ///< wall time inside force evaluations
  std::int64_t neighborRebuilds = 0;   ///< neighbor-list rebuild count
  double maxDriftSeen = 0.0;           ///< max site drift (A) seen by the skin check
  bool cellListUsed = false;           ///< last rebuild used the O(N) cell list
  int cellsPerDim = 0;                 ///< cells per box dimension (0 = brute force)
  double avgCellOccupancy = 0.0;       ///< mean sites per cell at last rebuild

  /// Mean candidate pairs per force evaluation.
  [[nodiscard]] double pairsPerEvaluation() const noexcept {
    return forceEvaluations > 0
               ? static_cast<double>(pairsEvaluated) / static_cast<double>(forceEvaluations)
               : 0.0;
  }

  MdPerfCounters& operator+=(const MdPerfCounters& o) noexcept;
};

/// Buffers that one integrator's force evaluations reuse from call to
/// call, so an evaluation allocates nothing: the all-pairs path's pair
/// table (built once per site count), the kernels' position snapshot and
/// their force accumulator.  Never shared between threads.
struct ForceScratch {
  IntermolecularPairs allPairs;
  std::vector<simd::SiteRow> xyz0;
  std::vector<simd::SiteRow> force0;
};

/// Compute forces into sys.forces (overwriting) and return the energy
/// decomposition.
///
/// Interactions:
///  * O-O Lennard-Jones with the parameters under optimization, truncated
///    and force-shifted at the cutoff (continuous energy and force, so NVE
///    drift stays small);
///  * site-site Coulomb (qO = -2 qH) with the same force-shifted
///    truncation — the standard minimum-image shifted-force electrostatics
///    of compact MD codes;
///  * harmonic O-H bonds and H-O-H angle (flexible SPC/Fw-style geometry).
/// Intramolecular site pairs are excluded from the nonbonded terms.
[[nodiscard]] ForceResult computeForces(WaterSystem& sys, ForceScratch& scratch);

/// Same computation, but the nonbonded loop walks only the neighbor
/// list's pairs (the list must be current: call list.update(sys) first).
/// Identical results to the all-pairs path whenever the list radius
/// covers the cutoff — pinned down by the equivalence tests.
[[nodiscard]] ForceResult computeForces(WaterSystem& sys, const NeighborList& list,
                                        ForceScratch& scratch);

/// One-off evaluations (tests, tools): the same, on a fresh scratch.
[[nodiscard]] ForceResult computeForces(WaterSystem& sys);
[[nodiscard]] ForceResult computeForces(WaterSystem& sys, const NeighborList& list);

/// Instantaneous virial pressure in atm:
///   P = (2 K + W) / (3 V)   with K kinetic energy and W the virial.
[[nodiscard]] double pressureAtm(const WaterSystem& sys, double virialKcalPerMol);

/// Standard homogeneous-fluid Lennard-Jones tail corrections beyond the
/// cutoff (Allen & Tildesley): assuming g(r) = 1 for r > rc,
///   U_tail = (8/3) pi rho N eps sigma^3 [ (1/3)(sigma/rc)^9 - (sigma/rc)^3 ]
///   P_tail = (16/3) pi rho^2  eps sigma^3 [ (2/3)(sigma/rc)^9 - (sigma/rc)^3 ]
/// with rho the OXYGEN number density (LJ acts on O-O pairs only).
struct TailCorrections {
  double energyKcalPerMol = 0.0;  ///< whole-box energy correction
  double pressureAtm = 0.0;       ///< pressure correction
};
[[nodiscard]] TailCorrections ljTailCorrections(const WaterSystem& sys);

}  // namespace sfopt::md
