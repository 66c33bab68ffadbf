#pragma once

#include <cstdint>

#include "md/forces.hpp"
#include "md/observables.hpp"
#include "md/system.hpp"

namespace sfopt::telemetry {
class Telemetry;
}

namespace sfopt::md {

/// The two-phase simulation protocol the paper's application study runs at
/// every simplex vertex (section 3.5): "an initial configuration is used
/// to perform an MD equilibration in the NVT ensemble.  The output of this
/// simulation is used to perform a production run in the NVE ensemble",
/// from which pair correlation functions and thermodynamic properties are
/// evaluated.
struct SimulationConfig {
  int molecules = 64;           ///< 64 waters => box edge ~12.4 A at 0.997 g/cc
  double temperatureK = 298.0;
  double densityGramsPerCc = 0.997;
  double dtPs = 0.0005;
  double cutoff = 6.0;          ///< A; must stay below half the box edge
  int equilibrationSteps = 400;
  int productionSteps = 800;
  int sampleEvery = 10;          ///< frames between property samples
  double berendsenTauPs = 0.05;
  std::uint64_t seed = 12345;
  double rdfRMax = 6.0;
  int rdfBins = 60;
  /// Verlet neighbor list for the nonbonded loop; requires
  /// cutoff + neighborSkin <= half the box edge.
  bool useNeighborList = true;
  double neighborSkin = 0.0;  ///< 0 = auto: min(1.0, half-edge - cutoff)
  /// Apply homogeneous-fluid LJ tail corrections to the reported <U> and
  /// <P> (the truncated-and-shifted potential itself is unchanged).
  bool applyTailCorrections = true;
  /// Optional observability spine (non-owning; must outlive the run).
  /// Attaching it folds the MdPerfCounters into the metrics registry as
  /// md.* metrics and emits md.equilibration / md.production phase spans.
  telemetry::Telemetry* telemetry = nullptr;
};

/// Equilibrium averages of one protocol run — the raw material of the
/// paper's water cost function (eq. 3.4).
struct WaterObservables {
  double potentialPerMoleculeKcal = 0.0;  ///< <U> per molecule
  double pressureAtm = 0.0;               ///< <P>
  double temperatureK = 0.0;              ///< <T> over production
  double diffusionCm2PerS = 0.0;          ///< D from oxygen MSD
  RdfCurve gOO;
  RdfCurve gOH;
  RdfCurve gHH;
  double nveDriftKcalPerPs = 0.0;         ///< total-energy drift diagnostic
  int productionFrames = 0;
  /// Statistical inefficiency g of the potential-energy series (sampled
  /// frames are correlated; the effective sample count is frames / g).
  double potentialInefficiency = 1.0;
  /// Blocked (Flyvbjerg-Petersen) standard error of <U> per molecule —
  /// the honest sigma(t) of eq. 1.2 for this observable.
  double potentialStandardError = 0.0;
  /// Force-path perf counters summed over the NVT and NVE phases.
  MdPerfCounters perf;
};

/// Run the NVT-equilibrate / NVE-produce protocol for the given force-field
/// parameters and return the sampled observables.
[[nodiscard]] WaterObservables simulateWater(const WaterParameters& params,
                                             const SimulationConfig& config);

}  // namespace sfopt::md
