#include "md/simulation.hpp"
#include <algorithm>

#include <stdexcept>

#include "md/forces.hpp"
#include "md/integrator.hpp"
#include "stats/autocorrelation.hpp"
#include "stats/welford.hpp"
#include "telemetry/telemetry.hpp"

namespace sfopt::md {

namespace {

/// Fold the aggregated force-path counters into the registry as md.*
/// gauges/counters.  The counters are cumulative across calls (gauges are
/// last-write-wins), matching the registry's process-wide semantics.
void exportPerfCounters(telemetry::Telemetry* telemetry, const MdPerfCounters& perf) {
  if (telemetry == nullptr) return;
  auto& reg = telemetry->metrics();
  reg.counter("md.neighbor_rebuilds").add(perf.neighborRebuilds);
  reg.gauge("md.max_drift_seen").set(perf.maxDriftSeen);
  reg.gauge("md.cells_per_dim").set(static_cast<double>(perf.cellsPerDim));
  reg.gauge("md.avg_cell_occupancy").set(perf.avgCellOccupancy);
  reg.gauge("md.pairs_per_evaluation").set(perf.pairsPerEvaluation());
}

}  // namespace

WaterObservables simulateWater(const WaterParameters& params, const SimulationConfig& config) {
  if (config.equilibrationSteps < 0 || config.productionSteps < 1) {
    throw std::invalid_argument("simulateWater: bad step counts");
  }
  if (config.sampleEvery < 1) throw std::invalid_argument("simulateWater: sampleEvery >= 1");

  WaterSystem sys = buildWaterLattice(config.molecules, config.densityGramsPerCc,
                                      config.temperatureK, params, config.cutoff, config.seed);

  // Neighbor-list feasibility: lists need cutoff + skin under half the box
  // edge; fall back to the all-pairs path when the skin cannot fit.
  double skin = config.neighborSkin;
  bool useList = config.useNeighborList;
  if (useList) {
    const double room = sys.box().edge() / 2.0 - config.cutoff;
    if (skin <= 0.0) skin = std::min(1.0, room * 0.9);
    if (skin <= 0.05) useList = false;
  }
  const auto integratorOptions = [&](double targetT) {
    VelocityVerlet::Options o;
    o.dtPs = config.dtPs;
    o.targetTemperatureK = targetT;
    o.berendsenTauPs = config.berendsenTauPs;
    o.useNeighborList = useList;
    o.neighborSkin = skin;
    o.telemetry = config.telemetry;
    return o;
  };

  // Phase 1: NVT equilibration with Berendsen coupling.  The lattice start
  // carries excess potential energy that converts to heat as the structure
  // relaxes, so the early phase also hard-rescales periodically — standard
  // practice for cold starts.
  MdPerfCounters perf;
  {
    const double phaseStart =
        config.telemetry != nullptr ? config.telemetry->tracer().now() : 0.0;
    VelocityVerlet integrator(sys, integratorOptions(config.temperatureK));
    constexpr int kRescalePeriod = 25;
    int remaining = config.equilibrationSteps;
    while (remaining > 0) {
      const int chunk = std::min(remaining, kRescalePeriod);
      (void)integrator.run(chunk);
      sys.rescaleTo(config.temperatureK);
      remaining -= chunk;
    }
    perf += integrator.perfCounters();
    if (config.telemetry != nullptr) {
      config.telemetry->tracer().emitComplete(
          "md.equilibration", phaseStart, 0, {},
          {{"steps", static_cast<double>(config.equilibrationSteps)},
           {"molecules", static_cast<double>(config.molecules)}});
    }
  }
  sys.zeroMomentum();
  sys.rescaleTo(config.temperatureK);

  // Phase 2: NVE production with property sampling.
  WaterObservables out;
  {
    const double phaseStart =
        config.telemetry != nullptr ? config.telemetry->tracer().now() : 0.0;
    VelocityVerlet integrator(sys, integratorOptions(0.0));

    RdfAccumulator rdf(config.rdfRMax, config.rdfBins);
    MsdAccumulator msd(sys);
    stats::Welford potential;
    stats::Welford pressure;
    stats::Welford temperature;
    std::vector<double> potentialSeries;
    potentialSeries.reserve(static_cast<std::size_t>(config.productionSteps /
                                                     config.sampleEvery + 1));

    const double e0 = integrator.lastForces().potential + sys.kineticEnergy();
    double eLast = e0;
    for (int step = 1; step <= config.productionSteps; ++step) {
      const ForceResult f = integrator.step();
      if (step % config.sampleEvery == 0) {
        potential.add(f.potential / sys.molecules());
        potentialSeries.push_back(f.potential / sys.molecules());
        pressure.add(pressureAtm(sys, f.virial));
        temperature.add(sys.temperature());
        rdf.addFrame(sys);
        msd.addFrame(sys, step * config.dtPs);
        eLast = f.potential + sys.kineticEnergy();
      }
    }
    out.potentialPerMoleculeKcal = potential.mean();
    out.pressureAtm = pressure.mean();
    if (config.applyTailCorrections) {
      const TailCorrections tail = ljTailCorrections(sys);
      out.potentialPerMoleculeKcal += tail.energyKcalPerMol / sys.molecules();
      out.pressureAtm += tail.pressureAtm;
    }
    out.temperatureK = temperature.mean();
    out.diffusionCm2PerS = msd.diffusionCm2PerS();
    out.gOO = rdf.curve(PairKind::OO, sys);
    out.gOH = rdf.curve(PairKind::OH, sys);
    out.gHH = rdf.curve(PairKind::HH, sys);
    out.productionFrames = rdf.frames();
    if (potentialSeries.size() >= 16) {
      out.potentialInefficiency = stats::statisticalInefficiency(potentialSeries);
      out.potentialStandardError = stats::blockedStandardError(potentialSeries);
    }
    const double elapsedPs = config.productionSteps * config.dtPs;
    out.nveDriftKcalPerPs = elapsedPs > 0.0 ? (eLast - e0) / elapsedPs : 0.0;
    perf += integrator.perfCounters();
    if (config.telemetry != nullptr) {
      config.telemetry->tracer().emitComplete(
          "md.production", phaseStart, 0, {},
          {{"steps", static_cast<double>(config.productionSteps)},
           {"frames", static_cast<double>(out.productionFrames)},
           {"nve_drift_kcal_per_ps", out.nveDriftKcalPerPs}});
    }
  }
  out.perf = perf;
  exportPerfCounters(config.telemetry, perf);
  return out;
}

}  // namespace sfopt::md
