#include "md/integrator.hpp"

#include <cmath>
#include <stdexcept>

#include "telemetry/telemetry.hpp"

namespace sfopt::md {

VelocityVerlet::VelocityVerlet(WaterSystem& sys, Options options)
    : sys_(sys), options_(options) {
  if (!(options_.dtPs > 0.0)) throw std::invalid_argument("VelocityVerlet: dt must be positive");
  if (options_.targetTemperatureK < 0.0) {
    throw std::invalid_argument("VelocityVerlet: negative target temperature");
  }
  if (options_.useNeighborList) {
    list_ = std::make_unique<NeighborList>(sys_.cutoff(), options_.neighborSkin);
  }
  if (options_.telemetry != nullptr) {
    auto& reg = options_.telemetry->metrics();
    telForceEvals_ = &reg.counter("md.force_evaluations");
    telPairs_ = &reg.counter("md.pairs_evaluated");
    telForceSeconds_ = &reg.histogram(
        "md.force_eval_seconds", telemetry::Histogram::exponentialBounds(1e-6, 10.0, 7));
  }
  last_ = evaluateForces();
}

ForceResult VelocityVerlet::evaluateForces() {
  ForceResult result;
  if (list_) {
    (void)list_->update(sys_);
    result = computeForces(sys_, *list_, scratch_);
  } else {
    result = computeForces(sys_, scratch_);
  }
  ++forceEvaluations_;
  pairsEvaluated_ += result.pairsEvaluated;
  forceSeconds_ += result.evalSeconds;
  if (telForceEvals_ != nullptr) {
    telForceEvals_->add(1);
    telPairs_->add(result.pairsEvaluated);
    telForceSeconds_->observe(result.evalSeconds);
  }
  return result;
}

MdPerfCounters VelocityVerlet::perfCounters() const noexcept {
  MdPerfCounters c;
  c.forceEvaluations = forceEvaluations_;
  c.pairsEvaluated = pairsEvaluated_;
  c.forceSeconds = forceSeconds_;
  if (list_) {
    c.neighborRebuilds = list_->rebuilds();
    c.maxDriftSeen = list_->maxDriftSeen();
    c.cellListUsed = list_->lastRebuildUsedCells();
    c.cellsPerDim = list_->cellsPerDim();
    c.avgCellOccupancy = list_->averageCellOccupancy();
  }
  return c;
}

ForceResult VelocityVerlet::step() {
  const double dt = options_.dtPs;
  const int n = sys_.sites();
  // Half kick + drift.  Forces are kcal/mol/A; acceleration needs the
  // kcal/mol -> amu A^2/ps^2 conversion.
  for (int i = 0; i < n; ++i) {
    const auto s = static_cast<std::size_t>(i);
    const double invM = kKcalPerMolInMdUnits / sys_.massOf(i);
    sys_.velocities[s] += (0.5 * dt * invM) * sys_.forces[s];
    sys_.positions[s] += dt * sys_.velocities[s];
  }
  last_ = evaluateForces();
  for (int i = 0; i < n; ++i) {
    const auto s = static_cast<std::size_t>(i);
    const double invM = kKcalPerMolInMdUnits / sys_.massOf(i);
    sys_.velocities[s] += (0.5 * dt * invM) * sys_.forces[s];
  }
  if (options_.targetTemperatureK > 0.0) {
    // Berendsen weak coupling: lambda = sqrt(1 + dt/tau (T0/T - 1)).
    const double t = sys_.temperature();
    if (t > 0.0) {
      const double lambda = std::sqrt(
          1.0 + dt / options_.berendsenTauPs * (options_.targetTemperatureK / t - 1.0));
      for (auto& v : sys_.velocities) v *= lambda;
    }
  }
  return last_;
}

ForceResult VelocityVerlet::run(int steps) {
  for (int i = 0; i < steps; ++i) (void)step();
  return last_;
}

}  // namespace sfopt::md
