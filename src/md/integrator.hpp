#pragma once

#include <memory>

#include "md/forces.hpp"
#include "md/neighbor_list.hpp"
#include "md/system.hpp"

namespace sfopt::telemetry {
class Telemetry;
class Counter;
class Histogram;
}

namespace sfopt::md {

/// Velocity-Verlet integrator with an optional Berendsen weak-coupling
/// thermostat (used for NVT equilibration; disabled for NVE production).
class VelocityVerlet {
 public:
  struct Options {
    double dtPs = 0.0005;         ///< timestep (0.5 fs default, flexible water)
    double targetTemperatureK = 0.0;  ///< 0 disables the thermostat (NVE)
    double berendsenTauPs = 0.1;  ///< thermostat coupling time
    /// Use a Verlet neighbor list for the nonbonded loop (auto-rebuilt
    /// whenever a site drifts more than skin/2).  Requires
    /// cutoff + skin <= box/2.
    bool useNeighborList = false;
    double neighborSkin = 1.0;    ///< A
    /// Optional observability spine (non-owning; must outlive the
    /// integrator).  Registers the md.* force-path metrics once at
    /// construction; the per-step cost when attached is a few relaxed
    /// atomic adds.
    telemetry::Telemetry* telemetry = nullptr;
  };

  VelocityVerlet(WaterSystem& sys, Options options);

  /// Advance one step; returns the force-evaluation result at the new
  /// positions (forces are kept consistent with positions).
  ForceResult step();

  /// Advance n steps, returning the last force result.
  ForceResult run(int steps);

  [[nodiscard]] const Options& options() const noexcept { return options_; }
  [[nodiscard]] const ForceResult& lastForces() const noexcept { return last_; }

  /// Rebuild count of the neighbor list (0 when lists are disabled).
  [[nodiscard]] std::int64_t neighborRebuilds() const noexcept {
    return list_ ? list_->rebuilds() : 0;
  }

  /// Aggregated force-path counters since construction.
  [[nodiscard]] MdPerfCounters perfCounters() const noexcept;

 private:
  ForceResult evaluateForces();

  WaterSystem& sys_;
  Options options_;
  std::unique_ptr<NeighborList> list_;
  ForceScratch scratch_;
  ForceResult last_;
  std::int64_t forceEvaluations_ = 0;
  std::int64_t pairsEvaluated_ = 0;
  double forceSeconds_ = 0.0;

  /// Pre-registered handles; non-null exactly when options_.telemetry is.
  telemetry::Counter* telForceEvals_ = nullptr;
  telemetry::Counter* telPairs_ = nullptr;
  telemetry::Histogram* telForceSeconds_ = nullptr;
};

}  // namespace sfopt::md
