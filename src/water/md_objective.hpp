#pragma once

#include <vector>

#include "md/simulation.hpp"
#include "noise/stochastic_objective.hpp"
#include "water/cost.hpp"

namespace sfopt::water {

/// The honest end-to-end objective: every sample *actually runs* the MD
/// engine's NVT/NVE protocol at the candidate parameters and evaluates the
/// eq. 3.4 cost from the sampled observables.  The per-sample noise is the
/// genuine statistical error of the finite simulation, which decays with
/// the amount of simulation exactly as the paper's eq. 1.2 models.
///
/// Each objective sample costs a full (short) MD run — minutes of real
/// optimization even at demo sizes — so this class is used by the example
/// binaries and smoke tests, while the calibrated surrogate
/// (WaterCostObjective) carries the Table 3.4 reproduction.
class MdWaterObjective final : public noise::StochasticObjective {
 public:
  struct Options {
    /// Per-sample protocol (keep it small).  Each sample runs serially;
    /// parallelism comes from the MW framework sampling across vertices
    /// and clients, as in the paper.
    md::SimulationConfig simulation;
    /// Targets; empty = U, P, D and the g_OO residual with weights scaled
    /// for the flexible 3-site engine.
    std::vector<PropertyTarget> targets;
    std::uint64_t seed = 0x3D;
  };

  MdWaterObjective() : MdWaterObjective(Options{}) {}
  explicit MdWaterObjective(Options options);

  [[nodiscard]] std::size_t dimension() const override { return 3; }
  /// One sample simulates productionSteps * dt picoseconds; the virtual
  /// clock advances by that simulated span.
  [[nodiscard]] double sampleDuration() const override;
  [[nodiscard]] double sample(std::span<const double> x, noise::SampleKey key) const override;

  /// Cost from one protocol run's observables (exposed for tests).
  [[nodiscard]] double costOf(const md::WaterObservables& obs) const;

  [[nodiscard]] const std::vector<PropertyTarget>& targets() const noexcept {
    return options_.targets;
  }

 private:
  Options options_;
  md::RdfCurve referenceGOO_;
};

}  // namespace sfopt::water
