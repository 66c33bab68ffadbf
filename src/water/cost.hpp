#pragma once

#include <span>
#include <string>
#include <vector>

#include "core/point.hpp"
#include "noise/stochastic_objective.hpp"
#include "water/surrogate.hpp"

namespace sfopt::water {

/// One fitting target of the cost function (eq. 3.4): a property name, its
/// experimental value p0, and the subjective weight w balancing its error
/// contribution.
struct PropertyTarget {
  std::string name;
  double target = 0.0;
  double weight = 1.0;
};

/// The paper's six targets with weights chosen (as section 3.5 prescribes)
/// "subjectively to balance the level of error in each property": at the
/// published TIP4P parameters each term contributes O(1).
[[nodiscard]] std::vector<PropertyTarget> defaultWaterTargets();

/// eq. 3.4: g = sum_i w_i^2 (p_i - p0_i)^2 / p0_i^2.  Targets that are
/// exactly zero (the RDF residuals, whose experimental value is zero by
/// construction) contribute absolutely: w_i^2 p_i^2.
[[nodiscard]] double weightedCost(std::span<const double> values,
                                  std::span<const PropertyTarget> targets);

/// Order the six surrogate properties to match defaultWaterTargets().
[[nodiscard]] std::vector<double> propertyVector(const WaterProperties& p);

/// Map an optimization point (epsilon, sigma, qH) to parameters.
[[nodiscard]] md::WaterParameters paramsFromPoint(std::span<const double> x);

/// The water reparameterization objective: the eq. 3.4 cost of the
/// surrogate properties, observed through the paper's sampling-noise model
/// (additive Gaussian noise whose variance decays as sigma0^2 / t, eq 1.2).
class WaterCostObjective final : public noise::StochasticObjective {
 public:
  struct Options {
    double sigma0 = 0.5;
    double sampleDuration = 1.0;
    std::uint64_t seed = 0xAA17;
    std::vector<PropertyTarget> targets;  ///< empty = defaultWaterTargets()
  };

  WaterCostObjective() : WaterCostObjective(Options{}) {}
  explicit WaterCostObjective(Options options);

  [[nodiscard]] std::size_t dimension() const override { return 3; }
  [[nodiscard]] double sampleDuration() const override { return options_.sampleDuration; }
  [[nodiscard]] double sample(std::span<const double> x, noise::SampleKey key) const override;
  /// One surrogate evaluation per run; the noise is drawn per sample.
  void sampleRun(std::span<const double> x, std::uint64_t stream, std::uint64_t firstIndex,
                 std::span<double> out) const override;
  [[nodiscard]] std::optional<double> trueValue(std::span<const double> x) const override;
  [[nodiscard]] std::optional<double> noiseScale(std::span<const double> x) const override;

  [[nodiscard]] const Tip4pSurrogate& surrogate() const noexcept { return surrogate_; }
  [[nodiscard]] const std::vector<PropertyTarget>& targets() const noexcept {
    return options_.targets;
  }

 private:
  Options options_;
  Tip4pSurrogate surrogate_;
  double sigmaPerSample_;
  noise::CounterRng rng_;
};

/// The initial simplex of the application study: the paper's Table 3.4(a)
/// lists six starting parameter rows (d+1 = 4 simplex vertices plus the 2
/// trial slots); the first dimension+1 rows seed the optimization.  Sigma
/// and qH columns are the table's values; the table's epsilon column is in
/// program units (amu A^2/dfs^2) and is mapped into the physical
/// 0.12-0.21 kcal/mol range preserving its ordering and spread.
[[nodiscard]] std::vector<core::Point> table34InitialPoints();

}  // namespace sfopt::water
