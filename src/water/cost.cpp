#include "water/cost.hpp"

#include <cmath>
#include <stdexcept>

#include "simd/dispatch.hpp"
#include "water/experimental.hpp"

namespace sfopt::water {

std::vector<PropertyTarget> defaultWaterTargets() {
  const ExperimentalTargets t = experimentalTargets();
  return {
      {"U", t.internalEnergyKJPerMol, 100.0},
      {"P", t.pressureAtm, 0.003},
      {"D", t.diffusion1e5Cm2PerS, 1.5},
      {"gOO", t.rdfResidualOO, 12.0},
      {"gOH", t.rdfResidualOH, 7.0},
      {"gHH", t.rdfResidualHH, 18.0},
  };
}

double weightedCost(std::span<const double> values, std::span<const PropertyTarget> targets) {
  if (values.size() != targets.size()) {
    throw std::invalid_argument("weightedCost: values/targets size mismatch");
  }
  double g = 0.0;
  for (std::size_t i = 0; i < values.size(); ++i) {
    const double w2 = targets[i].weight * targets[i].weight;
    const double d = values[i] - targets[i].target;
    const double denom = targets[i].target * targets[i].target;
    // Zero-valued targets (RDF residuals) contribute absolutely.
    g += denom > 1e-12 ? w2 * d * d / denom : w2 * d * d;
  }
  return g;
}

std::vector<double> propertyVector(const WaterProperties& p) {
  return {p.internalEnergyKJPerMol, p.pressureAtm,   p.diffusion1e5Cm2PerS,
          p.rdfResidualOO,          p.rdfResidualOH, p.rdfResidualHH};
}

md::WaterParameters paramsFromPoint(std::span<const double> x) {
  if (x.size() != 3) throw std::invalid_argument("paramsFromPoint: needs 3 coordinates");
  return {x[0], x[1], x[2]};
}

WaterCostObjective::WaterCostObjective(Options options)
    : options_(std::move(options)),
      sigmaPerSample_(options_.sigma0 / std::sqrt(options_.sampleDuration)),
      rng_(options_.seed) {
  if (options_.targets.empty()) options_.targets = defaultWaterTargets();
  if (options_.targets.size() != 6) {
    throw std::invalid_argument("WaterCostObjective: needs exactly 6 targets");
  }
  if (!(options_.sampleDuration > 0.0)) {
    throw std::invalid_argument("WaterCostObjective: sampleDuration must be positive");
  }
  if (!(std::isfinite(options_.sigma0) && options_.sigma0 >= 0.0)) {
    throw std::invalid_argument("WaterCostObjective: sigma0 must be finite and >= 0");
  }
}

double WaterCostObjective::sample(std::span<const double> x, noise::SampleKey key) const {
  double y = 0.0;
  sampleRun(x, key.stream, key.index, {&y, 1});
  return y;
}

void WaterCostObjective::sampleRun(std::span<const double> x, std::uint64_t stream,
                                   std::uint64_t firstIndex, std::span<double> out) const {
  simd::addNormalRun(rng_.streamPrefix(stream), firstIndex, *trueValue(x), sigmaPerSample_, out);
}

std::optional<double> WaterCostObjective::trueValue(std::span<const double> x) const {
  const WaterProperties p = surrogate_.properties(paramsFromPoint(x));
  return weightedCost(propertyVector(p), options_.targets);
}

std::optional<double> WaterCostObjective::noiseScale(std::span<const double>) const {
  return options_.sigma0;
}

std::vector<core::Point> table34InitialPoints() {
  // Table 3.4(a): sigma and qH columns verbatim; epsilon mapped into
  // kcal/mol preserving the table's ordering and relative spread.
  return {
      {0.210, 3.00, 0.54},
      {0.186, 3.40, 0.45},
      {0.125, 3.25, 0.52},
      {0.198, 2.80, 0.60},
      {0.125, 3.25, 0.60},
      {0.198, 2.90, 0.65},
  };
}

}  // namespace sfopt::water
