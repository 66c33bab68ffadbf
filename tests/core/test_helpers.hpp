#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/algorithms.hpp"
#include "core/initial_simplex.hpp"
#include "noise/noisy_function.hpp"
#include "testfunctions/functions.hpp"

namespace sfopt::test {

/// Noisy generalized Rosenbrock in `dim` dimensions.
inline noise::NoisyFunction noisyRosenbrock(std::size_t dim, double sigma0,
                                            std::uint64_t seed = 1234) {
  noise::NoisyFunction::Options o;
  o.sigma0 = sigma0;
  o.sampleDuration = 1.0;
  o.seed = seed;
  return noise::NoisyFunction(
      dim, [](std::span<const double> x) { return testfunctions::rosenbrock(x); }, o);
}

/// Noisy sphere in `dim` dimensions — the easiest convergence target.
inline noise::NoisyFunction noisySphere(std::size_t dim, double sigma0,
                                        std::uint64_t seed = 77) {
  noise::NoisyFunction::Options o;
  o.sigma0 = sigma0;
  o.sampleDuration = 1.0;
  o.seed = seed;
  return noise::NoisyFunction(
      dim, [](std::span<const double> x) { return testfunctions::sphere(x); }, o);
}

/// Noisy Powell (4-d).
inline noise::NoisyFunction noisyPowell(double sigma0, std::uint64_t seed = 55) {
  noise::NoisyFunction::Options o;
  o.sigma0 = sigma0;
  o.sampleDuration = 1.0;
  o.seed = seed;
  return noise::NoisyFunction(
      4, [](std::span<const double> x) { return testfunctions::powell(x); }, o);
}

/// Delegates to `inner`, but throws "poisoned sample <index>" when asked
/// for one of `indices` on noise stream `stream`.  Only sample() is
/// overridden, so batches take the default per-sample sampleRun loop.
class PoisonedObjective final : public noise::StochasticObjective {
 public:
  PoisonedObjective(const noise::StochasticObjective& inner, std::uint64_t stream,
                    std::vector<std::uint64_t> indices)
      : inner_(inner), stream_(stream), indices_(std::move(indices)) {}

  [[nodiscard]] std::size_t dimension() const override { return inner_.dimension(); }
  [[nodiscard]] double sampleDuration() const override { return inner_.sampleDuration(); }
  [[nodiscard]] double sample(std::span<const double> x, noise::SampleKey key) const override {
    if (key.stream == stream_ &&
        std::find(indices_.begin(), indices_.end(), key.index) != indices_.end()) {
      throw std::runtime_error("poisoned sample " + std::to_string(key.index));
    }
    return inner_.sample(x, key);
  }

 private:
  const noise::StochasticObjective& inner_;
  std::uint64_t stream_;
  std::vector<std::uint64_t> indices_;
};

/// Deterministic initial simplex a moderate distance from the optimum.
inline std::vector<core::Point> simpleStart(std::size_t dim, double origin = -2.0,
                                            double scale = 1.0) {
  return core::axisSimplexPoints(core::Point(dim, origin), scale);
}

/// Random initial simplex via a reproducible stream.
inline std::vector<core::Point> randomStart(std::size_t dim, double lo, double hi,
                                            std::uint64_t seed, std::uint64_t stream) {
  noise::RngStream rng(seed, stream);
  return core::randomSimplexPoints(dim, lo, hi, rng);
}

}  // namespace sfopt::test
