#pragma once

#include <cmath>
#include <functional>
#include <stdexcept>
#include <utility>

#include "noise/stochastic_objective.hpp"
#include "simd/dispatch.hpp"

namespace sfopt::noise {

/// Wraps a deterministic function f with additive Gaussian sampling noise
/// following the paper's eq. 1.2: a sample of duration dt carries noise
/// N(0, sigma0^2 / dt), so the mean over total time t has variance
/// sigma0^2 / t.  This is the workhorse used for every synthetic experiment
/// (controlled-noise Rosenbrock / Powell optimizations).
///
/// f must be a pure function of x: a sampling run evaluates it once and
/// reuses the value for every sample of the run.
class NoisyFunction final : public StochasticObjective {
 public:
  using Fn = std::function<double(std::span<const double>)>;

  struct Options {
    double sigma0 = 1.0;         ///< inherent noise scale (paper's sigma^0)
    double sampleDuration = 1.0; ///< simulated seconds per sample
    std::uint64_t seed = 0x5f0b;  ///< master seed for the noise stream
  };

  NoisyFunction(std::size_t dimension, Fn f, Options opts)
      : dim_(dimension),
        f_(std::move(f)),
        opts_(opts),
        sigmaPerSample_(opts.sigma0 / std::sqrt(opts.sampleDuration)),
        rng_(opts.seed) {
    if (!(std::isfinite(opts.sigma0) && opts.sigma0 >= 0.0)) {
      throw std::invalid_argument("NoisyFunction: sigma0 must be finite and >= 0");
    }
    if (!(opts.sampleDuration > 0.0)) {
      throw std::invalid_argument("NoisyFunction: sampleDuration must be positive");
    }
  }

  [[nodiscard]] std::size_t dimension() const override { return dim_; }
  [[nodiscard]] double sampleDuration() const override { return opts_.sampleDuration; }

  [[nodiscard]] double sample(std::span<const double> x, SampleKey key) const override {
    double y = 0.0;
    sampleRun(x, key.stream, key.index, {&y, 1});
    return y;
  }

  void sampleRun(std::span<const double> x, std::uint64_t stream, std::uint64_t firstIndex,
                 std::span<double> out) const override {
    simd::addNormalRun(rng_.streamPrefix(stream), firstIndex, f_(x), sigmaPerSample_, out);
  }

  [[nodiscard]] std::optional<double> trueValue(std::span<const double> x) const override {
    return f_(x);
  }

  [[nodiscard]] std::optional<double> noiseScale(std::span<const double>) const override {
    return opts_.sigma0;
  }

 private:
  std::size_t dim_;
  Fn f_;
  Options opts_;
  double sigmaPerSample_;
  CounterRng rng_;
};

}  // namespace sfopt::noise
