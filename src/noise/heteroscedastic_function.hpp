#pragma once

#include <cmath>
#include <functional>
#include <stdexcept>
#include <utility>

#include "noise/stochastic_objective.hpp"

namespace sfopt::noise {

/// A stochastic objective whose noise scale depends on the location in
/// parameter space — the general case the paper's problem statement
/// allows: "the inherent variance (sigma0_k)^2 may depend on the location
/// in parameter space (some models may be noisier than others) but there
/// is no expectation that this variance is known ahead of time" (eq. 1.2
/// discussion).
///
/// The stochastic simplex variants must cope with this without being told:
/// they only ever see the estimated sigma from the sample stream.
///
/// f and sigma0 must be pure functions of x: a sampling run evaluates each
/// once and reuses the values for every sample of the run.
class HeteroscedasticFunction final : public StochasticObjective {
 public:
  using Fn = std::function<double(std::span<const double>)>;
  using SigmaFn = std::function<double(std::span<const double>)>;

  struct Options {
    double sampleDuration = 1.0;
    std::uint64_t seed = 0x6e7;
  };

  HeteroscedasticFunction(std::size_t dimension, Fn f, SigmaFn sigma0)
      : HeteroscedasticFunction(dimension, std::move(f), std::move(sigma0), Options{}) {}
  HeteroscedasticFunction(std::size_t dimension, Fn f, SigmaFn sigma0, Options opts)
      : dim_(dimension),
        f_(std::move(f)),
        sigma0_(std::move(sigma0)),
        opts_(opts),
        rng_(opts.seed) {
    if (!(opts.sampleDuration > 0.0)) {
      throw std::invalid_argument("HeteroscedasticFunction: sampleDuration must be positive");
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
    const double perSample = sigma0_(x) / std::sqrt(opts_.sampleDuration);
    const double fx = f_(x);
    const std::uint64_t prefix = rng_.streamPrefix(stream);
    for (std::size_t i = 0; i < out.size(); ++i) {
      out[i] = fx + perSample * gaussianAt(prefix, firstIndex + i);
    }
  }

  [[nodiscard]] std::optional<double> trueValue(std::span<const double> x) const override {
    return f_(x);
  }

  [[nodiscard]] std::optional<double> noiseScale(std::span<const double> x) const override {
    return sigma0_(x);
  }

 private:
  std::size_t dim_;
  Fn f_;
  SigmaFn sigma0_;
  Options opts_;
  CounterRng rng_;
};

}  // namespace sfopt::noise
