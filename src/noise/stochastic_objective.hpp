#pragma once

#include <cstddef>
#include <optional>
#include <span>

#include "noise/rng.hpp"

namespace sfopt::noise {

/// A stochastic objective in the sense of the paper's eq. 1.1:
///
///     g(theta) = f(theta) + eps(t),   Var[eps] = sigma0(theta)^2 / t
///
/// where t is the total simulated time spent sampling at theta.  The
/// interface exposes *incremental* sampling: each call to sample() draws one
/// observation of fixed duration sampleDuration(); the running mean of n
/// such observations then has variance sigma0^2 / (n * dt) = sigma0^2 / t,
/// exactly the paper's decay law, while successive refinements of a vertex
/// remain martingale-consistent (more sampling refines, never re-rolls, the
/// estimate).
///
/// Thread-compatibility: sample() and sampleRun() must be safe to call
/// concurrently for distinct SampleKey streams (the master-worker runtime
/// evaluates several vertices at once).  Implementations based on
/// CounterRng are stateless and trivially satisfy this.
class StochasticObjective {
 public:
  virtual ~StochasticObjective() = default;

  /// Dimension d of the parameter space.
  [[nodiscard]] virtual std::size_t dimension() const = 0;

  /// Simulated duration of a single sample, in seconds.  Constant per
  /// objective; vertex sampling time is t = n * sampleDuration().
  [[nodiscard]] virtual double sampleDuration() const = 0;

  /// Draw one noisy observation at x.  `key.stream` identifies the vertex
  /// (its unique id), `key.index` the per-vertex sample counter; together
  /// they make every draw reproducible and order-independent.
  [[nodiscard]] virtual double sample(std::span<const double> x, SampleKey key) const = 0;

  /// Draw a run of consecutive observations at x on one noise stream:
  /// out[i] is bit for bit sample(x, {stream, firstIndex + i}).  Every
  /// sampling loop goes through here, so an objective whose per-point work
  /// (f(x), sigma0(x), the stream's hash prefix) does not depend on the
  /// sample index can override it to do that work once per run.  The
  /// default is the per-sample loop.
  virtual void sampleRun(std::span<const double> x, std::uint64_t stream,
                         std::uint64_t firstIndex, std::span<double> out) const {
    for (std::size_t i = 0; i < out.size(); ++i) out[i] = sample(x, {stream, firstIndex + i});
  }

  /// Noise-free underlying value f(x), when known.  Synthetic test
  /// functions expose it so benches can report the true error R; real
  /// simulation-backed objectives return nullopt.
  [[nodiscard]] virtual std::optional<double> trueValue(std::span<const double> x) const {
    (void)x;
    return std::nullopt;
  }

  /// The inherent noise scale sigma0 at x, when known a priori.  Algorithms
  /// never rely on it (they estimate sigma from the sample stream), but
  /// tests use it to validate the estimators.
  [[nodiscard]] virtual std::optional<double> noiseScale(std::span<const double> x) const {
    (void)x;
    return std::nullopt;
  }
};

}  // namespace sfopt::noise
