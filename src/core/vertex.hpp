#pragma once

#include <cmath>
#include <cstdint>
#include <limits>

#include "core/point.hpp"
#include "stats/welford.hpp"

namespace sfopt::core {

/// How the per-vertex noise level sigma_i(t_i) is obtained.
enum class SigmaMode {
  /// Standard error of the mean estimated from the vertex's own sample
  /// stream (Welford).  This is the realistic setting: the paper stresses
  /// that "there is no expectation that this variance is known ahead of
  /// time".
  Estimated,
  /// Oracle sigma0 / sqrt(t) using the objective's declared noise scale.
  /// Available only for synthetic objectives; used by tests and by benches
  /// that want to isolate algorithmic behaviour from estimator error.
  Exact,
};

/// One sampled point in parameter space: a location, a unique id (which
/// doubles as the reproducible noise-stream id), and the running estimate
/// of the objective there.
///
/// Vertices are persistent across simplex iterations: additional sampling
/// refines the same estimate (the running mean is martingale-consistent),
/// matching the paper's model where a vertex's variance decays as
/// sigma0^2 / t for as long as it stays in the simplex.
class Vertex {
 public:
  Vertex(Point x, std::uint64_t id) : x_(std::move(x)), id_(id) {}

  [[nodiscard]] const Point& point() const noexcept { return x_; }
  [[nodiscard]] std::uint64_t id() const noexcept { return id_; }

  /// Current estimate of g at this vertex (mean of all samples so far).
  [[nodiscard]] double mean() const noexcept { return acc_.mean(); }

  /// Number of samples taken so far.
  [[nodiscard]] std::int64_t sampleCount() const noexcept { return acc_.count(); }

  /// Total simulated sampling time t_i = n_i * dt.
  [[nodiscard]] double totalTime(double sampleDuration) const noexcept {
    return static_cast<double>(acc_.count()) * sampleDuration;
  }

  /// Estimated standard error of mean() (+inf until 2 samples exist).
  [[nodiscard]] double estimatedSigma() const noexcept { return acc_.standardError(); }

  /// Oracle sigma for a known noise scale: sigma0 / sqrt(t).
  [[nodiscard]] double exactSigma(double sigma0, double sampleDuration) const noexcept {
    const double t = totalTime(sampleDuration);
    if (t <= 0.0) return std::numeric_limits<double>::infinity();
    return sigma0 / std::sqrt(t);
  }

  /// Raw accumulator access (merging partial sums computed by workers).
  [[nodiscard]] const stats::Welford& accumulator() const noexcept { return acc_; }

  /// Fold a batch of observations accumulated elsewhere into the
  /// estimate.  A vertex takes no single samples: SamplingContext hands it
  /// each refinement's folded chunk moments.
  void absorb(const stats::Welford& partial) noexcept { acc_.merge(partial); }

 private:
  Point x_;
  std::uint64_t id_;
  stats::Welford acc_;
};

}  // namespace sfopt::core
