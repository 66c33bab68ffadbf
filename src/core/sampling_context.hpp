#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "core/sampling_backend.hpp"
#include "core/vertex.hpp"
#include "noise/stochastic_objective.hpp"
#include "noise/virtual_clock.hpp"

namespace sfopt::telemetry {
class Telemetry;
}

namespace sfopt::core {

class EvalScheduler;

/// Mediates all sampling of a StochasticObjective on behalf of an
/// optimization algorithm, and owns the accounting the paper's experiments
/// report on:
///
///  * the virtual wall clock, advanced under the paper's concurrency model
///    (the d+3 workers sample their vertices simultaneously, so a batch of
///    refinements costs max — not sum — of the per-vertex durations);
///  * the global sample counter (total objective evaluations);
///  * vertex identity, which doubles as the reproducible noise-stream id.
///
/// Algorithms never call the objective directly.
class SamplingContext {
 public:
  struct Options {
    SigmaMode sigmaMode = SigmaMode::Estimated;
    /// Hard cap on samples at any single vertex; a gate or comparison that
    /// still cannot resolve at the cap is forcibly resolved (the paper's
    /// "coincidentally nearly identical vertices" hazard, section 2.3).
    std::int64_t maxSamplesPerVertex = 1'000'000;
    /// Optional sampling backend (non-owning; must outlive the context).
    /// nullptr computes samples inline.
    SamplingBackend* backend = nullptr;
    /// First vertex id handed out.  Distinct contexts over the same
    /// objective should use disjoint id ranges so their noise streams stay
    /// independent (ids key the counter-based RNG).
    std::uint64_t firstVertexId = 0;
    /// Shard a backend batch across workers once it exceeds this many
    /// samples (0 = never shard).  Requires a backend with an async()
    /// interface; ignored otherwise.  Results are bitwise identical to the
    /// unsharded backend path (canonical chunk merge).
    std::int64_t shardMinSamples = 0;
    /// Submit the next round's predicted refinement while the current one
    /// is in flight (see EvalScheduler).  Speculative samples are staged
    /// and only absorbed — and only then charged to the sample counter and
    /// virtual clock — when a round actually consumes them, so trajectories
    /// and the paper's time accounting are bitwise unchanged.
    bool speculate = false;
    /// Observability spine for the scheduler's eval.* metrics (non-owning).
    telemetry::Telemetry* telemetry = nullptr;
  };

  explicit SamplingContext(const noise::StochasticObjective& objective)
      : SamplingContext(objective, Options{}) {}
  SamplingContext(const noise::StochasticObjective& objective, Options options);
  ~SamplingContext();

  SamplingContext(const SamplingContext&) = delete;
  SamplingContext& operator=(const SamplingContext&) = delete;

  /// Create a vertex at x and take `initialSamples` samples there.
  /// Does NOT advance the clock: creation cost is charged by the caller
  /// through coSample/chargeTime so that concurrent creations (the whole
  /// initial simplex at once) are charged once.
  [[nodiscard]] std::unique_ptr<Vertex> createVertex(Point x, std::int64_t initialSamples);

  /// Take `extra` more samples at v (bounded by maxSamplesPerVertex).
  /// Returns the number actually taken.  Does not advance the clock.
  std::int64_t refine(Vertex& v, std::int64_t extra);

  /// Refine several vertices "in parallel": each gets its requested number
  /// of samples, and the clock advances by max(samples actually taken)*dt.
  /// A vertex listed more than once is coalesced into a single request for
  /// the summed sample count (its worker runs the draws back-to-back, so
  /// the noise-stream indices stay distinct and the charge is the total).
  struct RefineRequest {
    Vertex* vertex = nullptr;
    std::int64_t samples = 0;
  };
  void coSample(std::span<const RefineRequest> requests);
  void coSample(std::initializer_list<RefineRequest> requests);

  /// As above, with a prefetch hint: `nextRoundHint` describes the
  /// refinement the caller expects to issue next if this round does not
  /// resolve its gate/comparison.  With a speculating scheduler the hint
  /// is submitted before this call blocks; otherwise it is ignored.  Hints
  /// never affect results, accounting, or the virtual clock.
  void coSample(std::span<const RefineRequest> requests,
                std::span<const RefineRequest> nextRoundHint);

  /// Charge `samples * dt` of wall time without sampling (used when the
  /// caller has already refined through refine() and knows the concurrent
  /// batch shape).
  void chargeTime(std::int64_t samples);

  /// sigma_i(t_i) for v under the configured SigmaMode.  In Exact mode the
  /// objective must declare a noise scale; falls back to the estimate
  /// otherwise.
  [[nodiscard]] double sigma(const Vertex& v) const;

  /// Noise-free value at v's location, when the objective knows it.
  [[nodiscard]] std::optional<double> trueValue(const Vertex& v) const;

  [[nodiscard]] const noise::StochasticObjective& objective() const noexcept {
    return objective_;
  }
  [[nodiscard]] double now() const noexcept { return clock_.now(); }
  [[nodiscard]] std::int64_t totalSamples() const noexcept { return totalSamples_; }
  [[nodiscard]] std::int64_t verticesCreated() const noexcept {
    return static_cast<std::int64_t>(nextVertexId_ - options_.firstVertexId);
  }
  [[nodiscard]] const Options& options() const noexcept { return options_; }

  /// Restore the accounting of a checkpointed run: the virtual clock, the
  /// global sample counter and the next vertex id.  Only meaningful on a
  /// freshly constructed context (resume path).
  void restoreAccounting(double clockNow, std::int64_t totalSamples,
                         std::uint64_t nextVertexId);

  /// True when v has hit the per-vertex sampling cap.
  [[nodiscard]] bool atSampleCap(const Vertex& v) const noexcept {
    return v.sampleCount() >= options_.maxSamplesPerVertex;
  }

  /// The pipeline scheduler, when one is active (backend with an async()
  /// interface plus sharding or speculation requested); nullptr otherwise.
  [[nodiscard]] const EvalScheduler* scheduler() const noexcept { return scheduler_.get(); }

 private:
  /// Duplicate-free view of a request batch: first-occurrence order, one
  /// entry per vertex with the summed sample count and the take actually
  /// permitted by the per-vertex cap.
  struct CoalescedRequest {
    Vertex* vertex = nullptr;
    std::int64_t take = 0;
  };
  [[nodiscard]] std::vector<CoalescedRequest> coalesce(
      std::span<const RefineRequest> requests) const;

  const noise::StochasticObjective& objective_;
  Options options_;
  noise::VirtualClock clock_;
  std::int64_t totalSamples_ = 0;
  std::uint64_t nextVertexId_;
  std::unique_ptr<EvalScheduler> scheduler_;
};

}  // namespace sfopt::core
