#pragma once

#include <cstdint>
#include <span>
#include <variant>

#include "core/algorithms.hpp"
#include "mw/processor_allocation.hpp"
#include "noise/stochastic_objective.hpp"

namespace sfopt::net {
class Transport;
}

namespace sfopt::mw {

/// Any of the four simplex variants, selected by its options type.
using AlgorithmOptions = std::variant<core::DetOptions, core::MaxNoiseOptions,
                                      core::AndersonOptions, core::PCOptions>;

/// Run the simplex variant `options` holds, exactly as its own entry point
/// (core::runDeterministic, runMaxNoise, runAnderson, runPointToPoint).
[[nodiscard]] core::OptimizationResult runAlgorithm(const noise::StochasticObjective& objective,
                                                    std::span<const core::Point> initial,
                                                    const AlgorithmOptions& options);

/// Shape of the master-worker deployment.
struct MWRunConfig {
  /// Number of MW workers; 0 means the paper's d+3 (d+1 vertices plus two
  /// trial vertices).
  int workers = 0;
  /// Ns: client simulations per vertex server.
  int clientsPerWorker = 1;
  /// Optional observability spine for the driver's task-lifecycle metrics
  /// (non-owning; must outlive the run).  Engine-layer instrumentation is
  /// configured separately via the algorithm's CommonOptions.
  telemetry::Telemetry* telemetry = nullptr;
  /// Backstop for a wedged run: longest silence the driver tolerates while
  /// tasks are in flight (see MWDriver::setRecvTimeout).
  double recvTimeoutSeconds = 300.0;
};

/// Outcome of a master-worker optimization run: the optimization result
/// plus the deployment and communication accounting reported in the
/// paper's scale-up study.
struct MWRunResult {
  core::OptimizationResult optimization;
  ProcessorAllocation allocation;
  std::uint64_t messagesSent = 0;
  std::uint64_t bytesSent = 0;
  std::uint64_t tasksCompleted = 0;
  std::uint64_t tasksRequeued = 0;  ///< failure-driven re-dispatches
  double masterWallSeconds = 0.0;   ///< real (host) time spent, for Fig 3.18c
};

/// Run a simplex optimization with sampling farmed out over the MW
/// master-worker runtime: rank 0 hosts the driver and the simplex logic,
/// ranks 1..W host SamplingWorkers, each fronting a VertexServer with Ns
/// clients.  Results are bitwise identical to the sequential run of the
/// same options (counter-based noise), which the integration tests verify.
[[nodiscard]] MWRunResult runSimplexOverMW(const noise::StochasticObjective& objective,
                                           std::span<const core::Point> initial,
                                           const AlgorithmOptions& options,
                                           const MWRunConfig& config = {});

/// The master half of runSimplexOverMW over an already-populated
/// transport: rank 0 of `comm` hosts the driver and the simplex logic;
/// whoever occupies ranks 1..size-1 (in-process threads or remote
/// processes over TCP) must run SamplingWorker loops against the same
/// objective.  This is what `sfopt serve` calls — distributed results are
/// bitwise identical to the in-process run because the noise is
/// counter-based and the wire encoding is byte-exact.
[[nodiscard]] MWRunResult runSimplexOverTransport(const noise::StochasticObjective& objective,
                                                  std::span<const core::Point> initial,
                                                  const AlgorithmOptions& options,
                                                  net::Transport& comm,
                                                  const MWRunConfig& config = {});

}  // namespace sfopt::mw
