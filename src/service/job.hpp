#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/point.hpp"
#include "core/result.hpp"
#include "core/sampling_backend.hpp"
#include "core/termination.hpp"
#include "mw/message_buffer.hpp"
#include "mw/parallel_runner.hpp"
#include "noise/noisy_function.hpp"

namespace sfopt::service {

/// Job-oriented control plane vocabulary shared by the daemon
/// (OptimizationService), the client library (ServiceClient) and the
/// worker executor (ServiceWorker).  Everything here is plain data plus
/// MessageBuffer marshaling — the wire schema of the JobSubmit / JobStatus
/// / JobCancel / JobResult frames and of the self-describing per-job
/// sampling tasks.

/// Trace ids of service runs are namespaced by job id: every shard ticket
/// is (jobId << kJobTraceShift) | sequence, and the per-job root span uses
/// (jobId << kJobTraceShift) exactly (shard sequences start at 1, so the
/// root id never collides with a ticket).  Matches
/// telemetry::kTraceNamespaceShift.
inline constexpr int kJobTraceShift = 40;

[[nodiscard]] constexpr std::uint64_t jobTraceNamespace(std::uint64_t jobId) noexcept {
  return jobId << kJobTraceShift;
}

/// Everything a worker needs to reconstruct a job's objective, carried on
/// every sampling task so one worker serves many jobs with no per-job
/// handshake.  `clients` sizes the worker-side VertexServer pool
/// (1..mw::kMaxVertexClients).
struct ObjectiveSpec {
  std::string function = "rosenbrock";
  std::int64_t dim = 4;
  double sigma0 = 1.0;
  std::uint64_t seed = 2026;
  std::int64_t clients = 1;

  void pack(mw::MessageBuffer& buf) const;
  [[nodiscard]] static ObjectiveSpec unpack(mw::MessageBuffer& buf);

  /// Instantiate the objective; throws std::runtime_error on an unknown
  /// function name or a dimension the function rejects.
  [[nodiscard]] noise::NoisyFunction makeObjective() const;
};

/// One submitted optimization: the objective, the simplex algorithm and
/// its knobs, the termination budget, the evaluation-pipeline knobs, and
/// the explicit initial simplex (clients compute it locally, so a job
/// reruns bitwise identically to the equivalent in-process `sfopt
/// optimize` invocation).
struct JobSpec {
  ObjectiveSpec objective;
  std::string algorithm = "pc";  ///< det | mn | anderson | pc | pcmn
  double k = 1.0;                ///< mn / pc confidence constant
  double k1 = 1.0;               ///< anderson
  double k2 = 0.0;               ///< anderson
  core::TerminationCriteria termination;
  std::int64_t shardMinSamples = 0;
  bool speculate = false;
  std::int64_t priority = 1;         ///< 1..100; weighted-round-robin drain weight
  std::vector<core::Point> initial;  ///< exactly dim + 1 points

  void pack(mw::MessageBuffer& buf) const;
  [[nodiscard]] static JobSpec unpack(mw::MessageBuffer& buf);

  /// Reject malformed specs before admission (unknown algorithm or
  /// function, wrong simplex shape).  Throws std::runtime_error.
  void validate() const;

  /// Build the engine options this spec describes (no backend/telemetry
  /// attached yet; the job runner plugs those in).
  [[nodiscard]] mw::AlgorithmOptions makeOptions() const;
};

/// Lifecycle of a job inside the daemon, plus the two wire-only codes
/// replies need (a rejected submission never gets a table entry, an
/// unknown id has nothing to report).
enum class JobState : std::int64_t {
  Queued = 0,
  Running = 1,
  Done = 2,
  Cancelled = 3,
  Failed = 4,
  Rejected = 5,  ///< wire-only: admission refused
  Unknown = 6,   ///< wire-only: no such job id
};

[[nodiscard]] std::string_view toString(JobState s) noexcept;

/// The result payload of a finished job: core::OptimizationResult minus
/// the trace, marshalable.
struct JobOutcome {
  core::TerminationReason reason = core::TerminationReason::Converged;
  core::Point best;
  double bestEstimate = 0.0;
  std::optional<double> bestTrue;
  std::int64_t iterations = 0;
  std::int64_t totalSamples = 0;
  double elapsedTime = 0.0;
  core::MoveCounters counters;

  void pack(mw::MessageBuffer& buf) const;
  [[nodiscard]] static JobOutcome unpack(mw::MessageBuffer& buf);

  [[nodiscard]] static JobOutcome fromResult(const core::OptimizationResult& res);
  [[nodiscard]] core::OptimizationResult toResult() const;
};

/// Daemon -> client reply riding a JobStatus frame (also the ack for
/// JobSubmit and JobCancel).  `queued`/`running` snapshot the daemon's
/// load so a rejected client can reason about retry timing.
struct StatusReply {
  std::uint64_t jobId = 0;
  JobState state = JobState::Unknown;
  std::string detail;
  bool retryable = false;  ///< rejection was load-based; retry later
  std::int64_t queued = 0;
  std::int64_t running = 0;

  void pack(mw::MessageBuffer& buf) const;
  [[nodiscard]] static StatusReply unpack(mw::MessageBuffer& buf);
};

/// Daemon -> client terminal notification riding a JobResult frame.
struct ResultReply {
  std::uint64_t jobId = 0;
  JobState state = JobState::Failed;
  std::string detail;                 ///< error text for Failed/Cancelled
  std::optional<JobOutcome> outcome;  ///< present when state == Done

  void pack(mw::MessageBuffer& buf) const;
  [[nodiscard]] static ResultReply unpack(mw::MessageBuffer& buf);
};

/// Self-describing sampling task wire: the job id and objective spec
/// prefix, then exactly mw::SamplingTask's input fields.  The worker
/// resolves (or builds) the per-job VertexServer from the prefix and runs
/// the batch; the reply is mw::SamplingTask's chunked result, unchanged.
void packServiceTaskInput(mw::MessageBuffer& buf, std::uint64_t jobId,
                          const ObjectiveSpec& spec,
                          const core::SamplingBackend::BatchRequest& request);

}  // namespace sfopt::service
