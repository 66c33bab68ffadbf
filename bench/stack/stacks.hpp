#pragma once

// The stack benchmark's workloads and the three stacks a job stream runs
// through: inline core::run*, one-shot loopback TCP (a fresh 3-worker
// fleet per job, as `sfopt serve` does) and the durable multi-tenant
// daemon driven by ServiceClients.  Shared by stack_bench and its tests.

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/result.hpp"
#include "mw/parallel_runner.hpp"
#include "service/job.hpp"
#include "stack/timed_layers.hpp"
#include "telemetry/telemetry.hpp"

namespace sfopt::bench {

/// Workers in every MW fleet the bench starts (one-shot TCP, daemon, oracle).
inline constexpr int kFleetWorkers = 3;

/// One job of a workload's stream, generated from (workload seed, index).
struct Job {
  std::unique_ptr<noise::StochasticObjective> objective;
  std::vector<core::Point> start;
  mw::AlgorithmOptions options;
  /// Daemon jobs: what the client submits (objective/options/start above
  /// are what it describes).
  std::optional<service::JobSpec> spec;
};

enum class Stack { Inline, OneShotTcp, Daemon };

struct Workload {
  std::string_view name;
  Stack stack;
  int clients;  ///< closed-loop client threads
  Job (*makeJob)(std::uint64_t seed, std::uint64_t index);
};

[[nodiscard]] const std::vector<Workload>& workloads();
[[nodiscard]] const Workload* findWorkload(std::string_view name);

/// Pins the calling thread to one of the CPUs the process may use, chosen
/// round-robin by `slot`, until it goes out of scope.  On a shared VM the
/// vCPUs run at unequal speeds (building the same inline job took 0.64 us
/// on one and 1.1 us on another), so spreading a run's inline jobs evenly
/// over all of them keeps its medians from following the CPU the
/// scheduler happened to start it on, and matches them to the core-speed
/// probe, which runs on every CPU.  A no-op off Linux.
class CpuPin {
 public:
  explicit CpuPin(std::size_t slot);
  ~CpuPin();
  CpuPin(const CpuPin&) = delete;
  CpuPin& operator=(const CpuPin&) = delete;

  /// How many CPUs the slots go round (1 off Linux).
  [[nodiscard]] static std::size_t cpus();

 private:
  bool pinned_ = false;
};

/// CPU seconds used so far by every thread of this process.  On a VM the
/// kernel leaves the time the host ran other tenants (steal) out of it.
[[nodiscard]] double processCpuSeconds();

/// The host's current core speed: the thread CPU seconds of one fixed,
/// bench-owned arithmetic loop, run at once on every CPU the process may
/// use (one pinned thread each), averaged over the CPUs.  No program code
/// runs in it, so two commits measured on one host share its scale.
[[nodiscard]] double coreSpeedProbe();

/// Per-layer readings of a traced pass, summed over its jobs.
struct LayerTotals {
  std::int64_t objectiveSamples = 0;  ///< samples the objective computed
  double objectiveSeconds = 0.0;      ///< inside the objective (or worker execute)
  double engineSelfSeconds = 0.0;     ///< engine wall minus time blocked below it
  double masterWaitSeconds = 0.0;     ///< master inside recv/recvFor/tryRecv
  double workerBusySeconds = 0.0;     ///< sum of worker recv -> reply send
  double fleetSeconds = 0.0;          ///< wall time a fleet was up, summed
  std::uint64_t tasks = 0;
  std::uint64_t messages = 0;
  std::uint64_t wireBytes = 0;
  std::uint64_t frames = 0;
  std::vector<double> taskOverheadUs;  ///< master send->recv minus worker execute
  std::vector<double> shardsPerJob;    ///< daemon: distinct traces per job namespace
};

/// A traced pass: the program's own Telemetry plus the bench decorators,
/// all feeding one in-memory sink.
struct Tracing {
  MemorySink sink;
  MonotonicClock clock;
  telemetry::Telemetry program{sink, clock};
  LayerTotals layers;
};

/// One job as its client saw it.
struct JobRun {
  std::uint64_t index = 0;
  bool ok = false;
  std::string error;
  core::OptimizationResult result;
  double wallSeconds = 0.0;    ///< run call / submit -> result in hand
  double cpuSeconds = 0.0;     ///< processCpuSeconds() over the same interval
  double submitSeconds = 0.0;  ///< daemon: submit -> ack
  /// Inline and one-shot TCP: process CPU seconds to build the job, plus
  /// (TCP) bind the listener and handshake the workers, the last part
  /// inside cpuSeconds.
  double setupCpuSeconds = 0.0;
  std::uint64_t requeues = 0;  ///< one-shot TCP: MW tasks requeued
};

/// Which jobs a pass runs: client c runs jobs c, c + clients, ... until
/// `deadline` (net::monotonicSeconds) passes, or, when `quota` is set,
/// exactly quota[c] jobs.
struct PassPlan {
  double deadline = 0.0;
  std::vector<std::size_t> quota;
};

struct Pass {
  std::vector<JobRun> jobs;  ///< ordered by job index
  double wallSeconds = 0.0;  ///< first job start -> last result
  /// Process CPU seconds the stream took: the daemon's over its whole
  /// wall time; elsewhere the sum of each job's set-up and run.
  double cpuSeconds = 0.0;
  /// Inline and one-shot TCP: a coreSpeedProbe() before each job.
  std::vector<double> probeSeconds;
  std::vector<std::size_t> perClient;  ///< jobs each client ran
  std::filesystem::path stateDir;      ///< daemon: the session's state dir
};

/// Bring a daemon workload's stack up to the point where its first job can
/// be submitted, tear it down again, and return the bring-up's process CPU
/// seconds.  (Inline and one-shot TCP jobs bring their own stack up:
/// JobRun.)
[[nodiscard]] double daemonSetupOnce(const Workload& w, std::uint64_t seed,
                                     const std::filesystem::path& scratch);

/// Run one pass of the workload's job stream through its stack.  With
/// `tracing` the decorators and the program's telemetry are on.
[[nodiscard]] Pass runPass(const Workload& w, std::uint64_t seed, const PassPlan& plan,
                           const std::filesystem::path& scratch, Tracing* tracing);

/// The correctness oracle: the same job run alone over in-process MW with
/// kFleetWorkers workers.  `checkpoints`, when set, collects the
/// snapshots the run emits every `checkpointEvery` iterations.
[[nodiscard]] core::OptimizationResult oracleRun(
    const Job& job, std::int64_t checkpointEvery = 0,
    std::vector<core::SimplexCheckpoint>* checkpoints = nullptr);

/// One oracle run of a stream job.
struct OracleRun {
  core::OptimizationResult result;
  double seconds = 0.0;
  std::vector<core::SimplexCheckpoint> checkpoints;
  std::string error;  ///< non-empty when the oracle itself threw
};

/// oracleRun for the workload's jobs `indices`, `threads` jobs at a time
/// (seconds are only meaningful with one thread).
[[nodiscard]] std::vector<OracleRun> runOracles(const Workload& w, std::uint64_t seed,
                                                std::span<const std::uint64_t> indices,
                                                int threads, std::int64_t checkpointEvery);

/// Bitwise outcome equality.  Inline sampling absorbs per sample while MW
/// folds chunk moments, so against an inline run only the best point,
/// iterations, samples and stop reason are compared.
[[nodiscard]] bool sameOutcome(const core::OptimizationResult& a,
                               const core::OptimizationResult& b, bool inlineVsMw);

}  // namespace sfopt::bench
