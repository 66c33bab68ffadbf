#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

#include "mw/comm.hpp"
#include "mw/mw_task.hpp"

namespace sfopt::telemetry {
class Telemetry;
class Counter;
class Histogram;
}

namespace sfopt::mw {

/// Re-implementation of the MW framework's MWDriver abstraction: the
/// master process that "manages a set of workers to execute the tasks".
///
/// The driver lives at rank 0 of any Transport (in-process CommWorld or
/// the distributed TcpCommWorld); workers occupy ranks 1..size-1.  Tasks
/// are dispatched dynamically: every worker gets one task up front, and
/// each completed result immediately frees its worker for the next queued
/// task, so stragglers do not serialize the work.
///
/// One task table, one dispatch loop and one message handler: submit()
/// hands a task in, and poll()/drain() hand completions out as they
/// finish.  Samplers reach it through MWSamplingBackend and an
/// EvalScheduler; the multi-tenant service drives it from its daemon loop.
///
/// Worker failure is part of the protocol, not an afterthought: a
/// kTagError reply requeues the task elsewhere, a kTagWorkerLost control
/// message (synthesized by the transport on disconnect or heartbeat
/// silence) marks the rank dead and requeues whatever it was running, and
/// a kTagWorkerJoined message grows the dispatch state so a fresh worker
/// starts pulling tasks at once.
class MWDriver {
 public:
  explicit MWDriver(net::Transport& comm);

  /// One finished task: the id submit() returned and the worker's result
  /// payload.
  struct AsyncCompletion {
    std::uint64_t id = 0;
    MessageBuffer payload;
  };

  /// submit() enqueues one task (dispatching it immediately when a worker
  /// is free) and returns its id; poll() waits up to `timeoutSeconds` for
  /// at least one completion (0 = drain only) and returns everything
  /// finished so far; drain() blocks until nothing is outstanding.
  /// Completions arrive in completion order, not submit order.  A shard
  /// whose worker fails or dies is requeued and re-dispatched
  /// transparently.  Any wait with tasks outstanding throws once a whole
  /// receive-timeout window (see setRecvTimeout) passes without a worker
  /// message; a window that carries only an error or loss report still
  /// counts as progress, so a requeued task gets a fresh window.
  ///
  /// `trace`, when nonzero, is used verbatim as the distributed trace id
  /// stamped on the task's spans and wire messages (0 keeps the legacy
  /// trace = task id).  The multi-tenant service passes its own ticket ids
  /// of the form (jobId << kTraceNamespaceShift) | sequence, so a capture
  /// holding many interleaved jobs still groups one span tree per shard
  /// and one namespace per job; requeues reuse the stored trace, so a
  /// ticket's whole retry history stays in its job's namespace.  Callers
  /// supplying traces are responsible for their uniqueness.
  [[nodiscard]] std::uint64_t submit(MessageBuffer input, std::uint64_t trace = 0);
  [[nodiscard]] std::vector<AsyncCompletion> poll(double timeoutSeconds);
  [[nodiscard]] std::vector<AsyncCompletion> drain();

  /// Tasks submitted but not yet completed (pending + in flight).
  [[nodiscard]] std::size_t outstanding() const noexcept { return tasks_.size(); }

  /// Send a shutdown message to every live worker.  Idempotent.
  void shutdown();

  [[nodiscard]] int workerCount() const noexcept { return comm_.size() - 1; }

  /// Workers not marked dead (the world only ever grows; dead ranks stay).
  [[nodiscard]] int liveWorkerCount() const noexcept;

  [[nodiscard]] std::uint64_t tasksCompleted() const noexcept { return tasksCompleted_; }

  /// Times a task was requeued after a worker-side failure or worker loss.
  [[nodiscard]] std::uint64_t tasksRequeued() const noexcept { return tasksRequeued_; }

  /// Workers declared lost (disconnect / heartbeat silence).
  [[nodiscard]] std::uint64_t workersLost() const noexcept { return workersLost_; }

  /// Per-task retry budget; exhausting it throws out of the call that
  /// handles the last failure report.
  void setMaxRetries(int retries) { maxRetries_ = retries; }
  [[nodiscard]] int maxRetries() const noexcept { return maxRetries_; }

  /// Longest silence poll() and drain() tolerate while tasks are in flight
  /// before concluding the run is wedged and throwing.  Generous default:
  /// transports already convert dead workers into kTagWorkerLost well
  /// before this fires; it is the backstop, not the detector.
  void setRecvTimeout(double seconds) { recvTimeoutSeconds_ = seconds; }
  [[nodiscard]] double recvTimeout() const noexcept { return recvTimeoutSeconds_; }

  /// Completions (or error reports) that arrived for a task this driver no
  /// longer tracks, or from a rank that is not the task's current holder —
  /// duplicated frames, or late frames reordered across a reconnect.  They
  /// are discarded without touching the dispatch bookkeeping: the holder's
  /// own report (identical bytes, same deterministic task) is the one that
  /// folds.
  [[nodiscard]] std::uint64_t staleResultsDiscarded() const noexcept {
    return staleResultsDiscarded_;
  }

  /// Attach the observability spine (non-owning; must outlive the driver).
  /// Pre-registers the task-lifecycle metrics — queue-wait and execute
  /// histograms, the fleet idle fraction sampled at every completion,
  /// completion/requeue counters.
  ///
  /// With a spine attached every task additionally becomes a span tree
  /// keyed by its trace id: one `shard.lifecycle` root per task, a
  /// `shard.queue` child per dispatch attempt, and a `shard.remote` child
  /// covering wire + worker execution (ended with outcome ok / error /
  /// lost).  Whoever consumes a completion ends the tree with a
  /// `shard.folded` or `shard.discarded` marker: the EvalScheduler, or the
  /// service for a completion whose job has closed.  The trace context rides the transport envelope, so a
  /// worker's `worker.execute` span parents under the matching
  /// `shard.remote`.
  void setTelemetry(telemetry::Telemetry* telemetry);

 private:
  [[nodiscard]] bool isDead(Rank w) const noexcept;
  void ensureRank(Rank w);
  [[nodiscard]] double telNow() const;

  /// One task, from submit() to completion; persists across calls so
  /// tasks overlap rounds.
  struct Task {
    std::vector<std::byte> wire;  ///< framed input, kept for requeue
    int retries = 0;
    Rank lastFailedOn = -1;
    double enqueuedAt = 0.0;
    double dispatchedAt = 0.0;
    std::uint64_t rootSpan = 0;    ///< shard.lifecycle span (trace = `trace`)
    std::uint64_t remoteSpan = 0;  ///< open shard.remote span while dispatched
    std::uint64_t trace = 0;       ///< trace id: caller-supplied, or task id
  };
  void growTo(int worldSize);
  void dispatch();
  void requeue(Rank worker, std::uint64_t id, const std::string& why, const char* outcome);
  void handleMessage(Message msg);
  void observeIdleFraction();
  [[nodiscard]] static double steadySeconds();

  net::Transport& comm_;
  std::uint64_t nextTaskId_ = 1;
  std::uint64_t tasksCompleted_ = 0;
  std::uint64_t tasksRequeued_ = 0;
  std::uint64_t workersLost_ = 0;
  int maxRetries_ = 3;
  double recvTimeoutSeconds_ = 300.0;
  bool shutDown_ = false;
  std::vector<bool> dead_;  ///< indexed by rank; the world only grows

  std::unordered_map<std::uint64_t, Task> tasks_;
  std::deque<std::uint64_t> pending_;
  std::vector<bool> busy_;
  /// What each busy rank is running; a task is held by at most one rank.
  std::vector<std::uint64_t> inFlightId_;
  int inFlight_ = 0;
  std::uint64_t staleResultsDiscarded_ = 0;
  std::vector<AsyncCompletion> ready_;

  /// Pre-registered handles; all non-null exactly when telemetry_ is set.
  telemetry::Telemetry* telemetry_ = nullptr;
  telemetry::Counter* telTasksCompleted_ = nullptr;
  telemetry::Counter* telTasksRequeued_ = nullptr;
  telemetry::Counter* telTasksDispatched_ = nullptr;
  telemetry::Counter* telWorkersLost_ = nullptr;
  telemetry::Counter* telStaleDiscards_ = nullptr;
  telemetry::Histogram* telQueueWait_ = nullptr;
  telemetry::Histogram* telExecute_ = nullptr;
  telemetry::Histogram* telIdleFraction_ = nullptr;
};

}  // namespace sfopt::mw
