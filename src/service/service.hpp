#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <ostream>
#include <string>
#include <unordered_map>

#include "mw/mw_driver.hpp"
#include "net/tcp_transport.hpp"
#include "service/durable_state.hpp"
#include "service/job.hpp"
#include "service/job_table.hpp"
#include "service/ticket_exchange.hpp"

namespace sfopt::telemetry {
class Telemetry;
class Counter;
class Gauge;
class Histogram;
}

namespace sfopt::service {

struct ServiceOptions {
  /// Jobs allowed to run engines concurrently; more wait in the queue.
  int maxConcurrentJobs = 2;
  /// Jobs allowed to wait behind the running set; beyond this submissions
  /// are refused with a retryable status.
  int maxQueuedJobs = 8;
  /// Backpressure threshold on the exchange's undrained shard backlog:
  /// above it, new submissions are refused retryably until the fleet
  /// catches up.
  std::size_t maxPendingShards = 1024;
  /// Exit once this many jobs reached a terminal state (0 = serve until
  /// stopped).  CI smoke runs use it for a bounded daemon lifetime.
  std::int64_t maxJobs = 0;
  /// Longest the daemon waits with shards outstanding and none completing
  /// before it declares the fleet lost and fails the running jobs.
  double recvTimeoutSeconds = 300.0;
  /// Durability: when non-empty, every job-table transition is journaled
  /// under this directory and running jobs snapshot their optimizer state
  /// there, so a restarted daemon resumes every job (bitwise) where the
  /// killed one left off.  Empty = in-memory only (the pre-durability
  /// behaviour).
  std::string stateDir;
  /// Snapshot cadence in engine iterations (only meaningful with a state
  /// dir; <= 0 disables snapshots, leaving journal-only durability).
  std::int64_t checkpointInterval = 25;
  /// Keep at most this many finished jobs in the table, evicting oldest
  /// first (the journal keeps them durable).  0 = unlimited.
  std::int64_t resultRetention = 0;
  /// Straggler mitigation: duplicate-dispatch a shard to an idle worker
  /// once it has been outstanding longer than this factor times the
  /// fleet's EWMA execute time.  0 = off.
  double speculativeFactor = 0.0;
  telemetry::Telemetry* telemetry = nullptr;
  std::ostream* log = nullptr;  ///< lifecycle lines; nullptr = silent
};

/// The long-lived multi-tenant daemon behind `sfopt serve --daemon`: one
/// accept loop, one worker fleet, one MWDriver — many concurrent jobs.
///
/// Topology: clients connect over the same TCP transport workers use
/// (Hello peer-kind byte routes them), submit JobSpecs, and wait for
/// JobResult frames.  Each admitted job runs its unmodified optimization
/// engine on a dedicated thread against an ExchangeBackend; the daemon
/// thread multiplexes every job's shard tickets fairly into the shared
/// driver and routes completions back by ticket.  Because each engine's
/// sample stream is counter-keyed and folded canonically, a job's result
/// is bitwise identical to running it alone — whatever the interleaving,
/// worker losses, or a neighbour's cancellation.
///
/// Event loop: the daemon thread blocks only in the transport's poll.
/// Worker and client frames end the wait as socket events; an engine
/// thread's submit and a job's finish end it through TcpCommWorld::wake(),
/// so a sampling round costs the fleet's latency, not a poll interval.
///
/// Failure envelope: a worker loss mid-job is the driver's ordinary
/// requeue path (invisible to jobs); losing the whole fleet fails the
/// running jobs with a retryable-style error, drops the driver, and keeps
/// accepting workers and jobs.  Cancelling a job aborts its engine thread
/// at the next sampling call; its in-flight shards are dropped on
/// completion.
class OptimizationService {
 public:
  OptimizationService(net::TcpCommWorld& comm, ServiceOptions options);
  ~OptimizationService();

  OptimizationService(const OptimizationService&) = delete;
  OptimizationService& operator=(const OptimizationService&) = delete;

  /// Serve until `stop` is set or the maxJobs budget completes.  Returns
  /// the number of jobs that reached a terminal state.
  std::int64_t run(const std::atomic<bool>& stop);

  [[nodiscard]] JobTable& table() noexcept { return table_; }

 private:
  struct Route {
    std::uint64_t jobId = 0;
    std::uint64_t ticket = 0;
  };
  struct FinishedJob {
    std::uint64_t id = 0;
    JobState state = JobState::Failed;
    std::optional<JobOutcome> outcome;
    std::string error;
  };

  [[nodiscard]] double telNow() const;
  void logLine(const std::string& line);
  /// End the span tree of a completion no job scheduler will see.
  void traceClosedShard(std::uint64_t ticket, std::size_t chunks);

  void recoverState();
  void ensureDriver();
  void reapFinished();
  void handleClients();
  void handleSubmit(net::TcpCommWorld::ClientRequest& req);
  void handleStatus(net::TcpCommWorld::ClientRequest& req);
  void handleCancel(net::TcpCommWorld::ClientRequest& req);
  void handleResultFetch(net::TcpCommWorld::ClientRequest& req);
  void applyRetention();
  void promoteQueued();
  void pumpShards();
  void progress();
  void fleetFailure(const std::string& what);
  void finalizeJob(JobRecord& rec, JobState state, std::optional<JobOutcome> outcome,
                   std::string error);
  void notifyResult(const JobRecord& rec);
  void sendStatus(int client, const StatusReply& reply);
  void shutdownAll();

  void jobMain(std::uint64_t id, JobSpec spec,
               std::optional<core::SimplexCheckpoint> resume) noexcept;
  void pushFinished(FinishedJob f);

  net::TcpCommWorld& comm_;
  ServiceOptions opts_;
  JobTable table_;
  TicketExchange exchange_{[this] { comm_.wake(); }};
  std::unique_ptr<DurableState> durable_;
  /// Graceful-stop flag: while set, non-Done finalizations are not
  /// journaled and their snapshots are kept, so interrupted jobs recover
  /// as queued/running on the next start instead of failed.
  bool durableShutdown_ = false;
  std::unique_ptr<mw::MWDriver> driver_;
  std::unordered_map<std::uint64_t, Route> routes_;  ///< driver task id -> job/ticket
  /// Monotonic time of the last completion, or of the first wait since
  /// nothing was outstanding; < 0 while nothing is.
  double stalledSince_ = -1.0;

  std::mutex finishedMutex_;
  std::condition_variable finishedCv_;
  std::deque<FinishedJob> finished_;

  telemetry::Counter* jobsSubmitted_ = nullptr;
  telemetry::Counter* jobsRejected_ = nullptr;
  telemetry::Counter* jobsCompleted_ = nullptr;
  telemetry::Counter* jobsCancelled_ = nullptr;
  telemetry::Counter* jobsFailed_ = nullptr;
  telemetry::Counter* shardsRouted_ = nullptr;
  telemetry::Histogram* jobSeconds_ = nullptr;
  telemetry::Counter* checkpointsWritten_ = nullptr;
  telemetry::Counter* recoveredQueued_ = nullptr;
  telemetry::Counter* recoveredRunning_ = nullptr;
  telemetry::Counter* recoveredFinished_ = nullptr;
  telemetry::Gauge* journalBytes_ = nullptr;
  telemetry::Histogram* recoverySeconds_ = nullptr;
};

}  // namespace sfopt::service
