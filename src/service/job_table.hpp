#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/checkpoint.hpp"
#include "service/job.hpp"

namespace sfopt::service {

/// Per-job daemon state.  Owned and mutated by the daemon thread only;
/// job engine threads communicate exclusively through the TicketExchange
/// and the service's finished queue.
struct JobRecord {
  std::uint64_t id = 0;
  JobSpec spec;
  JobState state = JobState::Queued;
  int client = -1;  ///< submitting client id (sendToClient target); -1 = detached
  std::string error;
  std::optional<JobOutcome> outcome;
  std::thread thread;  ///< running engine thread; joined by the reaper
  double submittedAt = 0.0;
  double startedAt = 0.0;
  double finishedAt = 0.0;
  /// Snapshot recovered from the durable state dir; the engine resumes
  /// from it instead of the initial simplex when the job is promoted.
  std::optional<core::SimplexCheckpoint> resume;
};

/// Admission verdict for one JobSubmit.
struct Admission {
  bool accepted = false;
  bool retryable = false;  ///< refusal was load-based; client may retry
  std::uint64_t jobId = 0;
  std::string message;
};

/// The daemon's job registry with admission control: at most
/// `maxConcurrent` jobs run at once and at most `maxQueued` wait behind
/// them; submissions beyond that are refused with a retryable status
/// instead of being parked forever or crashing the daemon.
///
/// The table keeps per-state indexes (queued ids, running and terminal
/// counts), so the daemon loop's per-pass queries cost O(1) or O(log n)
/// however many jobs it has served.  Every state change of a record in the
/// table goes through setState(), which keeps them in step.
class JobTable {
 public:
  JobTable(int maxConcurrent, int maxQueued);

  /// Admit or refuse a (pre-validated) spec.  On acceptance the job is
  /// recorded as Queued.
  [[nodiscard]] Admission admit(JobSpec spec, int client, double now);

  [[nodiscard]] JobRecord* find(std::uint64_t id);

  /// Lowest-id queued job, or nullptr.  The caller promotes it.
  [[nodiscard]] JobRecord* nextQueued();

  /// Move a job of this table to `state`.
  void setState(JobRecord& rec, JobState state);

  /// Recovery: re-insert a journal-replayed record verbatim, keeping its
  /// original id.  The caller is the durable-state recovery path only.
  void restore(JobRecord rec);

  /// Recovery: continue the id sequence where the journal left off so
  /// restarted daemons never reuse a job id (ticket namespaces stay
  /// unique across restarts).
  void setNextId(std::uint64_t next) noexcept;

  /// Retention: drop the oldest terminal records until at most `cap`
  /// remain, remembering each evicted job's final state so `status` can
  /// say "evicted" instead of "unknown".  Returns the evicted ids.
  [[nodiscard]] std::vector<std::uint64_t> evictFinishedOver(std::size_t cap);

  /// Final state of an evicted job, or nullptr if the id was never
  /// evicted.
  [[nodiscard]] const JobState* evictedState(std::uint64_t id) const;

  /// Recovery: mark a job as evicted (journal replay of an Evicted entry).
  void markEvicted(std::uint64_t id, JobState finalState);

  [[nodiscard]] int runningCount() const noexcept;
  [[nodiscard]] int queuedCount() const noexcept;
  [[nodiscard]] std::int64_t completedCount() const noexcept;  ///< terminal states
  [[nodiscard]] bool anyActive() const noexcept;  ///< queued or running jobs exist

  /// Every record, by id.  Change a record's state through setState().
  [[nodiscard]] std::map<std::uint64_t, JobRecord>& all() noexcept { return jobs_; }

  [[nodiscard]] int maxConcurrent() const noexcept { return maxConcurrent_; }
  [[nodiscard]] int maxQueued() const noexcept { return maxQueued_; }

 private:
  /// Add (`delta` = 1) or remove (-1) `rec` from the per-state indexes.
  void track(const JobRecord& rec, int delta);

  std::map<std::uint64_t, JobRecord> jobs_;
  std::map<std::uint64_t, JobState> evicted_;  ///< final state of retained-out jobs
  std::set<std::uint64_t> queued_;             ///< ids of Queued records, lowest first
  int running_ = 0;                            ///< Running records
  std::int64_t terminal_ = 0;                  ///< Done/Cancelled/Failed records
  std::uint64_t nextId_ = 1;
  int maxConcurrent_;
  int maxQueued_;
};

}  // namespace sfopt::service
