#include "service/service.hpp"

#include <algorithm>
#include <chrono>
#include <utility>
#include <variant>

#include "mw/parallel_runner.hpp"
#include "mw/sampling_service.hpp"
#include "net/socket.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/span.hpp"
#include "telemetry/telemetry.hpp"

namespace sfopt::service {

namespace {

/// Longest the daemon loop blocks in the transport poll.  Work arriving
/// from sockets or engine threads ends the wait at once; the cap only
/// bounds how often the loop checks the stop flag, the receive-timeout
/// stall and straggler speculation.
constexpr double kLoopWaitSeconds = 0.05;

}  // namespace

OptimizationService::OptimizationService(net::TcpCommWorld& comm, ServiceOptions options)
    : comm_(comm),
      opts_(options),
      table_(options.maxConcurrentJobs, options.maxQueuedJobs) {
  if (opts_.telemetry != nullptr) {
    auto& m = opts_.telemetry->metrics();
    jobsSubmitted_ = &m.counter("service.jobs.submitted");
    jobsRejected_ = &m.counter("service.jobs.rejected");
    jobsCompleted_ = &m.counter("service.jobs.completed");
    jobsCancelled_ = &m.counter("service.jobs.cancelled");
    jobsFailed_ = &m.counter("service.jobs.failed");
    shardsRouted_ = &m.counter("service.shards.routed");
    jobSeconds_ = &m.histogram("service.job.seconds",
                               telemetry::Histogram::exponentialBounds(0.01, 4.0, 10));
    checkpointsWritten_ = &m.counter("service.checkpoints_written");
    recoveredQueued_ = &m.counter("service.recovered_queued");
    recoveredRunning_ = &m.counter("service.recovered_running");
    recoveredFinished_ = &m.counter("service.recovered_finished");
    journalBytes_ = &m.gauge("service.journal_bytes");
    recoverySeconds_ = &m.histogram("service.recovery.seconds",
                                    telemetry::Histogram::exponentialBounds(0.001, 4.0, 10));
  }
  if (!opts_.stateDir.empty()) {
    durable_ = std::make_unique<DurableState>(opts_.stateDir);
    recoverState();
  }
}

OptimizationService::~OptimizationService() {
  // Defensive: run() normally tears everything down, but if it threw we
  // must not destroy the exchange while engine threads still reference it.
  for (auto& [id, rec] : table_.all()) {
    if (rec.state == JobState::Running) {
      exchange_.abort(id, "service destroyed", false);
    }
  }
  for (auto& [id, rec] : table_.all()) {
    if (rec.thread.joinable()) rec.thread.join();
  }
}

double OptimizationService::telNow() const {
  return opts_.telemetry != nullptr ? opts_.telemetry->tracer().now()
                                    : net::monotonicSeconds();
}

void OptimizationService::traceClosedShard(std::uint64_t ticket, std::size_t chunks) {
  if (opts_.telemetry == nullptr) return;
  auto& tracer = opts_.telemetry->tracer();
  tracer.emitComplete("shard.discarded", tracer.now(), 0, {{"reason", "closed"}},
                      {{"chunks", static_cast<double>(chunks)}}, ticket);
}

void OptimizationService::logLine(const std::string& line) {
  if (opts_.log != nullptr) *opts_.log << line << "\n" << std::flush;
}

void OptimizationService::recoverState() {
  const auto t0 = std::chrono::steady_clock::now();
  DurableState::Recovery recovery;
  try {
    recovery = durable_->recover();
  } catch (const std::exception& e) {
    logLine("recover:  journal unusable (" + std::string(e.what()) + "); starting fresh");
    return;
  }
  std::int64_t queued = 0;
  std::int64_t running = 0;
  std::int64_t finishedJobs = 0;
  for (DurableState::RecoveredJob& job : recovery.jobs) {
    if (job.evicted) {
      table_.markEvicted(job.id, job.state);
      ++finishedJobs;
      continue;
    }
    JobRecord rec;
    rec.id = job.id;
    rec.spec = std::move(job.spec);
    rec.client = -1;  // the submitting client died with the old daemon
    rec.submittedAt = telNow();
    switch (job.state) {
      case JobState::Queued:
        ++queued;
        break;
      case JobState::Running:
        // Re-admitted as queued; promotion resumes it from the snapshot
        // (or from its journaled initial simplex when none exists).
        rec.resume = std::move(job.checkpoint);
        ++running;
        break;
      default:
        rec.state = job.state;
        rec.error = std::move(job.error);
        rec.outcome = std::move(job.outcome);
        rec.finishedAt = rec.submittedAt;
        ++finishedJobs;
        break;
    }
    table_.restore(std::move(rec));
  }
  if (recovery.maxJobId > 0) table_.setNextId(recovery.maxJobId + 1);
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  if (recoveredQueued_ != nullptr) recoveredQueued_->add(queued);
  if (recoveredRunning_ != nullptr) recoveredRunning_->add(running);
  if (recoveredFinished_ != nullptr) recoveredFinished_->add(finishedJobs);
  if (recoverySeconds_ != nullptr) recoverySeconds_->observe(seconds);
  if (journalBytes_ != nullptr) {
    journalBytes_->set(static_cast<double>(durable_->journalBytes()));
  }
  if (recovery.entriesReplayed > 0 || recovery.truncatedTail) {
    logLine("recover:  replayed " + std::to_string(recovery.entriesReplayed) +
            " journal entries (" + std::to_string(queued) + " queued, " +
            std::to_string(running) + " running, " + std::to_string(finishedJobs) +
            " finished)" + (recovery.truncatedTail ? ", torn tail truncated" : ""));
  }
}

std::int64_t OptimizationService::run(const std::atomic<bool>& stop) {
  while (!stop.load(std::memory_order_relaxed)) {
    ensureDriver();
    exchange_.setParallelism(driver_ ? std::max(driver_->liveWorkerCount(), 1) : 1);
    reapFinished();
    applyRetention();
    handleClients();
    promoteQueued();
    pumpShards();
    progress();
    if (journalBytes_ != nullptr && durable_ != nullptr) {
      journalBytes_->set(static_cast<double>(durable_->journalBytes()));
    }
    if (opts_.maxJobs > 0 && table_.completedCount() >= opts_.maxJobs &&
        !table_.anyActive()) {
      break;
    }
  }
  shutdownAll();
  return table_.completedCount();
}

void OptimizationService::ensureDriver() {
  if (driver_ != nullptr) return;
  if (comm_.size() < 2 || comm_.liveWorkers() < 1) return;
  driver_ = std::make_unique<mw::MWDriver>(comm_);
  driver_->setTelemetry(opts_.telemetry);
  driver_->setRecvTimeout(opts_.recvTimeoutSeconds);
  driver_->setSpeculativeFactor(opts_.speculativeFactor);
  logLine("fleet:    driver up with " + std::to_string(driver_->liveWorkerCount()) +
          " live worker(s)");
}

void OptimizationService::reapFinished() {
  std::deque<FinishedJob> drained;
  {
    const std::lock_guard<std::mutex> lock(finishedMutex_);
    drained.swap(finished_);
  }
  for (FinishedJob& f : drained) {
    JobRecord* rec = table_.find(f.id);
    if (rec == nullptr) continue;
    if (rec->thread.joinable()) rec->thread.join();
    finalizeJob(*rec, f.state, std::move(f.outcome), std::move(f.error));
  }
}

void OptimizationService::finalizeJob(JobRecord& rec, JobState state,
                                      std::optional<JobOutcome> outcome,
                                      std::string error) {
  table_.setState(rec, state);
  rec.outcome = std::move(outcome);
  rec.error = std::move(error);
  rec.finishedAt = telNow();
  if (durable_ != nullptr && !(durableShutdown_ && rec.state != JobState::Done)) {
    durable_->recordFinished(rec.id, rec.state, rec.error, rec.outcome);
    durable_->removeJobCheckpoint(rec.id);
  }
  // Completions delivered after the job's scheduler last polled end their
  // span trees here.  In-flight routes stay: their completions still
  // arrive from the fleet and progress() marks each one shard.discarded
  // (closed job) so the span trees terminate.  fleetFailure clears them
  // if the fleet dies.
  for (const auto& c : exchange_.closeJob(rec.id)) traceClosedShard(c.ticket, c.chunks.size());
  const double started = rec.startedAt != 0.0 ? rec.startedAt : rec.submittedAt;
  if (opts_.telemetry != nullptr) {
    opts_.telemetry->tracer().emitComplete(
        "service.job", started, 0,
        {{"outcome", std::string(toString(rec.state))},
         {"algorithm", rec.spec.algorithm},
         {"function", rec.spec.objective.function}},
        {{"job", static_cast<double>(rec.id)}}, jobTraceNamespace(rec.id));
  }
  if (jobSeconds_ != nullptr) jobSeconds_->observe(rec.finishedAt - started);
  switch (rec.state) {
    case JobState::Done:
      if (jobsCompleted_ != nullptr) jobsCompleted_->add(1);
      break;
    case JobState::Cancelled:
      if (jobsCancelled_ != nullptr) jobsCancelled_->add(1);
      break;
    default:
      if (jobsFailed_ != nullptr) jobsFailed_->add(1);
      break;
  }
  logLine("job " + std::to_string(rec.id) + ": " + std::string(toString(rec.state)) +
          (rec.error.empty() ? "" : " (" + rec.error + ")"));
  notifyResult(rec);
}

void OptimizationService::notifyResult(const JobRecord& rec) {
  if (rec.client < 1) return;
  ResultReply reply;
  reply.jobId = rec.id;
  reply.state = rec.state;
  reply.detail = rec.error;
  reply.outcome = rec.outcome;
  mw::MessageBuffer buf;
  reply.pack(buf);
  try {
    comm_.sendToClient(rec.client, net::FrameType::JobResult, std::move(buf));
  } catch (const std::exception&) {
    // Client id no longer valid; the result stays queryable via status.
  }
}

void OptimizationService::sendStatus(int client, const StatusReply& reply) {
  mw::MessageBuffer buf;
  reply.pack(buf);
  try {
    comm_.sendToClient(client, net::FrameType::JobStatus, std::move(buf));
  } catch (const std::exception&) {
  }
}

void OptimizationService::handleClients() {
  for (auto& req : comm_.takeClientRequests()) {
    switch (req.type) {
      case net::FrameType::JobSubmit:
        handleSubmit(req);
        break;
      case net::FrameType::JobStatus:
        handleStatus(req);
        break;
      case net::FrameType::JobCancel:
        handleCancel(req);
        break;
      case net::FrameType::JobResult:
        handleResultFetch(req);
        break;
      default:
        break;
    }
  }
}

void OptimizationService::handleSubmit(net::TcpCommWorld::ClientRequest& req) {
  StatusReply reply;
  reply.queued = table_.queuedCount();
  reply.running = table_.runningCount();
  JobSpec spec;
  try {
    spec = JobSpec::unpack(req.payload);
    spec.validate();
  } catch (const std::exception& e) {
    reply.state = JobState::Rejected;
    reply.retryable = false;
    reply.detail = e.what();
    if (jobsRejected_ != nullptr) jobsRejected_->add(1);
    sendStatus(req.client, reply);
    return;
  }
  if (exchange_.pendingShards() > opts_.maxPendingShards) {
    reply.state = JobState::Rejected;
    reply.retryable = true;
    reply.detail = "shard backlog over " + std::to_string(opts_.maxPendingShards) +
                   "; retry later";
    if (jobsRejected_ != nullptr) jobsRejected_->add(1);
    sendStatus(req.client, reply);
    return;
  }
  const Admission a = table_.admit(std::move(spec), req.client, telNow());
  if (!a.accepted) {
    reply.state = JobState::Rejected;
    reply.retryable = a.retryable;
    reply.detail = a.message;
    if (jobsRejected_ != nullptr) jobsRejected_->add(1);
    sendStatus(req.client, reply);
    return;
  }
  if (jobsSubmitted_ != nullptr) jobsSubmitted_->add(1);
  JobRecord* rec = table_.find(a.jobId);
  if (durable_ != nullptr) durable_->recordSubmitted(a.jobId, rec->spec);
  logLine("job " + std::to_string(a.jobId) + ": queued (" + rec->spec.algorithm + " " +
          rec->spec.objective.function + " dim " +
          std::to_string(rec->spec.objective.dim) + ", client " +
          std::to_string(req.client) + ")");
  reply.jobId = a.jobId;
  reply.state = JobState::Queued;
  reply.detail = a.message;
  reply.queued = table_.queuedCount();
  reply.running = table_.runningCount();
  sendStatus(req.client, reply);
}

void OptimizationService::handleStatus(net::TcpCommWorld::ClientRequest& req) {
  StatusReply reply;
  reply.queued = table_.queuedCount();
  reply.running = table_.runningCount();
  std::uint64_t id = 0;
  try {
    id = req.payload.unpackUint64();
  } catch (const std::exception&) {
    reply.detail = "malformed status request";
    sendStatus(req.client, reply);
    return;
  }
  if (id == 0) {
    reply.state = JobState::Unknown;
    reply.detail = std::to_string(table_.queuedCount()) + " queued, " +
                   std::to_string(table_.runningCount()) + " running, " +
                   std::to_string(table_.completedCount()) + " finished";
    sendStatus(req.client, reply);
    return;
  }
  JobRecord* rec = table_.find(id);
  if (rec == nullptr) {
    reply.jobId = id;
    if (const JobState* evicted = table_.evictedState(id); evicted != nullptr) {
      reply.state = *evicted;
      reply.detail = "result evicted by --result-retention (final state " +
                     std::string(toString(*evicted)) + "); the journal retains it";
    } else {
      reply.state = JobState::Unknown;
      reply.detail = "no such job";
    }
    sendStatus(req.client, reply);
    return;
  }
  reply.jobId = id;
  reply.state = rec->state;
  reply.detail = rec->error;
  sendStatus(req.client, reply);
}

void OptimizationService::handleResultFetch(net::TcpCommWorld::ClientRequest& req) {
  ResultReply reply;
  try {
    reply.jobId = req.payload.unpackUint64();
  } catch (const std::exception&) {
    reply.state = JobState::Unknown;
    reply.detail = "malformed result request";
  }
  if (reply.detail.empty()) {
    JobRecord* rec = table_.find(reply.jobId);
    if (rec == nullptr) {
      if (const JobState* evicted = table_.evictedState(reply.jobId); evicted != nullptr) {
        reply.state = *evicted;
        reply.detail = "result evicted by --result-retention (final state " +
                       std::string(toString(*evicted)) + "); the journal retains it";
      } else {
        reply.state = JobState::Unknown;
        reply.detail = "no such job";
      }
    } else if (rec->state == JobState::Queued || rec->state == JobState::Running) {
      reply.state = rec->state;
      reply.detail = "not finished";
    } else {
      reply.state = rec->state;
      reply.detail = rec->error;
      reply.outcome = rec->outcome;
    }
  }
  mw::MessageBuffer buf;
  reply.pack(buf);
  try {
    comm_.sendToClient(req.client, net::FrameType::JobResult, std::move(buf));
  } catch (const std::exception&) {
  }
}

void OptimizationService::applyRetention() {
  if (opts_.resultRetention <= 0) return;
  for (const std::uint64_t id :
       table_.evictFinishedOver(static_cast<std::size_t>(opts_.resultRetention))) {
    if (durable_ != nullptr) durable_->recordEvicted(id);
    logLine("job " + std::to_string(id) + ": evicted (result retention)");
  }
}

void OptimizationService::handleCancel(net::TcpCommWorld::ClientRequest& req) {
  StatusReply reply;
  reply.queued = table_.queuedCount();
  reply.running = table_.runningCount();
  std::uint64_t id = 0;
  try {
    id = req.payload.unpackUint64();
  } catch (const std::exception&) {
    reply.detail = "malformed cancel request";
    sendStatus(req.client, reply);
    return;
  }
  reply.jobId = id;
  JobRecord* rec = table_.find(id);
  if (rec == nullptr) {
    reply.state = JobState::Unknown;
    reply.detail = "no such job";
    sendStatus(req.client, reply);
    return;
  }
  if (rec->state == JobState::Queued) {
    finalizeJob(*rec, JobState::Cancelled, std::nullopt, "cancelled before start");
    reply.state = JobState::Cancelled;
    reply.detail = "cancelled";
  } else if (rec->state == JobState::Running) {
    exchange_.abort(id, "cancelled by client", true);
    reply.state = JobState::Running;
    reply.detail = "cancel requested";
  } else {
    reply.state = rec->state;
    reply.detail = "already terminal";
  }
  sendStatus(req.client, reply);
}

void OptimizationService::promoteQueued() {
  while (driver_ != nullptr && table_.runningCount() < table_.maxConcurrent()) {
    JobRecord* rec = table_.nextQueued();
    if (rec == nullptr) break;
    table_.setState(*rec, JobState::Running);
    rec->startedAt = telNow();
    if (durable_ != nullptr) durable_->recordStarted(rec->id);
    exchange_.openJob(rec->id, static_cast<int>(rec->spec.priority));
    const bool resuming = rec->resume.has_value();
    rec->thread = std::thread([this, id = rec->id, spec = rec->spec,
                               resume = std::move(rec->resume)]() mutable {
      jobMain(id, std::move(spec), std::move(resume));
    });
    rec->resume.reset();
    logLine("job " + std::to_string(rec->id) +
            (resuming ? ": running (resumed from checkpoint)" : ": running"));
  }
}

void OptimizationService::pumpShards() {
  if (driver_ == nullptr) return;
  const std::size_t cap =
      static_cast<std::size_t>(4 * std::max(driver_->liveWorkerCount(), 1) + 4);
  while (driver_->outstanding() < cap) {
    auto batch = exchange_.drainPending(cap - driver_->outstanding());
    if (batch.empty()) break;
    for (auto& shard : batch) {
      const std::uint64_t driverId = driver_->submit(std::move(shard.input), shard.ticket);
      routes_[driverId] = Route{shard.jobId, shard.ticket};
      if (shardsRouted_ != nullptr) shardsRouted_->add(1);
    }
  }
}

void OptimizationService::progress() {
  // The loop's one blocking call: socket events and wake() end it early.
  comm_.pump(kLoopWaitSeconds);
  if (driver_ != nullptr && driver_->outstanding() > 0) {
    std::vector<mw::MWDriver::AsyncCompletion> done;
    try {
      // Never block here: a blocking driver poll would sleep through wake().
      done = driver_->poll(0.0);
    } catch (const std::exception& e) {
      fleetFailure(e.what());
      return;
    }
    // The driver's receive timeout, as one-shot serve applies it: tasks
    // outstanding and none completed for that long means the fleet is
    // wedged, even while heartbeats keep every worker nominally alive.
    const double now = net::monotonicSeconds();
    if (!done.empty() || stalledSince_ < 0.0) stalledSince_ = now;
    if (now - stalledSince_ > opts_.recvTimeoutSeconds) {
      fleetFailure("no task completed for " + std::to_string(opts_.recvTimeoutSeconds) +
                   "s with " + std::to_string(driver_->outstanding()) +
                   " task(s) outstanding");
      return;
    }
    for (auto& c : done) {
      const auto it = routes_.find(c.id);
      if (it == routes_.end()) continue;
      const Route r = it->second;
      routes_.erase(it);
      mw::SamplingTask task;
      task.unpackResult(c.payload);
      auto chunks = task.releaseChunks();
      const std::size_t chunkCount = chunks.size();
      // Terminal markers for the shard span trees (§9.7): the job's
      // scheduler marks every completion it polls folded or discarded; one
      // that finds its job already closed ends here.
      if (!exchange_.deliver(r.jobId, r.ticket, std::move(chunks))) {
        traceClosedShard(r.ticket, chunkCount);
      }
    }
  } else {
    stalledSince_ = -1.0;
  }
}

void OptimizationService::fleetFailure(const std::string& what) {
  logLine("fleet:    failure - " + what);
  for (auto& [id, rec] : table_.all()) {
    if (rec.state == JobState::Running) {
      exchange_.abort(id, "worker fleet lost: " + what, false);
    }
  }
  routes_.clear();
  driver_.reset();
  stalledSince_ = -1.0;
}

void OptimizationService::shutdownAll() {
  // With a state dir, a graceful stop is indistinguishable from a crash
  // as far as the journal is concerned: queued jobs stay journaled as
  // queued and interrupted running jobs keep their Started entry and
  // last snapshot, so the next daemon resumes all of them.
  durableShutdown_ = durable_ != nullptr;
  for (auto& [id, rec] : table_.all()) {
    if (rec.state == JobState::Running) {
      exchange_.abort(id, "service shutting down", false);
    } else if (rec.state == JobState::Queued && durable_ == nullptr) {
      finalizeJob(rec, JobState::Cancelled, std::nullopt, "service shutting down");
    }
  }
  // Wait for every engine thread to unwind and report.
  while (true) {
    reapFinished();
    if (table_.runningCount() == 0) break;
    std::unique_lock<std::mutex> lock(finishedMutex_);
    finishedCv_.wait_for(lock, std::chrono::milliseconds(50),
                         [this] { return !finished_.empty(); });
  }
  if (driver_ != nullptr) {
    try {
      driver_->shutdown();
    } catch (const std::exception& e) {
      logLine("shutdown: " + std::string(e.what()));
    }
  }
}

void OptimizationService::pushFinished(FinishedJob f) {
  {
    const std::lock_guard<std::mutex> lock(finishedMutex_);
    finished_.push_back(std::move(f));
  }
  finishedCv_.notify_all();
  comm_.wake();
}

void OptimizationService::jobMain(std::uint64_t id, JobSpec spec,
                                  std::optional<core::SimplexCheckpoint> resume) noexcept {
  FinishedJob f;
  f.id = id;
  try {
    const noise::NoisyFunction objective = spec.objective.makeObjective();
    ExchangeBackend backend(exchange_, id, spec.objective);
    mw::AlgorithmOptions options = spec.makeOptions();
    std::visit(
        [&](auto& o) {
          o.common.sampling.backend = &backend;
          o.common.telemetry = opts_.telemetry;
          if (resume) o.common.resumeFrom = &*resume;
          if (durable_ != nullptr && opts_.checkpointInterval > 0) {
            o.common.checkpointEvery = opts_.checkpointInterval;
            o.common.checkpointSink = [this, id](const core::SimplexCheckpoint& cp) {
              try {
                durable_->writeJobCheckpoint(id, cp);
                if (checkpointsWritten_ != nullptr) checkpointsWritten_->add(1);
              } catch (const std::exception&) {
                // A failed snapshot only narrows the resume window; the
                // journal still replays the job from its initial simplex.
              }
            };
          }
        },
        options);
    const core::OptimizationResult res = mw::runAlgorithm(objective, spec.initial, options);
    f.state = JobState::Done;
    f.outcome = JobOutcome::fromResult(res);
  } catch (const JobAborted& e) {
    f.state = e.cancelled() ? JobState::Cancelled : JobState::Failed;
    f.error = e.what();
  } catch (const std::exception& e) {
    f.state = JobState::Failed;
    f.error = e.what();
  }
  pushFinished(std::move(f));
}

}  // namespace sfopt::service
