#include "mw/mw_driver.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
#include <stdexcept>
#include <utility>

#include "telemetry/telemetry.hpp"

namespace sfopt::mw {

MWDriver::MWDriver(net::Transport& comm) : comm_(comm) {
  if (comm_.size() < 2) {
    throw std::invalid_argument("MWDriver: need at least one worker rank");
  }
  dead_.assign(static_cast<std::size_t>(comm_.size()), false);
}

bool MWDriver::isDead(Rank w) const noexcept {
  const auto i = static_cast<std::size_t>(w);
  return i < dead_.size() && dead_[i];
}

void MWDriver::ensureRank(Rank w) {
  if (static_cast<std::size_t>(w) >= dead_.size()) {
    dead_.resize(static_cast<std::size_t>(w) + 1, false);
  }
}

int MWDriver::liveWorkerCount() const noexcept {
  int live = 0;
  for (Rank w = 1; w < comm_.size(); ++w) {
    if (!isDead(w)) ++live;
  }
  return live;
}

void MWDriver::setTelemetry(telemetry::Telemetry* telemetry) {
  telemetry_ = telemetry;
  if (telemetry_ == nullptr) return;
  auto& reg = telemetry_->metrics();
  telTasksCompleted_ = &reg.counter("mw.tasks_completed");
  telTasksRequeued_ = &reg.counter("mw.tasks_requeued");
  telTasksDispatched_ = &reg.counter("mw.tasks_dispatched");
  telWorkersLost_ = &reg.counter("mw.workers_lost");
  telQueueWait_ = &reg.histogram("mw.task.queue_wait_seconds",
                                 telemetry::Histogram::exponentialBounds(1e-6, 10.0, 7));
  telExecute_ = &reg.histogram("mw.task.execute_seconds",
                               telemetry::Histogram::exponentialBounds(1e-6, 10.0, 7));
  telIdleFraction_ = &reg.histogram("mw.worker_idle_fraction",
                                    {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0});
  telStaleDiscards_ = &reg.counter("mw.stale_results_discarded");
  reg.gauge("mw.workers").set(static_cast<double>(workerCount()));
}

double MWDriver::steadySeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double MWDriver::telNow() const {
  return telemetry_ != nullptr ? telemetry_->clock().now() : 0.0;
}

void MWDriver::growTo(int worldSize) {
  const auto s = static_cast<std::size_t>(worldSize);
  if (busy_.size() < s) {
    busy_.resize(s, false);
    inFlightId_.resize(s, 0);
    ensureRank(worldSize - 1);
  }
}

// Dynamic dispatch over explicit free/busy worker state.  A worker that
// failed a task is not handed the same task again while another pairing is
// possible; when every assignable pairing is excluded and nothing is in
// flight, the exclusion is waived so progress is guaranteed.  Dead workers
// never receive tasks; inFlightId_ remembers what each busy worker is
// running so a lost worker's task can be requeued.
void MWDriver::dispatch() {
  growTo(comm_.size());
  const auto assign = [&](Rank worker, std::size_t pendingIndex) {
    const std::uint64_t id = pending_[pendingIndex];
    Task& st = tasks_.at(id);
    pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(pendingIndex));
    if (telemetry_ != nullptr) {
      st.dispatchedAt = telNow();
      telQueueWait_->observe(st.dispatchedAt - st.enqueuedAt);
      telTasksDispatched_->add(1);
      auto& tracer = telemetry_->tracer();
      tracer.emitComplete("shard.queue", st.enqueuedAt, st.rootSpan, {},
                          {{"attempt", static_cast<double>(st.retries)}}, st.trace);
      st.remoteSpan = tracer.begin("shard.remote", st.rootSpan, st.trace);
    }
    comm_.send(0, worker, kTagTask, MessageBuffer(std::vector<std::byte>(st.wire)), st.trace,
               st.remoteSpan);
    busy_[static_cast<std::size_t>(worker)] = true;
    inFlightId_[static_cast<std::size_t>(worker)] = id;
    ++inFlight_;
  };
  bool progressed = true;
  while (progressed && !pending_.empty()) {
    progressed = false;
    for (Rank w = 1; w < comm_.size() && !pending_.empty(); ++w) {
      if (busy_[static_cast<std::size_t>(w)] || isDead(w)) continue;
      for (std::size_t i = 0; i < pending_.size(); ++i) {
        if (tasks_.at(pending_[i]).lastFailedOn == w) continue;
        assign(w, i);
        progressed = true;
        break;
      }
    }
    if (!progressed && inFlight_ == 0 && !pending_.empty()) {
      // Every remaining pairing is excluded and nobody is working:
      // waive the failed-on exclusion for the first free live worker.
      for (Rank w = 1; w < comm_.size(); ++w) {
        if (!busy_[static_cast<std::size_t>(w)] && !isDead(w)) {
          assign(w, 0);
          progressed = true;
          break;
        }
      }
    }
  }
}

// Requeue the task a worker failed (kTagError) or died holding
// (kTagWorkerLost).  Either way the attempt counts against the retry
// budget: a task that kills every worker it lands on must not cycle
// through the cluster forever.
void MWDriver::requeue(Rank worker, std::uint64_t id, const std::string& why,
                       const char* outcome) {
  const auto it = tasks_.find(id);
  if (it == tasks_.end()) {
    throw std::runtime_error("MWDriver: failure report for unknown task id");
  }
  --inFlight_;
  ++tasksRequeued_;
  busy_[static_cast<std::size_t>(worker)] = false;
  inFlightId_[static_cast<std::size_t>(worker)] = 0;
  Task& st = it->second;
  st.lastFailedOn = worker;
  if (telemetry_ != nullptr) {
    // Restart the queue clock for the next attempt.
    telTasksRequeued_->add(1);
    st.enqueuedAt = telNow();
    telemetry_->tracer().end(st.remoteSpan, {{"outcome", outcome}},
                             {{"rank", static_cast<double>(worker)}});
    st.remoteSpan = 0;
  }
  if (++st.retries > maxRetries_) {
    if (telemetry_ != nullptr) {
      telemetry_->tracer().end(st.rootSpan, {{"outcome", "failed"}},
                               {{"requeues", static_cast<double>(st.retries)}});
    }
    throw std::runtime_error("MWDriver: task failed after " + std::to_string(maxRetries_) +
                             " retries: " + why);
  }
  pending_.push_front(id);
}

void MWDriver::observeIdleFraction() {
  if (telemetry_ == nullptr) return;
  int live = 0;
  int busy = 0;
  for (Rank w = 1; w < comm_.size(); ++w) {
    if (isDead(w)) continue;
    ++live;
    if (static_cast<std::size_t>(w) < busy_.size() &&
        busy_[static_cast<std::size_t>(w)]) {
      ++busy;
    }
  }
  if (live > 0) {
    telIdleFraction_->observe(static_cast<double>(live - busy) /
                              static_cast<double>(live));
  }
}

void MWDriver::handleMessage(Message msg) {
  if (msg.tag == kTagResult) {
    const std::uint64_t id = msg.payload.unpackUint64();
    growTo(msg.source + 1);
    const auto src = static_cast<std::size_t>(msg.source);
    const auto it = tasks_.find(id);
    // Duplicated or reordered-across-reconnect completion: the task is
    // already folded (or requeued to another holder).  Discard it without
    // touching any rank's dispatch state — releasing msg.source here would
    // corrupt the bookkeeping for whatever that rank is really running.
    if (it == tasks_.end() || inFlightId_[src] != id) {
      ++staleResultsDiscarded_;
      if (telStaleDiscards_ != nullptr) telStaleDiscards_->add(1);
      return;
    }
    if (telemetry_ != nullptr) {
      const double d = telNow() - it->second.dispatchedAt;
      telExecute_->observe(d);
      telTasksCompleted_->add(1);
      auto& tracer = telemetry_->tracer();
      tracer.end(it->second.remoteSpan, {{"outcome", "ok"}},
                 {{"rank", static_cast<double>(msg.source)}});
      // No terminal marker here: whoever consumes the completion
      // (EvalScheduler, the service) decides whether it is folded or
      // discarded and traces that.
      tracer.end(it->second.rootSpan, {{"outcome", "ok"}},
                 {{"requeues", static_cast<double>(it->second.retries)}});
    }
    tasks_.erase(it);
    ++tasksCompleted_;
    --inFlight_;
    busy_[src] = false;
    inFlightId_[src] = 0;
    ready_.push_back(AsyncCompletion{id, std::move(msg.payload)});
    dispatch();
    // Sampled at every completion: how much of the live fleet sits idle
    // right after redispatch.  Sharding exists to push this toward zero.
    observeIdleFraction();
  } else if (msg.tag == kTagError) {
    const std::uint64_t id = msg.payload.unpackUint64();
    const std::string what = msg.payload.unpackString();
    growTo(msg.source + 1);
    const auto src = static_cast<std::size_t>(msg.source);
    if (busy_[src] && inFlightId_[src] == id) {
      requeue(msg.source, id, what, "error");
      dispatch();
    } else {
      // A failure report for a task this rank no longer holds: a stale or
      // duplicated frame, not a protocol state we track.
      ++staleResultsDiscarded_;
      if (telStaleDiscards_ != nullptr) telStaleDiscards_->add(1);
    }
  } else if (msg.tag == net::kTagWorkerLost) {
    const Rank lost = msg.source;
    growTo(lost + 1);
    if (!isDead(lost)) {
      dead_[static_cast<std::size_t>(lost)] = true;
      ++workersLost_;
      if (telemetry_ != nullptr) telWorkersLost_->add(1);
    }
    const auto li = static_cast<std::size_t>(lost);
    if (busy_[li]) {
      requeue(lost, inFlightId_[li], "worker rank " + std::to_string(lost) + " lost", "lost");
    }
    if (liveWorkerCount() == 0 && !tasks_.empty()) {
      throw std::runtime_error("MWDriver: every worker is lost with " +
                               std::to_string(tasks_.size()) + " task(s) outstanding");
    }
    dispatch();
  } else if (msg.tag == net::kTagWorkerJoined) {
    growTo(msg.source + 1);
    dispatch();
  }
  // Stray tags are ignored.
}

std::uint64_t MWDriver::submit(MessageBuffer input, std::uint64_t trace) {
  if (shutDown_) throw std::logic_error("MWDriver: already shut down");
  const std::uint64_t id = nextTaskId_++;
  // Frame: task id, then the caller's payload bytes (the wire format is a
  // flat byte stream, so splicing is a concatenation).
  MessageBuffer framed;
  framed.pack(id);
  std::vector<std::byte> wire = framed.releaseWire();
  const auto& tail = input.wire();
  wire.insert(wire.end(), tail.begin(), tail.end());
  const double now = telNow();
  Task st{std::move(wire), 0, -1, now, now, 0, 0, trace != 0 ? trace : id};
  if (telemetry_ != nullptr) {
    st.rootSpan = telemetry_->tracer().begin("shard.lifecycle", 0, st.trace);
  }
  tasks_.emplace(id, std::move(st));
  pending_.push_back(id);
  dispatch();
  return id;
}

std::vector<MWDriver::AsyncCompletion> MWDriver::poll(double timeoutSeconds) {
  if (shutDown_) throw std::logic_error("MWDriver: already shut down");
  // Drain whatever already arrived without waiting.
  while (auto msg = comm_.tryRecv(0)) handleMessage(std::move(*msg));
  // Silence is judged per receive-timeout window: a window that ends
  // without any worker message, while tasks are outstanding, throws.  An
  // error or loss report is a message, so a requeued task gets a fresh
  // window instead of inheriting the failed attempt's silence.
  const double deadline = steadySeconds() + timeoutSeconds;
  double windowEnd = steadySeconds() + recvTimeoutSeconds_;
  bool heard = false;
  while (ready_.empty() && !tasks_.empty()) {
    const double now = steadySeconds();
    if (now >= deadline) break;
    if (now >= windowEnd) {
      if (!heard) {
        throw std::runtime_error(
            "MWDriver: no worker message for " + std::to_string(recvTimeoutSeconds_) +
            "s with " + std::to_string(tasks_.size()) + " task(s) outstanding");
      }
      heard = false;
      windowEnd = now + recvTimeoutSeconds_;
    }
    auto msg = comm_.recvFor(0, std::min(deadline, windowEnd) - now);
    if (!msg.has_value()) continue;
    heard = true;
    handleMessage(std::move(*msg));
    while (auto extra = comm_.tryRecv(0)) handleMessage(std::move(*extra));
  }
  return std::exchange(ready_, {});
}

std::vector<MWDriver::AsyncCompletion> MWDriver::drain() {
  std::vector<AsyncCompletion> all;
  do {
    for (auto& c : poll(std::numeric_limits<double>::infinity())) all.push_back(std::move(c));
  } while (!tasks_.empty());
  return all;
}

void MWDriver::shutdown() {
  if (shutDown_) return;
  // Close out the span tree of any task still queued or in flight
  // (speculative shards the run no longer needs, or what a throwing batch
  // left behind): without this, their lifecycle spans would never emit and
  // the trace would have orphans.
  if (telemetry_ != nullptr) {
    auto& tracer = telemetry_->tracer();
    for (auto& [id, task] : tasks_) {
      if (task.remoteSpan != 0) {
        tracer.end(task.remoteSpan, {{"outcome", "abandoned"}}, {});
        task.remoteSpan = 0;
      }
      if (task.rootSpan != 0) {
        tracer.end(task.rootSpan, {{"outcome", "abandoned"}}, {});
        task.rootSpan = 0;
      }
    }
  }
  for (Rank w = 1; w < comm_.size(); ++w) {
    if (isDead(w)) continue;
    comm_.send(0, w, kTagShutdown, MessageBuffer{});
  }
  shutDown_ = true;
}

}  // namespace sfopt::mw
