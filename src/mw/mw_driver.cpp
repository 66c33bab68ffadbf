#include "mw/mw_driver.hpp"

#include <algorithm>
#include <chrono>
#include <optional>
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
  telBatches_ = &reg.counter("mw.batches");
  telQueueWait_ = &reg.histogram("mw.task.queue_wait_seconds",
                                 telemetry::Histogram::exponentialBounds(1e-6, 10.0, 7));
  telExecute_ = &reg.histogram("mw.task.execute_seconds",
                               telemetry::Histogram::exponentialBounds(1e-6, 10.0, 7));
  telUtilization_ = &reg.histogram("mw.worker.utilization",
                                   {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0});
  telIdleFraction_ = &reg.histogram("mw.worker_idle_fraction",
                                    {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0});
  telSpecDuplicates_ = &reg.counter("mw.speculative_duplicates");
  telSpecDiscards_ = &reg.counter("mw.speculative_discards");
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

std::vector<MessageBuffer> MWDriver::executeBuffers(std::vector<MessageBuffer> inputs) {
  if (shutDown_) throw std::logic_error("MWDriver: already shut down");
  const std::size_t n = inputs.size();
  std::vector<MessageBuffer> results(n);
  if (n == 0) return results;
  const double batchStart = telNow();
  std::fill(busySeconds_.begin(), busySeconds_.end(), 0.0);
  // Ids are handed out consecutively, so this batch owns [first, first + n).
  const std::uint64_t first = nextTaskId_;
  for (MessageBuffer& input : inputs) (void)submit(std::move(input));
  for (std::size_t done = 0; done < n;) {
    std::optional<Message> msg = comm_.recvFor(0, recvTimeoutSeconds_);
    if (!msg.has_value()) {
      throw std::runtime_error(
          "MWDriver: no worker message for " + std::to_string(recvTimeoutSeconds_) +
          "s with " + std::to_string(n - done) + " task(s) outstanding");
    }
    handleMessage(std::move(*msg));
    // A message completes at most one task, appended last; a completion
    // that is not this batch's stays queued for poll()/drain().
    if (ready_.empty() || ready_.back().id - first >= n) continue;
    AsyncCompletion& c = ready_.back();
    if (telemetry_ != nullptr) {
      telemetry_->tracer().emitComplete("shard.folded", telNow(), 0, {}, {}, c.id);
    }
    results[c.id - first] = std::move(c.payload);
    ready_.pop_back();
    ++done;
  }
  if (telemetry_ != nullptr) {
    const double elapsed = telNow() - batchStart;
    if (elapsed > 0.0) {
      for (Rank w = 1; w < comm_.size() && static_cast<std::size_t>(w) < busySeconds_.size();
           ++w) {
        telUtilization_->observe(busySeconds_[static_cast<std::size_t>(w)] / elapsed);
      }
    }
    telBatches_->add(1);
    telemetry_->tracer().emitComplete(
        "mw.batch", batchStart, 0, {},
        {{"tasks", static_cast<double>(n)},
         {"workers", static_cast<double>(workerCount())}});
  }
  return results;
}

void MWDriver::executeTasks(std::span<MWTask* const> tasks) {
  std::vector<MessageBuffer> inputs;
  inputs.reserve(tasks.size());
  for (MWTask* t : tasks) {
    if (t == nullptr) throw std::invalid_argument("MWDriver::executeTasks: null task");
    MessageBuffer buf;
    t->packInput(buf);
    inputs.push_back(std::move(buf));
  }
  auto results = executeBuffers(std::move(inputs));
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    tasks[i]->unpackResult(results[i]);
  }
}

void MWDriver::growTo(int worldSize) {
  const auto s = static_cast<std::size_t>(worldSize);
  if (busy_.size() < s) {
    busy_.resize(s, false);
    inFlightId_.resize(s, 0);
    ghostId_.resize(s, 0);
    busySeconds_.resize(s, 0.0);
    ensureRank(worldSize - 1);
  }
}

int MWDriver::holdersOf(std::uint64_t id) const noexcept {
  int n = 0;
  for (const std::uint64_t held : inFlightId_) n += held == id ? 1 : 0;
  return n;
}

void MWDriver::releaseRank(Rank worker) {
  const auto w = static_cast<std::size_t>(worker);
  busy_[w] = false;
  inFlightId_[w] = 0;
  ghostId_[w] = 0;
  --inFlight_;
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
    st.dispatchedSteady = steadySeconds();
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
    // The failed attempt still occupied the worker: count it as busy so
    // utilization reflects wasted capacity, and restart the queue clock.
    busySeconds_[static_cast<std::size_t>(worker)] += telNow() - st.dispatchedAt;
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
  ++messagesHandled_;
  if (msg.tag == kTagResult) {
    const std::uint64_t id = msg.payload.unpackUint64();
    growTo(msg.source + 1);
    const auto src = static_cast<std::size_t>(msg.source);
    if (id != 0 && ghostId_[src] == id) {
      // The losing copy of a speculated shard reporting after the winner:
      // discard the (identical) payload and put the worker back to work.
      releaseRank(msg.source);
      ++speculativeDiscards_;
      if (telSpecDiscards_ != nullptr) telSpecDiscards_->add(1);
      dispatch();
      observeIdleFraction();
      return;
    }
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
    const double execSeconds = steadySeconds() - it->second.dispatchedSteady;
    executeEwma_ =
        executeEwma_ <= 0.0 ? execSeconds : 0.8 * executeEwma_ + 0.2 * execSeconds;
    if (telemetry_ != nullptr) {
      const double d = telNow() - it->second.dispatchedAt;
      telExecute_->observe(d);
      busySeconds_[src] += d;
      telTasksCompleted_->add(1);
      auto& tracer = telemetry_->tracer();
      tracer.end(it->second.remoteSpan, {{"outcome", "ok"}},
                 {{"rank", static_cast<double>(msg.source)}});
      // No terminal marker here: whoever consumes the completion
      // (executeBuffers, EvalScheduler, the service) decides whether it is
      // folded or discarded and traces that.
      tracer.end(it->second.rootSpan, {{"outcome", "ok"}},
                 {{"requeues", static_cast<double>(it->second.retries)}});
    }
    tasks_.erase(it);
    ++tasksCompleted_;
    --inFlight_;
    busy_[src] = false;
    inFlightId_[src] = 0;
    // Any other rank still running a copy of this task becomes a ghost:
    // it stays busy until its late report arrives and is discarded.
    for (std::size_t r = 0; r < inFlightId_.size(); ++r) {
      if (r != src && inFlightId_[r] == id) {
        ghostId_[r] = id;
        inFlightId_[r] = 0;
      }
    }
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
    if (id != 0 && ghostId_[src] == id) {
      releaseRank(msg.source);
      ++speculativeDiscards_;
      if (telSpecDiscards_ != nullptr) telSpecDiscards_->add(1);
      dispatch();
    } else if (busy_[src] && inFlightId_[src] == id) {
      if (holdersOf(id) > 1) {
        // The other copy of this speculated shard is still out; dropping
        // this one loses nothing and must not count against the retry
        // budget or requeue a task that is not actually stranded.
        if (const auto it = tasks_.find(id); it != tasks_.end()) {
          it->second.lastFailedOn = msg.source;
        }
        releaseRank(msg.source);
        dispatch();
      } else {
        requeue(msg.source, id, what, "error");
        dispatch();
      }
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
    if (ghostId_[li] != 0) {
      releaseRank(lost);
      ++speculativeDiscards_;
      if (telSpecDiscards_ != nullptr) telSpecDiscards_->add(1);
    } else if (busy_[li]) {
      const std::uint64_t held = inFlightId_[li];
      if (holdersOf(held) > 1) {
        releaseRank(lost);
      } else {
        requeue(lost, held, "worker rank " + std::to_string(lost) + " lost", "lost");
      }
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

void MWDriver::maybeSpeculate() {
  if (speculativeFactor_ <= 0.0 || executeEwma_ <= 0.0 || inFlight_ == 0 ||
      !pending_.empty()) {
    return;
  }
  growTo(comm_.size());
  const double now = steadySeconds();
  const double threshold = speculativeFactor_ * executeEwma_;
  for (auto& [id, st] : tasks_) {
    if (holdersOf(id) != 1) continue;  // not dispatched, or already duplicated
    if (now - st.dispatchedSteady <= threshold) continue;
    Rank chosen = -1;
    for (Rank w = 1; w < comm_.size(); ++w) {
      if (busy_[static_cast<std::size_t>(w)] || isDead(w)) continue;
      chosen = w;
      break;
    }
    if (chosen < 0) return;  // fleet saturated; nothing to borrow
    // Same wire bytes, same trace: whichever copy reports first produces
    // the canonical payload, so the race cannot change any result bit.
    comm_.send(0, chosen, kTagTask, MessageBuffer(std::vector<std::byte>(st.wire)), st.trace,
               st.remoteSpan);
    busy_[static_cast<std::size_t>(chosen)] = true;
    inFlightId_[static_cast<std::size_t>(chosen)] = id;
    ++inFlight_;
    ++speculativeDuplicates_;
    if (telSpecDuplicates_ != nullptr) telSpecDuplicates_->add(1);
  }
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
  Task st{std::move(wire), 0, -1, now, now, 0.0, 0, 0, trace != 0 ? trace : id};
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
  maybeSpeculate();
  if (!ready_.empty() || tasks_.empty() || timeoutSeconds <= 0.0) {
    return std::exchange(ready_, {});
  }
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeoutSeconds);
  while (ready_.empty()) {
    const double remaining =
        std::chrono::duration<double>(deadline - std::chrono::steady_clock::now()).count();
    if (remaining <= 0.0) break;
    auto msg = comm_.recvFor(0, remaining);
    if (!msg.has_value()) break;
    handleMessage(std::move(*msg));
    while (auto extra = comm_.tryRecv(0)) handleMessage(std::move(*extra));
    maybeSpeculate();
  }
  return std::exchange(ready_, {});
}

std::vector<MWDriver::AsyncCompletion> MWDriver::drain() {
  std::vector<AsyncCompletion> all = std::exchange(ready_, {});
  while (!tasks_.empty()) {
    // A window may yield no completions yet still make progress: an error
    // or worker-lost message requeues the task mid-window.  Only a window
    // with no messages at all means the fabric is silent; a just-requeued
    // task gets a fresh window.
    const std::uint64_t before = messagesHandled_;
    auto got = poll(recvTimeoutSeconds_);
    if (got.empty() && messagesHandled_ == before && !tasks_.empty()) {
      throw std::runtime_error(
          "MWDriver: no worker message for " + std::to_string(recvTimeoutSeconds_) + "s with " +
          std::to_string(tasks_.size()) + " task(s) outstanding");
    }
    for (auto& c : got) all.push_back(std::move(c));
  }
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
