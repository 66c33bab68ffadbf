#include "stack/timed_layers.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "mw/mw_task.hpp"
#include "mw/sampling_service.hpp"
#include "service/job.hpp"

namespace sfopt::bench {

void MemorySink::emit(const telemetry::Event& e) {
  const std::lock_guard lock(mutex_);
  events_.push_back(e);
}

std::uint64_t MemorySink::eventsWritten() const noexcept {
  const std::lock_guard lock(mutex_);
  return events_.size();
}

void MemorySink::span(std::string name, double start, double end, std::uint64_t trace,
                      std::vector<std::pair<std::string, double>> fields) {
  telemetry::Event e;
  e.type = "span";
  e.name = std::move(name);
  e.time = start;
  e.duration = end - start;
  e.trace = trace;
  e.numFields = std::move(fields);
  const std::lock_guard lock(mutex_);
  events_.push_back(std::move(e));
}

std::vector<telemetry::Event> MemorySink::named(const std::string& name) const {
  const std::lock_guard lock(mutex_);
  std::vector<telemetry::Event> out;
  for (const auto& e : events_) {
    if (e.name == name) out.push_back(e);
  }
  return out;
}

void MemorySink::writeJsonl(const std::string& path) const {
  telemetry::JsonlSink out(path);
  const std::lock_guard lock(mutex_);
  for (const auto& e : events_) out.emit(e);
  out.flush();
}

namespace {

/// What the two clock reads around a timed call add to the interval they
/// measure (median of back-to-back pairs).  Subtracted from every timed
/// sample: extrapolated over the untimed ones it would otherwise exceed
/// the job's own engine time on a 0.1 us sample.
std::int64_t clockPairNanos() {
  static const std::int64_t nanos = [] {
    std::vector<std::int64_t> pairs(1001);
    for (auto& p : pairs) {
      const auto a = std::chrono::steady_clock::now();
      const auto b = std::chrono::steady_clock::now();
      p = std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
    }
    std::nth_element(pairs.begin(), pairs.begin() + 500, pairs.end());
    return pairs[500];
  }();
  return nanos;
}

}  // namespace

double TimedObjective::sample(std::span<const double> x, noise::SampleKey key) const {
  if (samples_.fetch_add(1, std::memory_order_relaxed) % kTimedEvery != 0) {
    return inner_.sample(x, key);
  }
  const std::int64_t overhead = clockPairNanos();
  const auto t0 = std::chrono::steady_clock::now();
  const double value = inner_.sample(x, key);
  const auto t1 = std::chrono::steady_clock::now();
  const std::int64_t nanos =
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count() - overhead;
  timedNanos_.fetch_add(std::max<std::int64_t>(nanos, 0), std::memory_order_relaxed);
  timedSamples_.fetch_add(1, std::memory_order_relaxed);
  return value;
}

double TimedObjective::busySeconds() const noexcept {
  const std::int64_t timed = timedSamples_.load();
  if (timed == 0) return 0.0;
  return static_cast<double>(timedNanos_.load()) * 1e-9 / static_cast<double>(timed) *
         static_cast<double>(samples_.load());
}

double TransportTally::perTraceSum() const {
  double sum = 0.0;
  for (const auto& [trace, seconds] : perTrace) sum += seconds;
  return sum;
}

void TimedTransport::send(net::Rank from, net::Rank to, int tag, mw::MessageBuffer payload,
                          std::uint64_t traceId, std::uint64_t parentSpan) {
  const double t0 = net::monotonicSeconds();
  inner_.send(from, to, tag, std::move(payload), traceId, parentSpan);
  const double t1 = net::monotonicSeconds();
  ++tally_.messagesOut;
  tally_.sendSeconds += t1 - t0;
  if (role_ == Role::Master) {
    if (spans_ != nullptr) spans_->span("bench.master_send", t0, t1, traceId);
    if (traceId != 0) open_[traceId] = t0;
    return;
  }
  // Worker: this is the reply to the task received under the same trace.
  const auto it = open_.find(traceId);
  if (it == open_.end()) return;
  tally_.perTrace[traceId] = t0 - it->second;
  if (spans_ != nullptr) {
    spans_->span("bench.worker_execute", it->second, t0, traceId, {{"rank", rank_}});
  }
  open_.erase(it);
}

void TimedTransport::received(const std::optional<net::Message>& msg, double start) {
  const double now = net::monotonicSeconds();
  tally_.recvSeconds += now - start;
  if (role_ == Role::Master && spans_ != nullptr) {
    spans_->span("bench.master_recv_wait", start, now, msg ? msg->traceId : 0);
  }
  if (!msg) return;
  ++tally_.messagesIn;
  if (msg->tag == mw::kTagTask) ++tally_.tasksIn;
  if (msg->traceId == 0) return;
  if (role_ == Role::Worker) {
    open_[msg->traceId] = now;
    return;
  }
  const auto it = open_.find(msg->traceId);
  if (it == open_.end()) return;
  tally_.perTrace[msg->traceId] = now - it->second;
  open_.erase(it);
}

net::Message TimedTransport::recv(net::Rank at, net::Rank source, int tag) {
  const double t0 = net::monotonicSeconds();
  std::optional<net::Message> msg = inner_.recv(at, source, tag);
  received(msg, t0);
  return std::move(*msg);
}

std::optional<net::Message> TimedTransport::recvFor(net::Rank at, double timeoutSeconds,
                                                    net::Rank source, int tag) {
  const double t0 = net::monotonicSeconds();
  std::optional<net::Message> msg = inner_.recvFor(at, timeoutSeconds, source, tag);
  received(msg, t0);
  return msg;
}

std::optional<net::Message> TimedTransport::tryRecv(net::Rank at, net::Rank source, int tag) {
  const double t0 = net::monotonicSeconds();
  std::optional<net::Message> msg = inner_.tryRecv(at, source, tag);
  received(msg, t0);
  return msg;
}

void TimedTransport::snapshotWire() {
  tally_.wireBytes = inner_.bytesSent() + inner_.bytesReceived();
  tally_.frames = inner_.framesSent() + inner_.framesReceived();
}

void TimedServiceWorker::executeTask(mw::MessageBuffer& in, mw::MessageBuffer& out) {
  // Peek at the self-describing input (job id, objective spec, then a
  // SamplingTask) on a copy; the real executor consumes `in`.
  mw::MessageBuffer peek = in;
  (void)peek.unpackUint64();
  (void)service::ObjectiveSpec::unpack(peek);
  mw::SamplingTask task;
  task.unpackInput(peek);
  const double t0 = net::monotonicSeconds();
  service::ServiceWorker::executeTask(in, out);
  busySeconds_ += net::monotonicSeconds() - t0;
  samples_ += task.count();
}

}  // namespace sfopt::bench
