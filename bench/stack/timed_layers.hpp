#pragma once

// Bench-owned decorators that time each layer of the stack from outside,
// through the seams the program already exposes: a StochasticObjective
// wrapper (objective layer), a net::Transport wrapper (mw/net layers, on
// the master and on each worker), and a ServiceWorker subclass (the
// daemon's workers build their objectives internally, so the sample count
// is read off the task input instead).  None of them changes a byte the
// wrapped layer sees, so a decorated job is bitwise equal to a plain one.

#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/socket.hpp"
#include "net/transport.hpp"
#include "noise/stochastic_objective.hpp"
#include "service/service_worker.hpp"
#include "telemetry/clock.hpp"
#include "telemetry/sink.hpp"

namespace sfopt::bench {

/// net::monotonicSeconds() as a telemetry::Clock: every decorator stamps
/// with it, so the program's spans and the bench's spans share one
/// timeline in a trace file.
class MonotonicClock final : public telemetry::Clock {
 public:
  [[nodiscard]] double now() const override { return net::monotonicSeconds(); }
};

/// In-memory event store: the bench's own spans and, in a traced run, the
/// program's telemetry events.  Nothing touches the disk until writeJsonl,
/// so tracing adds no I/O to the measured work.
class MemorySink final : public telemetry::EventSink {
 public:
  void emit(const telemetry::Event& e) override;
  [[nodiscard]] std::uint64_t eventsWritten() const noexcept override;

  /// Record one bench span [start, end] on the monotonic clock.
  void span(std::string name, double start, double end, std::uint64_t trace,
            std::vector<std::pair<std::string, double>> fields = {});

  /// Every stored event whose name is `name`.
  [[nodiscard]] std::vector<telemetry::Event> named(const std::string& name) const;

  /// Write everything through telemetry::JsonlSink.
  void writeJsonl(const std::string& path) const;

 private:
  mutable std::mutex mutex_;
  std::vector<telemetry::Event> events_;
};

/// Objective decorator: counts every sample and times one in
/// kTimedEvery of them, so the clock reads stay a small part of a sample
/// that costs a tenth of a microsecond.  Per-sample work is counted, never
/// spanned.
class TimedObjective final : public noise::StochasticObjective {
 public:
  explicit TimedObjective(const noise::StochasticObjective& inner) : inner_(inner) {}

  [[nodiscard]] std::size_t dimension() const override { return inner_.dimension(); }
  [[nodiscard]] double sampleDuration() const override { return inner_.sampleDuration(); }
  [[nodiscard]] double sample(std::span<const double> x, noise::SampleKey key) const override;
  [[nodiscard]] std::optional<double> trueValue(std::span<const double> x) const override {
    return inner_.trueValue(x);
  }
  [[nodiscard]] std::optional<double> noiseScale(std::span<const double> x) const override {
    return inner_.noiseScale(x);
  }

  [[nodiscard]] std::int64_t samples() const noexcept { return samples_.load(); }
  /// Estimated seconds inside the wrapped sample(): the mean of the timed
  /// samples times the sample count.
  [[nodiscard]] double busySeconds() const noexcept;

 private:
  static constexpr std::int64_t kTimedEvery = 16;

  const noise::StochasticObjective& inner_;
  mutable std::atomic<std::int64_t> samples_{0};
  mutable std::atomic<std::int64_t> timedSamples_{0};
  mutable std::atomic<std::int64_t> timedNanos_{0};
};

/// What one TimedTransport saw.  Plain data, owned by whoever reads it
/// after the decorated endpoint is gone.
struct TransportTally {
  std::uint64_t messagesOut = 0;
  std::uint64_t messagesIn = 0;
  std::uint64_t tasksIn = 0;  ///< task messages received (worker side)
  double sendSeconds = 0.0;   ///< inside send()
  double recvSeconds = 0.0;   ///< inside recv/recvFor/tryRecv, waiting included
  /// Master side: send -> matching recv per trace id.  Worker side: recv ->
  /// reply send per trace id (the worker's busy time for that task).
  std::unordered_map<std::uint64_t, double> perTrace;
  /// Wire counters of the wrapped transport (frame headers and
  /// transport-internal frames included), copied by snapshotWire().
  std::uint64_t wireBytes = 0;
  std::uint64_t frames = 0;

  [[nodiscard]] double perTraceSum() const;
};

/// Transport decorator for either end of an MW deployment.  Forwards every
/// call unchanged; times the calls and pairs messages by trace id.  Like
/// the transport it wraps, it is driven by one thread.
class TimedTransport final : public net::Transport {
 public:
  enum class Role { Master, Worker };

  /// `spans` (optional) receives the master's send and receive-wait spans
  /// and one execute span per worker task.
  TimedTransport(net::Transport& inner, Role role, TransportTally& tally,
                 MemorySink* spans = nullptr, double rank = 0.0)
      : inner_(inner), role_(role), tally_(tally), spans_(spans), rank_(rank) {}

  [[nodiscard]] int size() const override { return inner_.size(); }
  void send(net::Rank from, net::Rank to, int tag, mw::MessageBuffer payload,
            std::uint64_t traceId = 0, std::uint64_t parentSpan = 0) override;
  [[nodiscard]] net::Message recv(net::Rank at, net::Rank source = net::kAnySource,
                                  int tag = net::kAnyTag) override;
  [[nodiscard]] std::optional<net::Message> recvFor(net::Rank at, double timeoutSeconds,
                                                    net::Rank source = net::kAnySource,
                                                    int tag = net::kAnyTag) override;
  [[nodiscard]] std::optional<net::Message> tryRecv(net::Rank at,
                                                    net::Rank source = net::kAnySource,
                                                    int tag = net::kAnyTag) override;
  [[nodiscard]] std::uint64_t messagesSent() const override { return inner_.messagesSent(); }
  [[nodiscard]] std::uint64_t bytesSent() const override { return inner_.bytesSent(); }
  [[nodiscard]] std::uint64_t messagesReceived() const override {
    return inner_.messagesReceived();
  }
  [[nodiscard]] std::uint64_t bytesReceived() const override { return inner_.bytesReceived(); }
  [[nodiscard]] std::uint64_t framesSent() const override { return inner_.framesSent(); }
  [[nodiscard]] std::uint64_t framesReceived() const override {
    return inner_.framesReceived();
  }
  [[nodiscard]] std::uint64_t decodeErrors() const override { return inner_.decodeErrors(); }

  /// Copy the wrapped transport's wire counters into the tally (call
  /// while the wrapped transport is still alive).
  void snapshotWire();

 private:
  void received(const std::optional<net::Message>& msg, double start);

  net::Transport& inner_;
  Role role_;
  TransportTally& tally_;
  MemorySink* spans_;
  double rank_;
  /// Open interval per trace id: master send time, or worker receive time.
  std::unordered_map<std::uint64_t, double> open_;
};

/// The daemon's worker with the objective layer timed: counts the samples
/// each self-describing task asks for and the time executeTask spends.
class TimedServiceWorker final : public service::ServiceWorker {
 public:
  using service::ServiceWorker::ServiceWorker;

  [[nodiscard]] std::int64_t samples() const noexcept { return samples_; }
  [[nodiscard]] double busySeconds() const noexcept { return busySeconds_; }

 protected:
  void executeTask(mw::MessageBuffer& in, mw::MessageBuffer& out) override;

 private:
  std::int64_t samples_ = 0;
  double busySeconds_ = 0.0;
};

}  // namespace sfopt::bench
