#include "net/tcp_transport.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>

#include "mw/mw_task.hpp"
#include "telemetry/sink.hpp"
#include "telemetry/telemetry.hpp"

namespace {

using namespace sfopt;
using namespace sfopt::net;

mw::MessageBuffer payload(std::int64_t v) {
  mw::MessageBuffer b;
  b.pack(v);
  return b;
}

std::unique_ptr<TcpWorkerTransport> connectTo(const TcpCommWorld& master,
                                              TcpWorkerTransport::Options opts = {}) {
  return std::make_unique<TcpWorkerTransport>("127.0.0.1", master.port(), opts);
}

/// Drive the worker-side connect on a thread while the master polls — both
/// ends of the handshake need cycles in a single-process test.
std::unique_ptr<TcpWorkerTransport> joinWorker(TcpCommWorld& master,
                                               TcpWorkerTransport::Options opts = {}) {
  std::unique_ptr<TcpWorkerTransport> worker;
  std::thread t([&] { worker = connectTo(master, opts); });
  (void)master.waitForWorkers(master.liveWorkers() + 1, 10.0);
  t.join();
  return worker;
}

TEST(TcpTransport, HandshakeAssignsRanksInConnectionOrder) {
  TcpCommWorld master(0);
  EXPECT_GT(master.port(), 0);
  EXPECT_EQ(master.size(), 1);

  auto w1 = joinWorker(master);
  auto w2 = joinWorker(master);
  EXPECT_EQ(w1->rank(), 1);
  EXPECT_EQ(w2->rank(), 2);
  EXPECT_EQ(master.size(), 3);
  EXPECT_EQ(master.liveWorkers(), 2);

  // The join events are visible to the driver as control messages.
  auto j1 = master.tryRecv(0, kAnySource, kTagWorkerJoined);
  ASSERT_TRUE(j1.has_value());
  EXPECT_EQ(j1->source, 1);
}

TEST(TcpTransport, EchoRoundTrip) {
  TcpCommWorld master(0);
  auto worker = joinWorker(master);

  master.send(0, 1, 5, payload(123));
  Message onWorker = worker->recv(1, 0, 5);
  EXPECT_EQ(onWorker.source, 0);
  EXPECT_EQ(onWorker.payload.unpackInt64(), 123);

  worker->send(1, 0, 6, payload(456));
  Message onMaster = master.recv(0, 1, 6);
  EXPECT_EQ(onMaster.source, 1);
  EXPECT_EQ(onMaster.payload.unpackInt64(), 456);
  EXPECT_GT(master.bytesSent(), 0u);
  EXPECT_EQ(master.messagesSent(), 1u);
  EXPECT_EQ(worker->messagesSent(), 1u);
}

TEST(TcpTransport, GreetingDeliveredToEveryJoiner) {
  TcpCommWorld master(0);
  mw::MessageBuffer cfg;
  cfg.pack(std::string("config-blob"));
  master.setGreeting(mw::kTagConfig, std::move(cfg));

  auto w1 = joinWorker(master);
  auto w2 = joinWorker(master);
  for (auto* w : {w1.get(), w2.get()}) {
    auto m = w->recvFor(w->rank(), 5.0, 0, mw::kTagConfig);
    ASSERT_TRUE(m.has_value());
    EXPECT_EQ(m->payload.unpackString(), "config-blob");
  }
}

TEST(TcpTransport, RecvForTimesOutCleanly) {
  TcpCommWorld master(0);
  auto worker = joinWorker(master);
  const auto m = master.recvFor(0, 0.05, kAnySource, 99);
  EXPECT_FALSE(m.has_value());
  // The worker is still healthy afterwards.
  master.send(0, 1, 1, payload(7));
  EXPECT_EQ(worker->recv(1, 0, 1).payload.unpackInt64(), 7);
}

TEST(TcpTransport, WakeEndsPumpAtOnce) {
  TcpCommWorld master(0);
  const auto timedPump = [&master](double timeoutSeconds) {
    const auto t0 = std::chrono::steady_clock::now();
    master.pump(timeoutSeconds);
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  };
  // Unwoken, a pass waits out its timeout (capped at the 0.2 s poll slice).
  EXPECT_GE(timedPump(0.05), 0.04);

  // A wake-up before the call ends the next pass at once, and the pass
  // drains the pipe, so the one after it waits again.  Far more wake-ups
  // than the pipe holds must neither block wake() nor outlive one pass.
  for (int i = 0; i < 100'000; ++i) master.wake();
  EXPECT_LT(timedPump(1.0), 0.1);
  EXPECT_GE(timedPump(0.05), 0.04);

  // A wake-up from another thread ends a pass that is already blocked.
  std::thread waker([&master] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    master.wake();
  });
  const double woken = timedPump(1.0);
  waker.join();
  EXPECT_LT(woken, 0.15);
  EXPECT_GE(timedPump(0.05), 0.04);
}

TEST(TcpTransport, SlowWelcomeWithinTheMasterTimeoutIsNotSilence) {
  TcpCommWorld master(0);
  TcpWorkerTransport::Options wopts;
  wopts.masterTimeoutSeconds = 1.0;
  std::unique_ptr<TcpWorkerTransport> worker;
  std::string error;
  std::thread dial([&] {
    try {
      worker = connectTo(master, wopts);
    } catch (const std::exception& e) {
      error = e.what();
    }
  });
  // A busy master answers the Hello after several of the worker's poll
  // slices, but well inside its master timeout.
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  (void)master.waitForWorkers(1, 10.0);
  dial.join();
  EXPECT_EQ(error, "");
  ASSERT_NE(worker, nullptr);
  EXPECT_EQ(worker->rank(), 1);
}

TEST(TcpTransport, DisconnectSynthesizesWorkerLost) {
  TcpCommWorld master(0);
  auto worker = joinWorker(master);
  (void)master.tryRecv(0, kAnySource, kTagWorkerJoined);

  worker.reset();  // abrupt close
  auto lost = master.recvFor(0, 5.0, kAnySource, kTagWorkerLost);
  ASSERT_TRUE(lost.has_value());
  EXPECT_EQ(lost->source, 1);
  EXPECT_EQ(master.liveWorkers(), 0);
  EXPECT_EQ(master.size(), 2);  // the rank is never reused

  // Sending to the lost rank is a silent drop, not an error.
  master.send(0, 1, 1, payload(1));
}

TEST(TcpTransport, HeartbeatSilenceMarksWorkerLost) {
  TcpCommWorld::Options opts;
  opts.heartbeatIntervalSeconds = 0.05;
  opts.heartbeatTimeoutSeconds = 0.3;
  TcpCommWorld master(0, opts);

  // A worker whose heartbeat thread never beats: make the interval so long
  // the master's silence window always expires first.
  TcpWorkerTransport::Options wopts;
  wopts.heartbeatIntervalSeconds = 60.0;
  auto worker = joinWorker(master, wopts);

  auto lost = master.recvFor(0, 5.0, kAnySource, kTagWorkerLost);
  ASSERT_TRUE(lost.has_value());
  EXPECT_EQ(lost->source, 1);
  EXPECT_EQ(master.liveWorkers(), 0);
}

TEST(TcpTransport, HeartbeatsKeepIdleWorkerAlive) {
  TcpCommWorld::Options opts;
  opts.heartbeatIntervalSeconds = 0.05;
  opts.heartbeatTimeoutSeconds = 0.4;
  TcpCommWorld master(0, opts);

  TcpWorkerTransport::Options wopts;
  wopts.heartbeatIntervalSeconds = 0.05;
  auto worker = joinWorker(master, wopts);

  // Idle for several silence windows; the background beats must keep the
  // peer alive even though no application traffic flows.  The worker side
  // must drain its socket for the master's beats, as a real worker does
  // while blocked in recv.
  std::atomic<bool> stop{false};
  std::thread drain([&] {
    while (!stop.load()) (void)worker->tryRecv(1, kAnySource, 99);
  });
  const auto m = master.recvFor(0, 1.2, kAnySource, kTagWorkerLost);
  stop.store(true);
  drain.join();
  EXPECT_FALSE(m.has_value());
  EXPECT_EQ(master.liveWorkers(), 1);
}

TEST(TcpTransport, ReconnectGetsFreshRank) {
  TcpCommWorld master(0);
  auto w1 = joinWorker(master);
  w1.reset();
  (void)master.recvFor(0, 5.0, kAnySource, kTagWorkerLost);

  auto w2 = joinWorker(master);
  EXPECT_EQ(w2->rank(), 2);
  EXPECT_EQ(master.size(), 3);
  EXPECT_EQ(master.liveWorkers(), 1);
}

TEST(TcpTransport, WorkerSendAfterMasterGoneThrowsConnectionLost) {
  auto master = std::make_unique<TcpCommWorld>(0);
  auto worker = joinWorker(*master);
  master.reset();
  // The first send may still land in kernel buffers; the loss must surface
  // within a couple of attempts.
  EXPECT_THROW(
      {
        for (int i = 0; i < 50; ++i) {
          worker->send(1, 0, 1, payload(i));
          std::this_thread::sleep_for(std::chrono::milliseconds(10));
        }
      },
      ConnectionLost);
}

TEST(TcpTransport, WorkerRecvAfterMasterGoneThrowsConnectionLost) {
  auto master = std::make_unique<TcpCommWorld>(0);
  auto worker = joinWorker(*master);
  master.reset();
  EXPECT_THROW((void)worker->recv(1), ConnectionLost);
}

TEST(TcpTransport, MasterOnlyAcceptsRankZeroCalls) {
  TcpCommWorld master(0);
  EXPECT_THROW((void)master.recv(1), std::invalid_argument);
  EXPECT_THROW(master.send(1, 0, 1, {}), std::invalid_argument);
  EXPECT_THROW(master.send(0, 5, 1, {}), std::out_of_range);
}

TEST(TcpTransport, WaitForWorkersTimesOut) {
  TcpCommWorld master(0);
  EXPECT_THROW((void)master.waitForWorkers(1, 0.1), std::runtime_error);
}

TEST(TcpTransport, ConnectWithBackoffEventuallyThrows) {
  // Nothing listens on the master's port once it is closed.
  std::uint16_t port = 0;
  {
    TcpCommWorld master(0);
    port = master.port();
  }
  EXPECT_THROW((void)connectWithBackoff("127.0.0.1", port, 2, 0.01), std::exception);
}

TEST(TcpTransport, TelemetryCountsTraffic) {
  telemetry::NoopSink sink;
  telemetry::Telemetry spine(sink);
  TcpCommWorld::Options opts;
  opts.telemetry = &spine;
  TcpCommWorld master(0, opts);
  auto worker = joinWorker(master);

  master.send(0, 1, 1, payload(1));
  (void)worker->recv(1, 0, 1);
  worker->send(1, 0, 2, payload(2));
  (void)master.recv(0, 1, 2);
  worker.reset();
  (void)master.recvFor(0, 5.0, kAnySource, kTagWorkerLost);

  auto& reg = spine.metrics();
  EXPECT_EQ(reg.counter("net.connects").value(), 1);
  EXPECT_EQ(reg.counter("net.disconnects").value(), 1);
  EXPECT_GE(reg.counter("net.messages_out").value(), 1);
  EXPECT_GE(reg.counter("net.messages_in").value(), 1);
  EXPECT_GT(reg.counter("net.bytes_out").value(), 0);
  EXPECT_GT(reg.counter("net.bytes_in").value(), 0);
  master.send(0, 1, 1, payload(3));  // to the dead rank
  EXPECT_EQ(reg.counter("net.sends_dropped").value(), 1);
}

TEST(TcpTransport, ReceiveSideCountersTrackTraffic) {
  telemetry::NoopSink sink;
  telemetry::Telemetry spine(sink);
  TcpCommWorld::Options opts;
  opts.telemetry = &spine;
  TcpCommWorld master(0, opts);
  auto worker = joinWorker(master);

  master.send(0, 1, 1, payload(1));
  (void)worker->recv(1, 0, 1);
  worker->send(1, 0, 2, payload(2));
  (void)master.recv(0, 1, 2);

  // Both ends expose the receive-side ledger directly on the Transport.
  EXPECT_EQ(master.messagesReceived(), 1u);
  EXPECT_GT(master.bytesReceived(), 0u);
  EXPECT_GE(master.framesSent(), 1u);
  EXPECT_GE(master.framesReceived(), 1u);
  EXPECT_EQ(master.decodeErrors(), 0u);
  EXPECT_EQ(worker->messagesReceived(), 1u);
  EXPECT_GT(worker->bytesReceived(), 0u);
  EXPECT_GE(worker->framesSent(), 1u);
  EXPECT_GE(worker->framesReceived(), 1u);
  EXPECT_EQ(worker->decodeErrors(), 0u);

  // And the master's publish to the metrics registry includes frames.
  auto& reg = spine.metrics();
  EXPECT_GE(reg.counter("net.frames_out").value(), 1);
  EXPECT_GE(reg.counter("net.frames_in").value(), 1);
  EXPECT_EQ(reg.counter("net.decode_errors").value(), 0);
}

TEST(TcpTransport, TraceContextRidesTheWireBothWays) {
  TcpCommWorld master(0);
  auto worker = joinWorker(master);

  master.send(0, 1, 5, payload(1), /*traceId=*/42, /*parentSpan=*/1000);
  Message onWorker = worker->recv(1, 0, 5);
  EXPECT_EQ(onWorker.traceId, 42u);
  EXPECT_EQ(onWorker.parentSpan, 1000u);

  worker->send(1, 0, 6, payload(2), onWorker.traceId, onWorker.parentSpan);
  Message onMaster = master.recv(0, 1, 6);
  EXPECT_EQ(onMaster.traceId, 42u);
  EXPECT_EQ(onMaster.parentSpan, 1000u);
}

TEST(TcpTransport, FleetSnapshotsAggregateOnMaster) {
  telemetry::NoopSink sink;
  telemetry::Telemetry spine(sink);
  TcpCommWorld::Options opts;
  opts.telemetry = &spine;
  opts.heartbeatIntervalSeconds = 0.05;
  TcpCommWorld master(0, opts);

  TcpWorkerTransport::Options wopts;
  wopts.heartbeatIntervalSeconds = 0.05;
  auto worker = joinWorker(master, wopts);
  worker->setStatsProvider(
      [] { return WorkerStats{/*tasksExecuted=*/7, /*tasksFailed=*/1, 0.25}; });

  // Drive both event loops until the snapshot lands: the master's pump
  // sends heartbeats, the worker's recv path reads them (storing the echo
  // stamp the beat thread ships back), and the master's pump then folds
  // the returning snapshot into fleetHealth().
  bool seen = false;
  for (int i = 0; i < 100 && !seen; ++i) {
    (void)worker->recvFor(1, 0.02, 0, 99);
    (void)master.recvFor(0, 0.03, kAnySource, 99);
    const auto fleet = master.fleetHealth();
    seen = !fleet.empty() && fleet[0].seen && fleet[0].rttSeconds >= 0.0;
  }
  ASSERT_TRUE(seen);
  const auto fleet = master.fleetHealth();
  EXPECT_EQ(fleet[0].tasksExecuted, 7u);
  EXPECT_EQ(fleet[0].tasksFailed, 1u);
  EXPECT_DOUBLE_EQ(fleet[0].executeEwmaSeconds, 0.25);
  EXPECT_GE(fleet[0].rttSeconds, 0.0);
  EXPECT_LT(fleet[0].rttSeconds, 5.0);

  // The per-rank gauges mirror the snapshot.
  auto& reg = spine.metrics();
  EXPECT_EQ(reg.gauge("fleet.r1.tasks_executed").value(), 7.0);
  EXPECT_EQ(reg.gauge("fleet.r1.tasks_failed").value(), 1.0);
  EXPECT_DOUBLE_EQ(reg.gauge("fleet.r1.execute_ewma_seconds").value(), 0.25);

  worker->setStatsProvider({});  // barrier before the provider state dies
}

}  // namespace
