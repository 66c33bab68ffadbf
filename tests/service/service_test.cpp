#include "service/service.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <ctime>
#include <sstream>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "core/algorithms.hpp"
#include "core/initial_simplex.hpp"
#include "mw/parallel_runner.hpp"
#include "net/tcp_transport.hpp"
#include "service/service_client.hpp"
#include "service/service_worker.hpp"
#include "service/ticket_exchange.hpp"
#include "telemetry/sink.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace_analysis.hpp"

namespace {

using namespace sfopt;
using namespace std::chrono_literals;

service::JobSpec makeSpec(const std::string& function, std::int64_t dim,
                          const std::string& algorithm, std::uint64_t seed,
                          std::int64_t maxIterations) {
  service::JobSpec spec;
  spec.objective.function = function;
  spec.objective.dim = dim;
  spec.objective.seed = seed;
  spec.algorithm = algorithm;
  spec.k = algorithm == "mn" ? 2.0 : 1.0;
  spec.termination.maxIterations = maxIterations;
  spec.initial = core::axisSimplexPoints(
      core::Point(static_cast<std::size_t>(dim), 1.0), 1.0);
  spec.validate();
  return spec;
}

/// The ground truth a service job must match bitwise: the same spec run
/// alone, in-process, over the MW backend.  (Against the pure serial path
/// everything but the estimate is bitwise too; the estimate differs in
/// the last bits because serial absorbs per sample instead of folding
/// chunk moments — see pipeline_equivalence_test.)
core::OptimizationResult soloRun(const service::JobSpec& spec) {
  const noise::NoisyFunction objective = spec.objective.makeObjective();
  const mw::AlgorithmOptions options = spec.makeOptions();
  mw::MWRunConfig cfg;
  cfg.workers = 2;
  cfg.clientsPerWorker = static_cast<int>(spec.objective.clients);
  return mw::runSimplexOverMW(objective, spec.initial, options, cfg).optimization;
}

void expectBitwiseEqual(const service::JobOutcome& outcome,
                        const core::OptimizationResult& solo) {
  EXPECT_EQ(outcome.best, solo.best);
  EXPECT_EQ(outcome.bestEstimate, solo.bestEstimate);
  EXPECT_EQ(outcome.iterations, solo.iterations);
  EXPECT_EQ(outcome.totalSamples, solo.totalSamples);
  EXPECT_EQ(outcome.elapsedTime, solo.elapsedTime);
  EXPECT_EQ(static_cast<int>(outcome.reason), static_cast<int>(solo.reason));
  EXPECT_EQ(outcome.counters.reflections, solo.counters.reflections);
  EXPECT_EQ(outcome.counters.contractions, solo.counters.contractions);
}

/// Escapes MWWorker::run()'s std::exception net so the worker thread
/// unwinds and its socket closes abruptly — a crash, not a polite error.
struct Die {};

class DyingServiceWorker final : public service::ServiceWorker {
 public:
  DyingServiceWorker(net::Transport& comm, mw::Rank rank, int dieAfterTasks)
      : ServiceWorker(comm, rank), remaining_(dieAfterTasks) {}

 protected:
  void executeTask(mw::MessageBuffer& in, mw::MessageBuffer& out) override {
    if (remaining_-- <= 0) throw Die{};
    ServiceWorker::executeTask(in, out);
  }

 private:
  int remaining_;
};

/// One daemon + worker fleet on an ephemeral port, torn down on scope
/// exit.  The daemon runs OptimizationService on its own thread with a
/// maxJobs budget so run() returns once the test's jobs are terminal.
struct Harness {
  net::TcpCommWorld comm{0};
  service::ServiceOptions opts;
  std::vector<std::thread> workers;
  std::thread daemon;
  std::atomic<bool> stop{false};
  std::int64_t completed = -1;

  explicit Harness(std::int64_t maxJobs, int workerCount = 2, int dieAfterTasks = -1) {
    opts.maxJobs = maxJobs;
    opts.recvTimeoutSeconds = 20.0;
    for (int i = 0; i < workerCount; ++i) {
      const bool dies = dieAfterTasks >= 0 && i == 0;
      const std::uint16_t port = comm.port();
      workers.emplace_back([port, dies, dieAfterTasks] {
        try {
          net::TcpWorkerTransport transport("127.0.0.1", port);
          if (dies) {
            DyingServiceWorker worker(transport, transport.rank(), dieAfterTasks);
            worker.run();
          } else {
            service::ServiceWorker worker(transport, transport.rank());
            worker.run();
          }
        } catch (const Die&) {
          // Crash: socket closes with the stack frame.
        } catch (const net::ConnectionLost&) {
        }
      });
      (void)comm.waitForWorkers(comm.liveWorkers() + 1, 10.0);
    }
  }

  void start() {
    daemon = std::thread([this] {
      service::OptimizationService svc(comm, opts);
      completed = svc.run(stop);
    });
  }

  ~Harness() {
    stop.store(true);
    if (daemon.joinable()) daemon.join();
    for (auto& t : workers) t.join();
  }
};

TEST(Service, TwoConcurrentJobsMatchSoloRunsBitwise) {
  const service::JobSpec specA = makeSpec("rosenbrock", 4, "pc", 2026, 25);
  const service::JobSpec specB = makeSpec("sphere", 3, "mn", 99, 25);
  const core::OptimizationResult soloA = soloRun(specA);
  const core::OptimizationResult soloB = soloRun(specB);

  // maxJobs 3 keeps the daemon alive after both jobs finish, so the
  // post-completion status query below still gets answered.
  Harness h(3);
  h.start();
  service::ServiceClient clientA("127.0.0.1", h.comm.port());
  service::ServiceClient clientB("127.0.0.1", h.comm.port());

  const service::StatusReply ackA = clientA.submit(specA);
  const service::StatusReply ackB = clientB.submit(specB);
  ASSERT_EQ(ackA.state, service::JobState::Queued);
  ASSERT_EQ(ackB.state, service::JobState::Queued);
  ASSERT_NE(ackA.jobId, ackB.jobId);

  const service::ResultReply resultA = clientA.waitResult(60.0);
  const service::ResultReply resultB = clientB.waitResult(60.0);
  ASSERT_EQ(resultA.state, service::JobState::Done) << resultA.detail;
  ASSERT_EQ(resultB.state, service::JobState::Done) << resultB.detail;
  ASSERT_TRUE(resultA.outcome.has_value());
  ASSERT_TRUE(resultB.outcome.has_value());
  expectBitwiseEqual(*resultA.outcome, soloA);
  expectBitwiseEqual(*resultB.outcome, soloB);

  // Status stays truthful after the fact.
  const service::StatusReply after = clientA.status(resultA.jobId);
  EXPECT_EQ(after.state, service::JobState::Done);
}

TEST(Service, WorkerLossMidJobKeepsTheResultBitwise) {
  const service::JobSpec spec = makeSpec("rosenbrock", 4, "pc", 7, 20);
  const core::OptimizationResult solo = soloRun(spec);

  // Worker rank 1 dies after three tasks; the survivor absorbs the rest
  // via the driver's requeue path, invisibly to the job.
  Harness h(1, 2, 3);
  h.start();
  service::ServiceClient client("127.0.0.1", h.comm.port());
  const service::StatusReply ack = client.submit(spec);
  ASSERT_EQ(ack.state, service::JobState::Queued);
  const service::ResultReply result = client.waitResult(60.0);
  ASSERT_EQ(result.state, service::JobState::Done) << result.detail;
  ASSERT_TRUE(result.outcome.has_value());
  expectBitwiseEqual(*result.outcome, solo);
}

TEST(Service, CancellingOneJobLeavesItsNeighbourBitwise) {
  const service::JobSpec victim = makeSpec("rastrigin", 4, "pc", 11, 100000);
  const service::JobSpec survivor = makeSpec("sphere", 3, "pc", 5, 25);
  const core::OptimizationResult solo = soloRun(survivor);

  Harness h(2);
  h.start();
  service::ServiceClient clientA("127.0.0.1", h.comm.port());
  service::ServiceClient clientB("127.0.0.1", h.comm.port());

  const service::StatusReply ackVictim = clientA.submit(victim);
  const service::StatusReply ackSurvivor = clientB.submit(survivor);
  ASSERT_EQ(ackVictim.state, service::JobState::Queued);
  ASSERT_EQ(ackSurvivor.state, service::JobState::Queued);

  // Let the victim get some shards in flight, then kill it.
  std::this_thread::sleep_for(200ms);
  const service::StatusReply cancelAck = clientA.cancel(ackVictim.jobId);
  EXPECT_NE(cancelAck.state, service::JobState::Unknown);

  const service::ResultReply cancelled = clientA.waitResult(60.0);
  EXPECT_EQ(cancelled.state, service::JobState::Cancelled) << cancelled.detail;

  const service::ResultReply done = clientB.waitResult(60.0);
  ASSERT_EQ(done.state, service::JobState::Done) << done.detail;
  ASSERT_TRUE(done.outcome.has_value());
  expectBitwiseEqual(*done.outcome, solo);
}

TEST(Service, SubmittingPastTheAdmissionCapIsARetryableRejection) {
  Harness h(3);
  h.opts.maxConcurrentJobs = 1;
  h.opts.maxQueuedJobs = 1;
  h.start();
  service::ServiceClient client("127.0.0.1", h.comm.port());

  // A long-running job occupies the single concurrency slot...
  const service::StatusReply a =
      client.submit(makeSpec("rastrigin", 4, "pc", 3, 100000));
  ASSERT_EQ(a.state, service::JobState::Queued);
  for (int i = 0; i < 200; ++i) {
    if (client.status(a.jobId).state == service::JobState::Running) break;
    std::this_thread::sleep_for(20ms);
  }
  ASSERT_EQ(client.status(a.jobId).state, service::JobState::Running);

  // ...a second fills the queue...
  const service::StatusReply b =
      client.submit(makeSpec("sphere", 3, "pc", 4, 100000));
  ASSERT_EQ(b.state, service::JobState::Queued);

  // ...and a third is refused retryably, not hung or crashed.
  const service::StatusReply c = client.submit(makeSpec("sphere", 3, "pc", 6, 10));
  EXPECT_EQ(c.state, service::JobState::Rejected);
  EXPECT_TRUE(c.retryable);
  EXPECT_NE(c.detail.find("capacity"), std::string::npos);

  // Status reports the load truthfully while saturated.
  const service::StatusReply summary = client.status(0);
  EXPECT_EQ(summary.running, 1);
  EXPECT_EQ(summary.queued, 1);

  // Unblock the daemon's maxJobs budget.
  (void)client.cancel(a.jobId);
  (void)client.cancel(b.jobId);
  const service::ResultReply r1 = client.waitResult(60.0);
  const service::ResultReply r2 = client.waitResult(60.0);
  EXPECT_EQ(r1.state, service::JobState::Cancelled);
  EXPECT_EQ(r2.state, service::JobState::Cancelled);
  // The rejected submission never entered the table; with both real jobs
  // cancelled, nothing is left running.
  const service::StatusReply drained = client.status(0);
  EXPECT_EQ(drained.running, 0);
}

TEST(Service, NonFiniteSigma0IsANonRetryableRejection) {
  Harness h(1);
  h.start();
  service::ServiceClient client("127.0.0.1", h.comm.port());
  service::JobSpec nan = makeSpec("sphere", 2, "pc", 1, 5);
  nan.objective.sigma0 = std::nan("");
  const service::StatusReply reply = client.submit(nan);
  EXPECT_EQ(reply.state, service::JobState::Rejected);
  EXPECT_FALSE(reply.retryable);
  EXPECT_NE(reply.detail.find("sigma0"), std::string::npos) << reply.detail;
  // The rejection never entered the table; one tiny job lets the daemon exit.
  const service::StatusReply ack = client.submit(makeSpec("sphere", 2, "det", 1, 5));
  ASSERT_EQ(ack.state, service::JobState::Queued);
  EXPECT_EQ(client.waitResult(60.0).state, service::JobState::Done);
}

/// Holds every task until released: its heartbeats keep the rank
/// alive while no completion ever reaches the daemon.
class StuckServiceWorker final : public service::ServiceWorker {
 public:
  StuckServiceWorker(net::Transport& comm, mw::Rank rank, const std::atomic<bool>& release)
      : ServiceWorker(comm, rank), release_(release) {}

 protected:
  void executeTask(mw::MessageBuffer& in, mw::MessageBuffer& out) override {
    while (!release_.load()) std::this_thread::sleep_for(10ms);
    ServiceWorker::executeTask(in, out);
  }

 private:
  const std::atomic<bool>& release_;
};

/// A daemon whose only worker is stuck; teardown releases the worker
/// before stopping and joining, whatever the test saw.
struct StuckFleet {
  net::TcpCommWorld comm{0};
  std::atomic<bool> release{false};
  std::atomic<bool> stop{false};
  std::thread worker;
  std::thread daemon;

  explicit StuckFleet(double recvTimeoutSeconds) {
    worker = std::thread([port = comm.port(), this] {
      try {
        net::TcpWorkerTransport transport("127.0.0.1", port);
        StuckServiceWorker w(transport, transport.rank(), release);
        w.run();
      } catch (const net::ConnectionLost&) {
      }
    });
    (void)comm.waitForWorkers(1, 10.0);
    service::ServiceOptions opts;
    opts.maxJobs = 1;
    opts.recvTimeoutSeconds = recvTimeoutSeconds;
    daemon = std::thread([this, opts] {
      service::OptimizationService svc(comm, opts);
      (void)svc.run(stop);
    });
  }

  ~StuckFleet() {
    release.store(true);
    stop.store(true);
    daemon.join();
    worker.join();
  }

  StuckFleet(const StuckFleet&) = delete;
  StuckFleet& operator=(const StuckFleet&) = delete;
};

TEST(Service, DaemonRecvTimeoutFailsAJobWhoseTasksNeverComplete) {
  // The worker is alive (heartbeats flow) but never answers: after the
  // receive timeout the daemon must fail the job through its fleet-loss
  // path, as one-shot serve does, instead of leaving it running forever.
  StuckFleet fleet(0.5);
  service::ServiceClient client("127.0.0.1", fleet.comm.port());
  const service::StatusReply ack = client.submit(makeSpec("sphere", 2, "pc", 1, 5));
  ASSERT_EQ(ack.state, service::JobState::Queued);
  const auto t0 = std::chrono::steady_clock::now();
  const service::ResultReply result = client.waitResult(10.0);
  const double waited =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  EXPECT_EQ(result.state, service::JobState::Failed);
  EXPECT_NE(result.detail.find("no task completed for 0.5"), std::string::npos)
      << result.detail;
  EXPECT_LT(waited, 5.0);
}

TEST(Service, JobRoundsAreNotPacedByThePollInterval) {
  // Engine threads wake the daemon loop when they submit, so a job's
  // sampling rounds run at the fleet's pace.  A loop that made every round
  // wait out a 20 ms timeout would need over 0.8 s for this job.
  const service::JobSpec spec = makeSpec("rosenbrock", 4, "pc", 2026, 25);
  const core::OptimizationResult solo = soloRun(spec);

  Harness h(1);
  h.start();
  service::ServiceClient client("127.0.0.1", h.comm.port());
  const auto t0 = std::chrono::steady_clock::now();
  const service::StatusReply ack = client.submit(spec);
  ASSERT_EQ(ack.state, service::JobState::Queued);
  const service::ResultReply result = client.waitResult(60.0);
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  ASSERT_EQ(result.state, service::JobState::Done) << result.detail;
  ASSERT_TRUE(result.outcome.has_value());
  expectBitwiseEqual(*result.outcome, solo);
  EXPECT_LT(seconds, 0.25);
}

TEST(Service, DaemonCaptureEndsEveryShardTreeOnce) {
  // A daemon capture must pass `sfopt trace --verify`: every shard tree
  // ends exactly once, folded or discarded by its job's scheduler or,
  // once the job has closed, discarded by the daemon.  One plain job and
  // one that shards and speculates, whose last prefetch may outlive it.
  std::ostringstream jsonl;
  telemetry::JsonlSink sink(jsonl);
  telemetry::Telemetry spine(sink);
  {
    Harness h(2);
    h.opts.telemetry = &spine;
    h.start();
    service::JobSpec piped = makeSpec("sphere", 3, "mn", 99, 25);
    piped.shardMinSamples = 64;
    piped.speculate = true;
    service::ServiceClient plainClient("127.0.0.1", h.comm.port());
    service::ServiceClient pipedClient("127.0.0.1", h.comm.port());
    ASSERT_EQ(plainClient.submit(makeSpec("rosenbrock", 4, "pc", 2026, 25)).state,
              service::JobState::Queued);
    ASSERT_EQ(pipedClient.submit(piped).state, service::JobState::Queued);
    EXPECT_EQ(plainClient.waitResult(60.0).state, service::JobState::Done);
    EXPECT_EQ(pipedClient.waitResult(60.0).state, service::JobState::Done);
  }
  sink.flush();

  std::vector<telemetry::Event> events;
  std::istringstream in(jsonl.str());
  for (std::string line; std::getline(in, line);) {
    if (auto e = telemetry::parseJsonLine(line)) events.push_back(std::move(*e));
  }
  const telemetry::TraceReport report = telemetry::analyzeTraceEvents(events);
  for (const std::string& p : report.problems) ADD_FAILURE() << p;
  EXPECT_GT(report.traces, 0u);
  EXPECT_GT(report.folded, 0u);
}

TEST(Service, IdleDaemonDoesNotSpin) {
  // Between events the daemon thread sleeps in the transport poll; a wake
  // pipe left undrained would turn that sleep into a busy loop.
  Harness h(1, 1);
  h.start();
  service::ServiceClient client("127.0.0.1", h.comm.port());
  ASSERT_EQ(client.status(0).state, service::JobState::Unknown);  // the loop is up
  const std::clock_t cpu0 = std::clock();
  std::this_thread::sleep_for(1s);
  const double cpuSeconds = static_cast<double>(std::clock() - cpu0) / CLOCKS_PER_SEC;
  EXPECT_LT(cpuSeconds, 0.25);
}

TEST(Service, StatusForUnknownJobSaysSo) {
  Harness h(1);
  h.start();
  service::ServiceClient client("127.0.0.1", h.comm.port());
  const service::StatusReply reply = client.status(424242);
  EXPECT_EQ(reply.state, service::JobState::Unknown);
  // Let the daemon exit: run one tiny job through.
  const service::StatusReply ack = client.submit(makeSpec("sphere", 2, "det", 1, 5));
  ASSERT_EQ(ack.state, service::JobState::Queued);
  EXPECT_EQ(client.waitResult(60.0).state, service::JobState::Done);
}

/// The table's indexed counts and nextQueued() must equal a scan of all();
/// `evicted` is how many distinct ids the table has evicted.
void expectIndexesMatchScan(service::JobTable& table, std::size_t evicted) {
  int queued = 0;
  int running = 0;
  std::int64_t terminal = 0;
  const service::JobRecord* lowestQueued = nullptr;
  for (const auto& [id, rec] : table.all()) {
    if (rec.state == service::JobState::Queued) {
      ++queued;
      if (lowestQueued == nullptr) lowestQueued = &rec;
    } else if (rec.state == service::JobState::Running) {
      ++running;
    } else {
      ++terminal;
    }
  }
  EXPECT_EQ(table.queuedCount(), queued);
  EXPECT_EQ(table.runningCount(), running);
  EXPECT_EQ(table.completedCount(), terminal + static_cast<std::int64_t>(evicted));
  EXPECT_EQ(table.anyActive(), queued + running > 0);
  EXPECT_EQ(table.nextQueued(), lowestQueued);
}

TEST(JobTable, IndexesTrackEveryTransition) {
  using service::JobState;
  service::JobTable table(2, 8);
  std::size_t evicted = 0;
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 6; ++i) {
    const service::Admission a = table.admit(makeSpec("sphere", 2, "det", 1, 5), 1, 0.0);
    ASSERT_TRUE(a.accepted);
    ids.push_back(a.jobId);
    expectIndexesMatchScan(table, evicted);
  }
  // Promote the two lowest ids, as the daemon does.
  for (int i = 0; i < 2; ++i) {
    table.setState(*table.nextQueued(), JobState::Running);
    expectIndexesMatchScan(table, evicted);
  }
  // Every terminal state, reached from running and from queued.
  table.setState(*table.find(ids[0]), JobState::Done);
  expectIndexesMatchScan(table, evicted);
  table.setState(*table.find(ids[1]), JobState::Failed);
  expectIndexesMatchScan(table, evicted);
  table.setState(*table.find(ids[3]), JobState::Cancelled);
  expectIndexesMatchScan(table, evicted);

  // Recovery: restore over an existing (queued) id, and under a new one.
  service::JobRecord replaced;
  replaced.id = ids[2];
  replaced.state = JobState::Done;
  table.restore(std::move(replaced));
  expectIndexesMatchScan(table, evicted);
  service::JobRecord restored;
  restored.id = 100;
  table.restore(std::move(restored));
  expectIndexesMatchScan(table, evicted);

  // Retention keeps the youngest terminal record.
  const std::vector<std::uint64_t> gone = table.evictFinishedOver(1);
  EXPECT_EQ(gone, (std::vector<std::uint64_t>{ids[0], ids[1], ids[2]}));
  evicted += gone.size();
  expectIndexesMatchScan(table, evicted);

  // Journal replay of an eviction: the id never reaches the table.
  table.markEvicted(200, JobState::Done);
  ++evicted;
  expectIndexesMatchScan(table, evicted);

  // Drain the queue in id order.
  std::vector<std::uint64_t> order;
  while (service::JobRecord* rec = table.nextQueued()) {
    order.push_back(rec->id);
    table.setState(*rec, JobState::Running);
    expectIndexesMatchScan(table, evicted);
    table.setState(*rec, JobState::Done);
    expectIndexesMatchScan(table, evicted);
  }
  EXPECT_EQ(order, (std::vector<std::uint64_t>{ids[4], ids[5], 100}));
  EXPECT_FALSE(table.anyActive());
}

TEST(TicketExchange, RoundRobinInterleavesJobsFairly) {
  service::TicketExchange ex;
  ex.openJob(1);
  ex.openJob(2);
  for (int i = 0; i < 3; ++i) {
    (void)ex.submit(1, mw::MessageBuffer{});
    (void)ex.submit(2, mw::MessageBuffer{});
  }
  EXPECT_EQ(ex.pendingShards(), 6u);
  const auto batch = ex.drainPending(4);
  ASSERT_EQ(batch.size(), 4u);
  // One shard per job per cycle: jobs alternate instead of draining job 1
  // dry first.
  EXPECT_NE(batch[0].jobId, batch[1].jobId);
  EXPECT_NE(batch[2].jobId, batch[3].jobId);
  // Tickets carry their job's namespace.
  for (const auto& shard : batch) {
    EXPECT_EQ(shard.ticket >> service::kJobTraceShift, shard.jobId);
  }
  ex.closeJob(1);
  ex.closeJob(2);
}

TEST(TicketExchange, AbortMakesTheJobThreadThrowJobAborted) {
  service::TicketExchange ex;
  ex.openJob(1);
  ex.abort(1, "cancelled by client", true);
  try {
    (void)ex.poll(1, 0.0);
    FAIL() << "poll after abort must throw";
  } catch (const service::JobAborted& e) {
    EXPECT_TRUE(e.cancelled());
    EXPECT_STREQ(e.what(), "cancelled by client");
  }
  EXPECT_THROW((void)ex.submit(1, mw::MessageBuffer{}), service::JobAborted);
  ex.closeJob(1);
}

TEST(TicketExchange, DeliveryToAClosedJobIsDroppedSilently) {
  service::TicketExchange ex;
  ex.openJob(1);
  const std::uint64_t ticket = ex.submit(1, mw::MessageBuffer{});
  ex.closeJob(1);
  EXPECT_NO_THROW(ex.deliver(1, ticket, {}));
}

TEST(TicketExchange, CloseJobHandsBackCompletionsItsJobNeverPolled) {
  // A completion delivered after the job's last poll (here a cancelled
  // job's; also a prefetch still in flight when a job finishes) comes back
  // out of closeJob, so the daemon can still end its span tree.
  service::TicketExchange ex;
  ex.openJob(1);
  const std::uint64_t ticket = ex.submit(1, mw::MessageBuffer{});
  ex.abort(1, "cancelled by client", true);
  ASSERT_TRUE(ex.deliver(1, ticket, {stats::Welford{}}));
  EXPECT_THROW((void)ex.poll(1, 0.0), service::JobAborted);
  const auto unpolled = ex.closeJob(1);
  ASSERT_EQ(unpolled.size(), 1u);
  EXPECT_EQ(unpolled[0].ticket, ticket);
  EXPECT_TRUE(ex.closeJob(1).empty());
}

}  // namespace
