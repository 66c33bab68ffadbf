#include "service/durable_state.hpp"

#include <gtest/gtest.h>

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/algorithms.hpp"
#include "core/initial_simplex.hpp"
#include "mw/parallel_runner.hpp"
#include "net/chaos_transport.hpp"
#include "net/tcp_transport.hpp"
#include "service/service.hpp"
#include "service/service_client.hpp"
#include "service/service_worker.hpp"
#include "service/ticket_exchange.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/telemetry.hpp"

// Chaos and property tests for the durable service (§9.9): journal replay
// round-trips, torn-tail truncation at every cut point, the torn-write
// fault hook, and the headline invariant — a daemon killed mid-job (up to
// and including SIGKILL of a real `sfopt serve --daemon` process) restarts,
// resumes from the last snapshot, and finishes with a result bitwise
// identical to the uninterrupted solo run.

namespace {

using namespace sfopt;
using namespace std::chrono_literals;

namespace fs = std::filesystem;

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

/// Ground truth for the bitwise assertions: the same spec run alone,
/// in-process, over the MW backend (see service_test.cpp).
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

/// Fresh directory under the system temp root, removed on scope exit.
struct TempDir {
  fs::path path;
  TempDir() {
    std::string tmpl = (fs::temp_directory_path() / "sfopt-durable-XXXXXX").string();
    char* made = ::mkdtemp(tmpl.data());
    if (made == nullptr) throw std::runtime_error("mkdtemp failed");
    path = made;
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
};

service::JobOutcome fakeOutcome(std::uint64_t salt) {
  service::JobOutcome o;
  o.reason = core::TerminationReason::IterationLimit;
  o.best = core::Point{1.5, -0.25, static_cast<double>(salt) * 0.125};
  o.bestEstimate = 0.0009765625 * static_cast<double>(salt);
  o.iterations = 10 + static_cast<std::int64_t>(salt);
  o.totalSamples = 1000 + static_cast<std::int64_t>(salt);
  o.elapsedTime = 0.5;
  o.counters.reflections = static_cast<std::int64_t>(salt);
  return o;
}

TEST(DurableJournal, HundredEntryReplayRoundTripsUnderASecond) {
  TempDir dir;
  {
    service::DurableState ds(dir.path);
    // 40 submits + 30 starts + 25 finishes + 5 evictions = 100 entries.
    for (std::uint64_t id = 1; id <= 40; ++id) {
      service::JobSpec spec =
          makeSpec(id % 2 == 0 ? "sphere" : "rosenbrock", 3 + static_cast<std::int64_t>(id % 3),
                   "pc", 100 + id, 20);
      spec.priority = 1 + static_cast<std::int64_t>(id % 7);
      ds.recordSubmitted(id, spec);
    }
    for (std::uint64_t id = 1; id <= 30; ++id) ds.recordStarted(id);
    for (std::uint64_t id = 1; id <= 25; ++id) {
      if (id % 5 == 0) {
        ds.recordFinished(id, service::JobState::Failed, "fleet lost", std::nullopt);
      } else {
        ds.recordFinished(id, service::JobState::Done, "", fakeOutcome(id));
      }
    }
    for (std::uint64_t id = 1; id <= 5; ++id) ds.recordEvicted(id);
  }

  const auto t0 = std::chrono::steady_clock::now();
  service::DurableState ds(dir.path);
  const service::DurableState::Recovery rec = ds.recover();
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  EXPECT_LT(seconds, 1.0);

  EXPECT_EQ(rec.entriesReplayed, 100u);
  EXPECT_FALSE(rec.truncatedTail);
  EXPECT_EQ(rec.maxJobId, 40u);
  ASSERT_EQ(rec.jobs.size(), 40u);
  for (const service::DurableState::RecoveredJob& job : rec.jobs) {
    const std::uint64_t id = job.id;
    EXPECT_EQ(job.spec.objective.seed, 100 + id);
    EXPECT_EQ(job.spec.priority, 1 + static_cast<std::int64_t>(id % 7));
    EXPECT_EQ(job.evicted, id <= 5);
    if (id > 30) {
      EXPECT_EQ(job.state, service::JobState::Queued) << "job " << id;
    } else if (id > 25) {
      EXPECT_EQ(job.state, service::JobState::Running) << "job " << id;
    } else if (id % 5 == 0) {
      EXPECT_EQ(job.state, service::JobState::Failed) << "job " << id;
      EXPECT_EQ(job.error, "fleet lost");
      EXPECT_FALSE(job.outcome.has_value());
    } else {
      EXPECT_EQ(job.state, service::JobState::Done) << "job " << id;
      ASSERT_TRUE(job.outcome.has_value()) << "job " << id;
      const service::JobOutcome want = fakeOutcome(id);
      EXPECT_EQ(job.outcome->best, want.best);
      EXPECT_EQ(job.outcome->bestEstimate, want.bestEstimate);
      EXPECT_EQ(job.outcome->totalSamples, want.totalSamples);
    }
  }
}

TEST(DurableJournal, EveryTornTailTruncatesToTheCleanPrefix) {
  TempDir dir;
  {
    service::DurableState ds(dir.path);
    for (std::uint64_t id = 1; id <= 6; ++id) {
      ds.recordSubmitted(id, makeSpec("sphere", 3, "pc", id, 10));
      ds.recordStarted(id);
    }
  }
  std::vector<char> wire;
  {
    std::ifstream in(dir.path / "journal.sfj", std::ios::binary);
    wire.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }
  ASSERT_GT(wire.size(), 12u);

  // A kill can tear the journal at any byte: every cut must recover the
  // longest clean record prefix, flag the torn tail, truncate it away,
  // and replay identically (and quietly) the second time around.
  for (std::size_t cut = 0; cut < wire.size(); cut += 13) {
    TempDir torn;
    {
      std::ofstream out(torn.path / "journal.sfj", std::ios::binary);
      out.write(wire.data(), static_cast<std::streamsize>(cut));
    }
    service::DurableState ds(torn.path);
    service::DurableState::Recovery first;
    ASSERT_NO_THROW(first = ds.recover()) << "cut at byte " << cut;
    EXPECT_LE(first.entriesReplayed, 12u);
    EXPECT_EQ(first.truncatedTail, cut > 12 && fs::file_size(torn.path / "journal.sfj") < cut)
        << "cut at byte " << cut;

    service::DurableState again(torn.path);
    const service::DurableState::Recovery second = again.recover();
    EXPECT_FALSE(second.truncatedTail) << "cut at byte " << cut;
    EXPECT_EQ(second.entriesReplayed, first.entriesReplayed) << "cut at byte " << cut;
  }
}

TEST(DurableJournal, TornWriteFaultHookLeavesARecoverableJournal) {
  TempDir dir;
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    // Die the hard way halfway through the third append; only async-safe
    // work after this point (DurableState flushes then _Exit(137)s).
    ::setenv("SFOPT_DURABLE_TORN_WRITE", "3", 1);
    service::DurableState ds(dir.path);
    for (std::uint64_t id = 1; id <= 5; ++id) {
      ds.recordSubmitted(id, makeSpec("sphere", 3, "pc", id, 10));
    }
    std::_Exit(0);  // hook failed to fire: report success=0 so the parent fails
  }
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFEXITED(status));
  ASSERT_EQ(WEXITSTATUS(status), 137) << "torn-write hook did not fire";

  service::DurableState ds(dir.path);
  const service::DurableState::Recovery rec = ds.recover();
  EXPECT_TRUE(rec.truncatedTail);
  EXPECT_EQ(rec.entriesReplayed, 2u);
  ASSERT_EQ(rec.jobs.size(), 2u);
  EXPECT_EQ(rec.jobs[0].spec.objective.seed, 1u);
  EXPECT_EQ(rec.jobs[1].spec.objective.seed, 2u);

  // The truncation is durable: a second recovery sees a clean journal.
  service::DurableState again(dir.path);
  EXPECT_FALSE(again.recover().truncatedTail);
}

TEST(DurableJournal, ForeignMagicAndFutureVersionsAreRefused) {
  {
    TempDir dir;
    std::ofstream(dir.path / "journal.sfj", std::ios::binary) << "NOTOURSXxxxxx";
    EXPECT_THROW(service::DurableState ds(dir.path), std::runtime_error);
  }
  {
    TempDir dir;
    {
      service::DurableState ds(dir.path);  // writes a valid header
    }
    std::fstream f(dir.path / "journal.sfj",
                   std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(8);
    const char v99[4] = {99, 0, 0, 0};
    f.write(v99, 4);
    f.close();
    try {
      service::DurableState ds(dir.path);
      FAIL() << "future journal version must be refused, not guessed at";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("version 99"), std::string::npos);
    }
  }
}

/// A worker that sleeps before every task — the straggler the speculative
/// duplicates route around.
class SlowServiceWorker final : public service::ServiceWorker {
 public:
  SlowServiceWorker(net::Transport& comm, mw::Rank rank, std::chrono::milliseconds delay)
      : ServiceWorker(comm, rank), delay_(delay) {}

 protected:
  void executeTask(mw::MessageBuffer& in, mw::MessageBuffer& out) override {
    std::this_thread::sleep_for(delay_);
    ServiceWorker::executeTask(in, out);
  }

 private:
  std::chrono::milliseconds delay_;
};

/// One daemon + worker fleet on an ephemeral port (service_test.cpp's
/// harness, grown durability/speculation knobs).  The first `slowWorkers`
/// workers sleep `slowWorkerDelay` before every task.
struct Harness {
  net::TcpCommWorld comm{0};
  service::ServiceOptions opts;
  std::vector<std::thread> workers;
  std::thread daemon;
  std::atomic<bool> stop{false};
  std::int64_t completed = -1;

  explicit Harness(std::int64_t maxJobs, int workerCount = 2,
                   std::chrono::milliseconds slowWorkerDelay = 0ms, int slowWorkers = 1) {
    opts.maxJobs = maxJobs;
    opts.recvTimeoutSeconds = 20.0;
    for (int i = 0; i < workerCount; ++i) {
      const bool slow = slowWorkerDelay > 0ms && i < slowWorkers;
      const std::uint16_t port = comm.port();
      workers.emplace_back([port, slow, slowWorkerDelay] {
        try {
          net::TcpWorkerTransport transport("127.0.0.1", port);
          if (slow) {
            SlowServiceWorker worker(transport, transport.rank(), slowWorkerDelay);
            worker.run();
          } else {
            service::ServiceWorker worker(transport, transport.rank());
            worker.run();
          }
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

  void finish() {
    stop.store(true);
    if (daemon.joinable()) daemon.join();
    for (auto& t : workers) t.join();
    workers.clear();
  }

  ~Harness() { finish(); }
};

service::StatusReply pollUntilTerminal(service::ServiceClient& client, std::uint64_t jobId,
                                       double timeoutSeconds = 60.0) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeoutSeconds);
  for (;;) {
    const service::StatusReply reply = client.status(jobId);
    if (reply.state != service::JobState::Queued &&
        reply.state != service::JobState::Running) {
      return reply;
    }
    if (std::chrono::steady_clock::now() > deadline) return reply;
    std::this_thread::sleep_for(30ms);
  }
}

/// Per-task delay that stretches the fault tests' jobs back over their
/// fault windows: at fleet speed the daemon finishes an 80-iteration job in
/// tens of milliseconds, before a stop, kill or partition could land.
constexpr std::chrono::milliseconds kFaultWindowTaskDelay = 5ms;

/// The daemon's recovery line, "recover:  replayed N journal entries (Q
/// queued, R running, F finished)", parsed out of its log.
struct RecoveryLine {
  bool found = false;
  int queued = -1;
  int running = -1;
  int finished = -1;
};

RecoveryLine parseRecoveryLine(const std::string& log) {
  RecoveryLine r;
  const std::size_t at = log.find("recover:  replayed ");
  if (at == std::string::npos) return r;
  int entries = 0;
  r.found = std::sscanf(log.c_str() + at,
                        "recover:  replayed %d journal entries (%d queued, %d running, "
                        "%d finished)",
                        &entries, &r.queued, &r.running, &r.finished) == 4;
  return r;
}

bool waitForFile(const fs::path& file, double timeoutSeconds = 30.0) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeoutSeconds);
  while (!fs::exists(file)) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(10ms);
  }
  return true;
}

TEST(Durability, RestartRecoversFinishedRunningAndQueuedJobsBitwise) {
  const service::JobSpec finishedSpec = makeSpec("sphere", 3, "pc", 5, 10);
  const service::JobSpec interruptedSpec = makeSpec("rosenbrock", 4, "pc", 2026, 80);
  const service::JobSpec queuedSpec = makeSpec("rastrigin", 3, "mn", 42, 15);
  const core::OptimizationResult soloFinished = soloRun(finishedSpec);
  const core::OptimizationResult soloInterrupted = soloRun(interruptedSpec);
  const core::OptimizationResult soloQueued = soloRun(queuedSpec);

  TempDir state;
  std::uint64_t finishedId = 0;
  std::uint64_t interruptedId = 0;
  std::uint64_t queuedId = 0;

  // Incarnation one: one job finishes, one is stopped mid-run right after
  // its first snapshot lands, one never leaves the queue.
  {
    Harness h(100, 2, kFaultWindowTaskDelay, 2);
    h.opts.stateDir = state.path.string();
    h.opts.checkpointInterval = 3;
    h.opts.maxConcurrentJobs = 1;
    h.start();
    service::ServiceClient client("127.0.0.1", h.comm.port());

    finishedId = client.submit(finishedSpec).jobId;
    ASSERT_EQ(pollUntilTerminal(client, finishedId).state, service::JobState::Done);

    interruptedId = client.submit(interruptedSpec).jobId;
    queuedId = client.submit(queuedSpec).jobId;
    ASSERT_TRUE(waitForFile(state.path / ("job-" + std::to_string(interruptedId) + ".ckpt")))
        << "no snapshot appeared before the stop";
    h.finish();
  }

  // Incarnation two: a fresh daemon + fleet over the same state dir must
  // resume the interrupted job from its snapshot, run the queued one, and
  // still serve the finished one's stored result — all bitwise.
  std::ostringstream log;
  {
    Harness h(100);
    h.opts.stateDir = state.path.string();
    h.opts.checkpointInterval = 3;
    h.opts.log = &log;
    h.start();
    service::ServiceClient client("127.0.0.1", h.comm.port());

    EXPECT_EQ(pollUntilTerminal(client, interruptedId).state, service::JobState::Done);
    EXPECT_EQ(pollUntilTerminal(client, queuedId).state, service::JobState::Done);

    const service::ResultReply finished = client.fetchResult(finishedId);
    const service::ResultReply interrupted = client.fetchResult(interruptedId);
    const service::ResultReply queued = client.fetchResult(queuedId);
    ASSERT_TRUE(finished.outcome.has_value()) << finished.detail;
    ASSERT_TRUE(interrupted.outcome.has_value()) << interrupted.detail;
    ASSERT_TRUE(queued.outcome.has_value()) << queued.detail;
    expectBitwiseEqual(*finished.outcome, soloFinished);
    expectBitwiseEqual(*interrupted.outcome, soloInterrupted);
    expectBitwiseEqual(*queued.outcome, soloQueued);

    // Job ids stay unique across incarnations: a new submission must not
    // reuse a recovered id's namespace.
    const std::uint64_t freshId = client.submit(makeSpec("sphere", 2, "det", 9, 5)).jobId;
    EXPECT_GT(freshId, queuedId);
    EXPECT_EQ(pollUntilTerminal(client, freshId).state, service::JobState::Done);
  }

  // The faults really landed where the test says: the stop caught one job
  // running and one queued, and the second daemon resumed from a snapshot.
  const RecoveryLine recovered = parseRecoveryLine(log.str());
  ASSERT_TRUE(recovered.found) << log.str();
  EXPECT_EQ(recovered.queued, 1) << log.str();
  EXPECT_EQ(recovered.running, 1) << log.str();
  EXPECT_EQ(recovered.finished, 1) << log.str();
  EXPECT_NE(log.str().find("job " + std::to_string(interruptedId) +
                           ": running (resumed from checkpoint)"),
            std::string::npos)
      << log.str();
}

// ---------------------------------------------------------------------------
// Subprocess chaos: SIGKILL a real `sfopt serve --daemon` process.

struct DaemonProcess {
  pid_t pid = -1;
  fs::path logPath;

  void spawn(const std::vector<std::string>& args, const fs::path& log) {
    logPath = log;
    pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      const int fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (fd >= 0) {
        ::dup2(fd, 1);
        ::dup2(fd, 2);
      }
      std::vector<char*> argv;
      std::vector<std::string> storage = args;
      argv.push_back(const_cast<char*>(SFOPT_CLI_PATH));
      for (std::string& a : storage) argv.push_back(a.data());
      argv.push_back(nullptr);
      ::execv(SFOPT_CLI_PATH, argv.data());
      std::_Exit(127);
    }
  }

  /// Parse "listening on 0.0.0.0:<port>" out of the daemon's log.
  std::uint16_t waitForPort(double timeoutSeconds = 20.0) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::duration<double>(timeoutSeconds);
    const std::string needle = "listening on 0.0.0.0:";
    while (std::chrono::steady_clock::now() < deadline) {
      std::ifstream in(logPath);
      std::string text((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
      const std::size_t at = text.find(needle);
      if (at != std::string::npos) {
        const long port = std::strtol(text.c_str() + at + needle.size(), nullptr, 10);
        if (port > 0 && port <= 65535) return static_cast<std::uint16_t>(port);
      }
      std::this_thread::sleep_for(20ms);
    }
    return 0;
  }

  void kill9() {
    if (pid < 0) return;
    ::kill(pid, SIGKILL);
    int status = 0;
    ::waitpid(pid, &status, 0);
    pid = -1;
  }

  void terminate() {
    if (pid < 0) return;
    ::kill(pid, SIGTERM);
    int status = 0;
    ::waitpid(pid, &status, 0);
    pid = -1;
  }

  ~DaemonProcess() { kill9(); }
};

std::unique_ptr<service::ServiceClient> dialDaemon(std::uint16_t port,
                                                   double timeoutSeconds = 15.0) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeoutSeconds);
  for (;;) {
    try {
      return std::make_unique<service::ServiceClient>("127.0.0.1", port);
    } catch (const std::exception&) {
      if (std::chrono::steady_clock::now() > deadline) throw;
      std::this_thread::sleep_for(100ms);
    }
  }
}

/// Kill the daemon either the instant the job is admitted (journal-only
/// recovery, resume from the initial simplex) or after the first snapshot
/// lands (checkpoint resume) — both continuations must be bitwise clean.
void runKillRestartRound(bool waitForSnapshot) {
  ::unsetenv("SFOPT_DURABLE_TORN_WRITE");
  const service::JobSpec spec = makeSpec("rosenbrock", 4, "pc", 7, 60);
  const core::OptimizationResult solo = soloRun(spec);

  TempDir state;
  TempDir logs;

  DaemonProcess first;
  first.spawn({"serve", "--daemon", "--port", "0", "--state-dir", state.path.string(),
               "--checkpoint-interval", "2"},
              logs.path / "daemon1.log");
  ASSERT_GE(first.pid, 0);
  const std::uint16_t port = first.waitForPort();
  ASSERT_NE(port, 0) << "daemon never announced its port";

  // Workers outlive both daemon incarnations by re-dialing the fixed port.
  std::atomic<bool> stopWorkers{false};
  std::vector<std::thread> workers;
  for (int i = 0; i < 2; ++i) {
    workers.emplace_back([port, &stopWorkers] {
      while (!stopWorkers.load()) {
        try {
          net::TcpWorkerTransport transport("127.0.0.1", port);
          SlowServiceWorker worker(transport, transport.rank(), kFaultWindowTaskDelay);
          worker.run();
        } catch (const std::exception&) {
        }
        std::this_thread::sleep_for(50ms);
      }
    });
  }
  const auto joinWorkers = [&] {
    stopWorkers.store(true);
    for (auto& t : workers) t.join();
  };

  std::uint64_t jobId = 0;
  {
    const std::unique_ptr<service::ServiceClient> client = dialDaemon(port);
    const service::StatusReply ack = client->submit(spec);
    ASSERT_EQ(ack.state, service::JobState::Queued) << ack.detail;
    jobId = ack.jobId;
  }
  if (waitForSnapshot) {
    ASSERT_TRUE(waitForFile(state.path / ("job-" + std::to_string(jobId) + ".ckpt")))
        << "no snapshot before the kill";
  }
  first.kill9();  // no goodbye: clients, workers, and engine threads all die

  DaemonProcess second;
  second.spawn({"serve", "--daemon", "--port", std::to_string(port), "--state-dir",
                state.path.string(), "--checkpoint-interval", "2"},
               logs.path / "daemon2.log");
  ASSERT_GE(second.pid, 0);
  if (second.waitForPort() == 0) {
    joinWorkers();
    FAIL() << "restarted daemon never came up on port " << port;
  }

  {
    const std::unique_ptr<service::ServiceClient> client = dialDaemon(port);
    const service::StatusReply done = pollUntilTerminal(*client, jobId, 90.0);
    EXPECT_EQ(done.state, service::JobState::Done) << done.detail;
    const service::ResultReply result = client->fetchResult(jobId);
    ASSERT_TRUE(result.outcome.has_value()) << result.detail;
    expectBitwiseEqual(*result.outcome, solo);
  }
  second.terminate();
  joinWorkers();

  // The kill landed mid-job: the restarted daemon found the job unfinished
  // and resumed it from a snapshot exactly when the test waited for one.
  std::ifstream in(logs.path / "daemon2.log");
  const std::string log((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  const RecoveryLine recovered = parseRecoveryLine(log);
  ASSERT_TRUE(recovered.found) << log;
  EXPECT_EQ(recovered.finished, 0) << log;
  EXPECT_EQ(recovered.queued + recovered.running, 1) << log;
  const bool resumed = log.find("job " + std::to_string(jobId) +
                                ": running (resumed from checkpoint)") != std::string::npos;
  EXPECT_EQ(resumed, waitForSnapshot) << log;
  if (waitForSnapshot) {
    EXPECT_EQ(recovered.running, 1) << log;
  }
}

TEST(Durability, DaemonSigkilledRightAfterAdmissionRecoversBitwise) {
  runKillRestartRound(/*waitForSnapshot=*/false);
}

TEST(Durability, DaemonSigkilledAfterACheckpointResumesFromItBitwise) {
  runKillRestartRound(/*waitForSnapshot=*/true);
}

// ---------------------------------------------------------------------------
// Chaos: the worker fabric misbehaves mid-job, the result must not move.

TEST(Durability, JobSurvivesChaosPartitionAndDuplicationBitwise) {
  // Both workers dial the daemon through a ChaosProxy that duplicates
  // every worker->master frame for the whole run; mid-job one worker's
  // link is partitioned and later healed.  The master must evict the
  // silenced rank, requeue its in-flight shards onto the survivor, accept
  // the evicted worker back under a fresh rank, discard the duplicated and
  // late frames — and hand the client a result bitwise identical to the
  // solo run.
  const service::JobSpec spec = makeSpec("rosenbrock", 4, "pc", 2026, 80);
  const core::OptimizationResult solo = soloRun(spec);

  net::TcpCommWorld::Options copts;
  copts.heartbeatIntervalSeconds = 0.05;
  copts.heartbeatTimeoutSeconds = 0.6;
  net::TcpCommWorld comm(0, copts);
  telemetry::Telemetry tel;  // outlives the daemon thread, joined by cleanup

  net::ChaosSchedule schedule;
  schedule.seed = 2026;
  schedule.events.push_back({0.0, net::ChaosEvent::Kind::Duplicate, net::ChaosDir::Up,
                             0.0, 0.0, 0, -1});
  net::ChaosProxy proxy("127.0.0.1", comm.port(), schedule);

  // CLI-style reconnect loops: a worker whose link dies re-dials the proxy
  // and serves under whatever fresh rank the master assigns.
  std::atomic<bool> stopWorkers{false};
  std::vector<std::thread> workers;
  std::atomic<bool> stop{false};
  std::thread daemon;
  // Wind down on every exit path: a failed ASSERT or a thrown
  // ConnectionLost must surface as a test failure, not as std::terminate
  // from a joinable thread's destructor.
  struct Cleanup {
    std::function<void()> fn;
    ~Cleanup() { fn(); }
  } cleanup{[&] {
    stop.store(true);
    if (daemon.joinable()) daemon.join();
    stopWorkers.store(true);
    for (auto& t : workers) {
      if (t.joinable()) t.join();
    }
  }};
  for (int i = 0; i < 2; ++i) {
    workers.emplace_back([&] {
      while (!stopWorkers.load()) {
        try {
          net::TcpWorkerTransport::Options wopts;
          wopts.heartbeatIntervalSeconds = 0.05;
          wopts.masterTimeoutSeconds = 1.0;
          wopts.handshakeTimeoutSeconds = 1.0;
          net::TcpWorkerTransport transport("127.0.0.1", proxy.port(), wopts);
          SlowServiceWorker worker(transport, transport.rank(), kFaultWindowTaskDelay);
          worker.run();
          break;  // clean shutdown from the service
        } catch (const std::exception&) {
        }
        std::this_thread::sleep_for(30ms);
      }
    });
    (void)comm.waitForWorkers(i + 1, 10.0);
  }

  service::ServiceOptions opts;
  opts.maxJobs = 1;
  opts.recvTimeoutSeconds = 30.0;
  opts.telemetry = &tel;
  daemon = std::thread([&] {
    service::OptimizationService svc(comm, opts);
    (void)svc.run(stop);
  });

  // The client dials the daemon directly — chaos only on the worker fabric.
  service::ServiceClient client("127.0.0.1", comm.port());
  const service::StatusReply ack = client.submit(spec);
  ASSERT_EQ(ack.state, service::JobState::Queued);

  // Mid-job: partition the first worker's link, then heal it.  The window
  // must comfortably exceed the master's 0.6s heartbeat timeout: task
  // frames dropped during the partition are only ever recovered by the
  // requeue that eviction triggers, so a heal racing the eviction deadline
  // could strand them in-flight forever.
  std::this_thread::sleep_for(150ms);
  service::ServiceClient probe("127.0.0.1", comm.port());
  ASSERT_EQ(probe.status(ack.jobId).state, service::JobState::Running)
      << "the job finished before the partition";
  net::ChaosEvent cut;
  cut.kind = net::ChaosEvent::Kind::Partition;
  cut.connIndex = 0;
  proxy.inject(cut);
  std::this_thread::sleep_for(1200ms);
  proxy.heal();

  const service::ResultReply result = client.waitResult(120.0);
  ASSERT_EQ(result.state, service::JobState::Done) << result.detail;
  ASSERT_TRUE(result.outcome.has_value());
  expectBitwiseEqual(*result.outcome, solo);
  EXPECT_GT(proxy.counters().framesDuplicated, 0u);
  // The partition evicted a rank while the job still ran (maxJobs = 1: the
  // daemon exits once the job is done, so join it before reading).
  daemon.join();
  EXPECT_GE(tel.metrics().counter("mw.workers_lost").value(), 1);
}

// ---------------------------------------------------------------------------
// Satellites: speculation, priorities, retention.

TEST(Service, SpeculativeDuplicationKeepsResultsBitwise) {
  const service::JobSpec spec = makeSpec("rosenbrock", 4, "pc", 2026, 12);
  const core::OptimizationResult solo = soloRun(spec);

  // Worker 0 drags every task out by 150 ms; with the factor at 2 the
  // driver re-dispatches its shards to the fast worker, whose identical
  // counter-keyed payload wins. The result must not betray any of it.
  Harness h(1, 2, 150ms);
  h.opts.speculativeFactor = 2.0;
  h.start();
  service::ServiceClient client("127.0.0.1", h.comm.port());
  const service::StatusReply ack = client.submit(spec);
  ASSERT_EQ(ack.state, service::JobState::Queued);
  const service::ResultReply result = client.waitResult(90.0);
  ASSERT_EQ(result.state, service::JobState::Done) << result.detail;
  ASSERT_TRUE(result.outcome.has_value());
  expectBitwiseEqual(*result.outcome, solo);
}

TEST(TicketExchange, WeightedDrainIsProportionalAndStarvationFree) {
  service::TicketExchange ex;
  ex.openJob(1, 5);
  ex.openJob(2, 1);
  for (int i = 0; i < 20; ++i) {
    (void)ex.submit(1, mw::MessageBuffer{});
    (void)ex.submit(2, mw::MessageBuffer{});
  }
  const auto batch = ex.drainPending(12);
  ASSERT_EQ(batch.size(), 12u);
  std::size_t high = 0;
  std::size_t low = 0;
  for (const auto& shard : batch) (shard.jobId == 1 ? high : low)++;
  // Two full cycles of 5:1 — proportional share for the high-priority job,
  // but the low-priority job is served every cycle, never starved.
  EXPECT_EQ(high, 10u);
  EXPECT_EQ(low, 2u);
  ex.closeJob(1);
  ex.closeJob(2);
}

TEST(Service, PriorityJobsStayBitwiseIsolated) {
  service::JobSpec urgent = makeSpec("rosenbrock", 4, "pc", 2026, 20);
  urgent.priority = 10;
  service::JobSpec background = makeSpec("sphere", 3, "mn", 99, 20);
  background.priority = 1;
  const core::OptimizationResult soloUrgent = soloRun(urgent);
  const core::OptimizationResult soloBackground = soloRun(background);

  Harness h(2);
  h.start();
  service::ServiceClient clientA("127.0.0.1", h.comm.port());
  service::ServiceClient clientB("127.0.0.1", h.comm.port());
  const service::StatusReply ackA = clientA.submit(urgent);
  const service::StatusReply ackB = clientB.submit(background);
  ASSERT_EQ(ackA.state, service::JobState::Queued);
  ASSERT_EQ(ackB.state, service::JobState::Queued);

  const service::ResultReply resultA = clientA.waitResult(60.0);
  const service::ResultReply resultB = clientB.waitResult(60.0);
  ASSERT_EQ(resultA.state, service::JobState::Done) << resultA.detail;
  ASSERT_EQ(resultB.state, service::JobState::Done) << resultB.detail;
  // Weighted scheduling shifts *when* shards run, never *what* they
  // compute: both neighbours still match their solo runs bitwise.
  expectBitwiseEqual(*resultA.outcome, soloUrgent);
  expectBitwiseEqual(*resultB.outcome, soloBackground);
}

TEST(Service, ResultRetentionEvictsOldestAndStatusSaysSo) {
  Harness h(100);
  h.opts.resultRetention = 1;
  h.start();
  service::ServiceClient client("127.0.0.1", h.comm.port());

  const std::uint64_t first = client.submit(makeSpec("sphere", 2, "det", 1, 5)).jobId;
  ASSERT_EQ(pollUntilTerminal(client, first).state, service::JobState::Done);
  const std::uint64_t second = client.submit(makeSpec("sphere", 2, "det", 2, 5)).jobId;
  ASSERT_EQ(pollUntilTerminal(client, second).state, service::JobState::Done);

  // With the cap at one finished job, the older result must give way.
  service::StatusReply evicted;
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  do {
    evicted = client.status(first);
    std::this_thread::sleep_for(20ms);
  } while (evicted.detail.find("evicted") == std::string::npos &&
           std::chrono::steady_clock::now() < deadline);
  EXPECT_EQ(evicted.state, service::JobState::Done);
  EXPECT_NE(evicted.detail.find("evicted by --result-retention"), std::string::npos)
      << evicted.detail;

  // Fetch over a fresh connection (the `status --result` pattern): the
  // submitting client's parked push for `first` would otherwise shadow
  // the fetch reply.
  service::ServiceClient fetcher("127.0.0.1", h.comm.port());
  const service::ResultReply gone = fetcher.fetchResult(first);
  EXPECT_FALSE(gone.outcome.has_value());
  EXPECT_NE(gone.detail.find("evicted"), std::string::npos) << gone.detail;

  // The younger job's result is untouched.
  const service::ResultReply kept = fetcher.fetchResult(second);
  EXPECT_TRUE(kept.outcome.has_value()) << kept.detail;
}

}  // namespace
