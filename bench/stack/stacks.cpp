#include "stack/stacks.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <ctime>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <type_traits>
#include <unordered_map>
#include <variant>

#ifdef __linux__
#include <pthread.h>
#include <sched.h>
#endif

#include "core/algorithms.hpp"
#include "core/initial_simplex.hpp"
#include "mw/sampling_service.hpp"
#include "net/tcp_transport.hpp"
#include "noise/rng.hpp"
#include "service/service.hpp"
#include "service/service_client.hpp"
#include "water/cost.hpp"
#include "water/md_objective.hpp"

namespace sfopt::bench {

namespace {

constexpr double kHandshakeSeconds = 10.0;
/// Backstop for a wedged job; a healthy one never waits this long.
constexpr double kRecvTimeoutSeconds = 60.0;
constexpr double kResultTimeoutSeconds = 120.0;
constexpr const char* kLoopback = "127.0.0.1";

// -- job streams ------------------------------------------------------------

std::uint64_t jobSeed(std::uint64_t seed, std::uint64_t index) {
  return noise::hashCombine(seed, index);
}

/// Scale every coordinate by a factor in [0.99, 1.01) drawn from `seed`.
std::vector<core::Point> jittered(std::vector<core::Point> points, std::uint64_t seed) {
  noise::RngStream rng(seed, 1);
  for (auto& p : points) {
    for (double& c : p) c *= rng.uniform(0.99, 1.01);
  }
  return points;
}

/// Table 3.4 PC+MN on the surrogate from the Table 3.4(a) start, with the
/// table34_water per-vertex cap.  The stop is a fixed 1.5M-sample budget,
/// not that bench's convergence test: run to convergence, jobs of one
/// stream took 0.05-0.8 s, so a run's median followed the seed rather than
/// the code.  Job time then measures the stack; best_true_p50 measures what
/// the budget bought.
Job surrogateJob(std::uint64_t seed, std::uint64_t index) {
  const std::uint64_t s = jobSeed(seed, index);
  water::WaterCostObjective::Options objective;
  objective.sigma0 = 0.2;
  objective.seed = s;
  const auto rows = water::table34InitialPoints();
  core::PCOptions pcmn;
  pcmn.maxNoiseGate = true;
  pcmn.common.termination.tolerance = 0.0;
  pcmn.common.termination.maxIterations = 100'000;
  pcmn.common.termination.maxSamples = 1'500'000;
  pcmn.common.sampling.maxSamplesPerVertex = 400'000;
  Job job;
  job.objective = std::make_unique<water::WaterCostObjective>(objective);
  job.start = jittered({rows.begin(), rows.begin() + 4}, s);
  job.options = pcmn;
  return job;
}

/// Real-MD MN on the 16-molecule e2e_water protocol with the speculative
/// pipeline, stopped at a 64-sample budget.  Up to 16 samples per vertex
/// give the gate loop several rounds, so there is a next round to
/// speculate on (at 4 per vertex nothing is ever prefetched).
Job mdJob(std::uint64_t seed, std::uint64_t index) {
  const std::uint64_t s = jobSeed(seed, index);
  water::MdWaterObjective::Options objective;
  objective.simulation.molecules = 16;
  objective.simulation.cutoff = 3.0;
  objective.simulation.rdfRMax = 3.0;
  objective.simulation.rdfBins = 30;
  objective.simulation.equilibrationSteps = 120;
  objective.simulation.productionSteps = 240;
  objective.simulation.sampleEvery = 10;
  objective.seed = s;
  core::MaxNoiseOptions mn;
  mn.common.termination.tolerance = 0.0;
  mn.common.termination.maxIterations = 100;
  mn.common.termination.maxSamples = 64;
  mn.common.initialSamplesPerVertex = 2;
  mn.common.sampling.maxSamplesPerVertex = 16;
  mn.common.sampling.speculate = true;
  Job job;
  job.objective = std::make_unique<water::MdWaterObjective>(objective);
  job.start = jittered({{0.20, 3.05, 0.50}, {0.12, 3.30, 0.55}, {0.17, 3.15, 0.45},
                        {0.14, 3.20, 0.58}},
                       s);
  job.options = mn;
  return job;
}

/// Rosenbrock d=3 PC, 10 iterations, random start in [-2, 2), default
/// priority: with one job running at a time (see DaemonSession) priority
/// has nothing to weigh.
Job daemonJob(std::uint64_t seed, std::uint64_t index) {
  const std::uint64_t s = jobSeed(seed, index);
  service::JobSpec spec;
  spec.objective.function = "rosenbrock";
  spec.objective.dim = 3;
  spec.objective.seed = s;
  spec.algorithm = "pc";
  spec.termination.maxIterations = 10;
  noise::RngStream rng(s, 1);
  spec.initial = core::randomSimplexPoints(3, -2.0, 2.0, rng);
  spec.validate();
  Job job;
  job.objective = std::make_unique<noise::NoisyFunction>(spec.objective.makeObjective());
  job.start = spec.initial;
  job.options = spec.makeOptions();
  job.spec = std::move(spec);
  return job;
}

// -- shared plumbing --------------------------------------------------------

/// Joins every thread it holds when it goes out of scope, exceptions
/// included.
struct ThreadGroup {
  std::vector<std::thread> threads;
  ThreadGroup() = default;
  ThreadGroup(const ThreadGroup&) = delete;
  ThreadGroup& operator=(const ThreadGroup&) = delete;
  ~ThreadGroup() { join(); }
  void join() {
    for (auto& t : threads) {
      if (t.joinable()) t.join();
    }
  }
};

void attachTelemetry(mw::AlgorithmOptions& options, telemetry::Telemetry* telemetry) {
  std::visit([&](auto& o) { o.common.telemetry = telemetry; }, options);
}

core::OptimizationResult runAlgorithm(const noise::StochasticObjective& objective,
                                      std::span<const core::Point> start,
                                      const mw::AlgorithmOptions& options) {
  return std::visit(
      [&](const auto& o) -> core::OptimizationResult {
        using T = std::decay_t<decltype(o)>;
        if constexpr (std::is_same_v<T, core::DetOptions>) {
          return core::runDeterministic(objective, start, o);
        } else if constexpr (std::is_same_v<T, core::MaxNoiseOptions>) {
          return core::runMaxNoise(objective, start, o);
        } else if constexpr (std::is_same_v<T, core::AndersonOptions>) {
          return core::runAnderson(objective, start, o);
        } else {
          return core::runPointToPoint(objective, start, o);
        }
      },
      options);
}

/// What one fleet worker thread leaves behind for the layer accounting.
struct WorkerSlot {
  TransportTally tally;
  std::int64_t samples = 0;
  double objectiveSeconds = 0.0;
  std::string error;
};

void foldWorkers(std::span<const WorkerSlot> slots, LayerTotals& layers) {
  for (const WorkerSlot& slot : slots) {
    layers.objectiveSamples += slot.samples;
    layers.objectiveSeconds += slot.objectiveSeconds;
    layers.workerBusySeconds += slot.tally.perTraceSum();
  }
}

/// Worker-side execute time of `trace`, or nullopt if no worker saw it.
std::optional<double> workerSeconds(std::span<const WorkerSlot> slots, std::uint64_t trace) {
  for (const WorkerSlot& slot : slots) {
    const auto it = slot.tally.perTrace.find(trace);
    if (it != slot.tally.perTrace.end()) return it->second;
  }
  return std::nullopt;
}

std::string firstError(std::span<const WorkerSlot> slots) {
  for (const WorkerSlot& slot : slots) {
    if (!slot.error.empty()) return "worker: " + slot.error;
  }
  return {};
}

/// Worker thread body shared by both MW stacks: connect, serve until the
/// master's shutdown, and leave the decorator readings in `slot`.
/// `objective` is null for a service worker (tasks describe their own).
void fleetWorker(const noise::StochasticObjective* objective, std::uint16_t port,
                 WorkerSlot& slot, Tracing* tracing) {
  try {
    net::TcpWorkerTransport transport(kLoopback, port);
    const mw::Rank rank = transport.rank();
    if (tracing == nullptr) {
      if (objective != nullptr) {
        mw::SamplingWorker(transport, rank, *objective, 1).run();
      } else {
        service::ServiceWorker(transport, rank).run();
      }
      return;
    }
    TimedTransport timed(transport, TimedTransport::Role::Worker, slot.tally, &tracing->sink,
                         rank);
    if (objective != nullptr) {
      TimedObjective timedObjective(*objective);
      mw::SamplingWorker(timed, rank, timedObjective, 1).run();
      slot.samples = timedObjective.samples();
      slot.objectiveSeconds = timedObjective.busySeconds();
    } else {
      TimedServiceWorker worker(timed, rank);
      worker.run();
      slot.samples = worker.samples();
      slot.objectiveSeconds = worker.busySeconds();
    }
    timed.snapshotWire();
  } catch (const net::ConnectionLost&) {
    // The master went away first: teardown after a failed job, reported
    // by the master side.
  } catch (const std::exception& e) {
    slot.error = e.what();
  }
}

// -- inline -----------------------------------------------------------------

JobRun runInline(const Job& job, std::uint64_t index, Tracing* tracing) {
  JobRun run;
  run.index = index;
  std::optional<TimedObjective> timed;
  mw::AlgorithmOptions options = job.options;
  if (tracing != nullptr) {
    timed.emplace(*job.objective);
    attachTelemetry(options, &tracing->program);
  }
  const noise::StochasticObjective& objective =
      timed ? static_cast<const noise::StochasticObjective&>(*timed) : *job.objective;
  const double cpu0 = processCpuSeconds();
  const double t0 = net::monotonicSeconds();
  try {
    run.result = runAlgorithm(objective, job.start, options);
    run.ok = true;
  } catch (const std::exception& e) {
    run.error = e.what();
  }
  const double t1 = net::monotonicSeconds();
  run.wallSeconds = t1 - t0;
  run.cpuSeconds = processCpuSeconds() - cpu0;
  if (tracing != nullptr) {
    LayerTotals& layers = tracing->layers;
    layers.objectiveSamples += timed->samples();
    layers.objectiveSeconds += timed->busySeconds();
    layers.engineSelfSeconds += run.wallSeconds - timed->busySeconds();
    tracing->sink.span("bench.job", t0, t1, 0, {{"job", static_cast<double>(index)}});
  }
  return run;
}

// -- one-shot TCP -------------------------------------------------------------

JobRun runOneShotTcp(const Job& job, std::uint64_t index, Tracing* tracing) {
  JobRun run;
  run.index = index;
  std::array<WorkerSlot, kFleetWorkers> slots;
  TransportTally master;
  mw::MWRunResult mwResult;
  const double cpu0 = processCpuSeconds();
  const double t0 = net::monotonicSeconds();
  ThreadGroup fleet;
  try {
    net::TcpCommWorld world(0);
    for (int w = 0; w < kFleetWorkers; ++w) {
      fleet.threads.emplace_back(fleetWorker, job.objective.get(), world.port(),
                                 std::ref(slots[static_cast<std::size_t>(w)]), tracing);
    }
    (void)world.waitForWorkers(kFleetWorkers, kHandshakeSeconds);
    run.setupCpuSeconds = processCpuSeconds() - cpu0;
    std::optional<TimedTransport> timed;
    mw::AlgorithmOptions options = job.options;
    mw::MWRunConfig config;
    config.recvTimeoutSeconds = kRecvTimeoutSeconds;
    if (tracing != nullptr) {
      timed.emplace(world, TimedTransport::Role::Master, master, &tracing->sink, 0.0);
      attachTelemetry(options, &tracing->program);
      config.telemetry = &tracing->program;
    }
    net::Transport& comm = timed ? static_cast<net::Transport&>(*timed) : world;
    mwResult = mw::runSimplexOverTransport(*job.objective, job.start, options, comm, config);
    if (timed) timed->snapshotWire();
    fleet.join();  // every worker has its shutdown; join while the master lives
    run.ok = true;
  } catch (const std::exception& e) {
    run.error = e.what();
  }
  fleet.join();  // after the master closed: a stranded worker saw its connection drop
  const double t1 = net::monotonicSeconds();
  run.wallSeconds = t1 - t0;
  run.cpuSeconds = processCpuSeconds() - cpu0;
  run.result = mwResult.optimization;
  run.requeues = mwResult.tasksRequeued;
  if (const std::string error = firstError(slots); run.ok && !error.empty()) {
    run.ok = false;
    run.error = error;
  }
  if (tracing != nullptr) {
    LayerTotals& layers = tracing->layers;
    foldWorkers(slots, layers);
    layers.fleetSeconds += run.wallSeconds;
    layers.tasks += mwResult.tasksCompleted;
    layers.masterWaitSeconds += master.recvSeconds;
    layers.engineSelfSeconds +=
        mwResult.masterWallSeconds - master.sendSeconds - master.recvSeconds;
    layers.messages += master.messagesOut + master.messagesIn;
    layers.wireBytes += master.wireBytes;
    layers.frames += master.frames;
    for (const auto& [trace, roundTrip] : master.perTrace) {
      if (const auto execute = workerSeconds(slots, trace)) {
        layers.taskOverheadUs.push_back((roundTrip - *execute) * 1e6);
      }
    }
    tracing->sink.span("bench.job", t0, t1, 0, {{"job", static_cast<double>(index)}});
  }
  return run;
}

// -- daemon -----------------------------------------------------------------

/// An empty directory at `dir`: the bench's housekeeping, kept off the
/// set-up clock.
void freshDir(const std::filesystem::path& dir) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
}

/// One daemon incarnation on a fresh state dir: a 3-worker fleet, the
/// OptimizationService thread with CLI defaults except one running job
/// and checkpoints every 5 iterations, and one welcomed ServiceClient per
/// load thread.  With the default two running jobs, whether a sampling
/// round waits out the daemon's 50 ms poll timeout depends on how the two
/// jobs' rounds happen to interleave: the same seed's job_s_p50 read
/// 0.37 s in one run and 0.64 s in the next.  With one running job (the
/// other client's queued) every round waits the timeout, and runs agree.
/// Multi-job draining and priority are therefore not measured here.
class DaemonSession {
 public:
  /// `stateDir` must exist and be empty (freshDir).
  DaemonSession(const std::filesystem::path& stateDir, int clients, Tracing* tracing) {
    world_ = std::make_unique<net::TcpCommWorld>(0);
    const std::uint16_t port = world_->port();
    try {
      for (auto& slot : slots_) {
        fleet_.threads.emplace_back(fleetWorker, nullptr, port, std::ref(slot), tracing);
      }
      (void)world_->waitForWorkers(kFleetWorkers, kHandshakeSeconds);
      service::ServiceOptions options;
      options.stateDir = stateDir.string();
      options.maxConcurrentJobs = 1;
      options.checkpointInterval = 5;
      options.recvTimeoutSeconds = kRecvTimeoutSeconds;
      options.telemetry = tracing != nullptr ? &tracing->program : nullptr;
      daemon_ = std::thread([this, options] {
        try {
          service::OptimizationService service(*world_, options);
          (void)service.run(stop_);
        } catch (const std::exception& e) {
          daemonError_ = e.what();
        }
      });
      for (int c = 0; c < clients; ++c) {
        clients_.push_back(
            std::make_unique<service::ServiceClient>(kLoopback, port, kHandshakeSeconds));
      }
    } catch (...) {
      close();
      throw;
    }
  }

  DaemonSession(const DaemonSession&) = delete;
  DaemonSession& operator=(const DaemonSession&) = delete;
  ~DaemonSession() { close(); }

  [[nodiscard]] service::ServiceClient& client(int c) {
    return *clients_[static_cast<std::size_t>(c)];
  }

  /// Stop the daemon, then the fleet.  Idempotent.  Returns the first
  /// daemon or worker error, empty when the session was healthy.
  std::string close() {
    clients_.clear();
    stop_.store(true);
    if (daemon_.joinable()) daemon_.join();
    world_.reset();  // a worker the daemon never shut down sees its connection drop
    fleet_.join();
    return daemonError_.empty() ? firstError(slots_) : "daemon: " + daemonError_;
  }

  [[nodiscard]] std::span<const WorkerSlot> slots() const { return slots_; }

 private:
  std::unique_ptr<net::TcpCommWorld> world_;
  std::array<WorkerSlot, kFleetWorkers> slots_;
  ThreadGroup fleet_;
  std::atomic<bool> stop_{false};
  std::string daemonError_;
  std::thread daemon_;
  std::vector<std::unique_ptr<service::ServiceClient>> clients_;
};

/// Closed loop for one client: submit, wait for the result, repeat.
void clientLoop(const Workload& w, std::uint64_t seed, const PassPlan& plan, int c,
                service::ServiceClient& client, std::vector<JobRun>& runs, double& lastEnd) {
  for (std::size_t k = 0;; ++k) {
    if (plan.quota.empty() ? net::monotonicSeconds() >= plan.deadline
                           : k >= plan.quota[static_cast<std::size_t>(c)]) {
      break;
    }
    JobRun run;
    run.index = static_cast<std::uint64_t>(c) + static_cast<std::uint64_t>(w.clients) * k;
    const Job job = w.makeJob(seed, run.index);
    const double cpu0 = processCpuSeconds();
    const double t0 = net::monotonicSeconds();
    try {
      const service::StatusReply ack = client.submit(*job.spec);
      run.submitSeconds = net::monotonicSeconds() - t0;
      if (ack.state != service::JobState::Queued) {
        run.error = "submit " + std::string(service::toString(ack.state)) + ": " + ack.detail;
      } else {
        const service::ResultReply reply = client.waitResult(kResultTimeoutSeconds);
        if (reply.state == service::JobState::Done && reply.outcome) {
          run.result = reply.outcome->toResult();
          run.ok = true;
        } else {
          run.error = std::string(service::toString(reply.state)) + ": " + reply.detail;
        }
      }
    } catch (const std::exception& e) {
      run.error = e.what();
    }
    lastEnd = net::monotonicSeconds();
    run.wallSeconds = lastEnd - t0;
    run.cpuSeconds = processCpuSeconds() - cpu0;
    runs.push_back(std::move(run));
  }
}

Pass runDaemon(const Workload& w, std::uint64_t seed, const PassPlan& plan,
               const std::filesystem::path& scratch, Tracing* tracing) {
  Pass pass;
  pass.stateDir = scratch / "daemon-state";
  freshDir(pass.stateDir);
  DaemonSession session(pass.stateDir, w.clients, tracing);
  std::vector<std::vector<JobRun>> runs(static_cast<std::size_t>(w.clients));
  std::vector<double> lastEnd(static_cast<std::size_t>(w.clients), 0.0);
  const double cpu0 = processCpuSeconds();
  const double t0 = net::monotonicSeconds();
  {
    ThreadGroup load;
    for (int c = 0; c < w.clients; ++c) {
      const auto i = static_cast<std::size_t>(c);
      load.threads.emplace_back(clientLoop, std::cref(w), seed, std::cref(plan), c,
                                std::ref(session.client(c)), std::ref(runs[i]),
                                std::ref(lastEnd[i]));
    }
  }
  pass.cpuSeconds = processCpuSeconds() - cpu0;
  pass.wallSeconds = std::max(0.0, *std::max_element(lastEnd.begin(), lastEnd.end()) - t0);
  const std::string error = session.close();
  for (auto& clientRuns : runs) {
    pass.perClient.push_back(clientRuns.size());
    for (JobRun& run : clientRuns) {
      if (run.ok && !error.empty()) {
        run.ok = false;
        run.error = error;
      }
      pass.jobs.push_back(std::move(run));
    }
  }
  if (tracing != nullptr) {
    LayerTotals& layers = tracing->layers;
    foldWorkers(session.slots(), layers);
    layers.fleetSeconds += pass.wallSeconds;
    std::unordered_map<std::uint64_t, double> shards;  // job id -> distinct traces
    for (const WorkerSlot& slot : session.slots()) {
      layers.tasks += slot.tally.tasksIn;
      layers.messages += slot.tally.messagesOut + slot.tally.messagesIn;
      layers.wireBytes += slot.tally.wireBytes;
      layers.frames += slot.tally.frames;
      for (const auto& [trace, seconds] : slot.tally.perTrace) {
        shards[trace >> service::kJobTraceShift] += 1.0;
      }
    }
    for (const auto& [job, count] : shards) layers.shardsPerJob.push_back(count);
    // The daemon owns its master transport, so the master half of each
    // task comes from the program's own shard.remote span.
    for (const auto& remote : tracing->sink.named("shard.remote")) {
      if (const auto execute = workerSeconds(session.slots(), remote.trace)) {
        layers.taskOverheadUs.push_back((remote.duration - *execute) * 1e6);
      }
    }
  }
  std::sort(pass.jobs.begin(), pass.jobs.end(),
            [](const JobRun& a, const JobRun& b) { return a.index < b.index; });
  return pass;
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all{
      {"surrogate_inline", Stack::Inline, 1, surrogateJob},
      {"surrogate_tcp", Stack::OneShotTcp, 1, surrogateJob},
      {"md_tcp_speculative", Stack::OneShotTcp, 1, mdJob},
      {"daemon_durable", Stack::Daemon, 2, daemonJob},
  };
  return all;
}

const Workload* findWorkload(std::string_view name) {
  for (const Workload& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

#ifdef __linux__
namespace {

/// The CPUs the process may run on, read before any thread is pinned.
const std::vector<int>& allowedCpus() {
  static const std::vector<int> cpus = [] {
    std::vector<int> out;
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof set, &set) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &set)) out.push_back(c);
      }
    }
    return out;
  }();
  return cpus;
}

bool pinTo(std::span<const int> cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int c : cpus) CPU_SET(c, &set);
  return pthread_setaffinity_np(pthread_self(), sizeof set, &set) == 0;
}

}  // namespace

CpuPin::CpuPin(std::size_t slot) {
  const std::vector<int>& cpus = allowedCpus();
  if (cpus.size() > 1) pinned_ = pinTo(std::span(cpus).subspan(slot % cpus.size(), 1));
}

CpuPin::~CpuPin() {
  if (pinned_) (void)pinTo(allowedCpus());
}

std::size_t CpuPin::cpus() { return std::max<std::size_t>(allowedCpus().size(), 1); }
#else
CpuPin::CpuPin(std::size_t) {}
CpuPin::~CpuPin() = default;
std::size_t CpuPin::cpus() { return 1; }
#endif

namespace {

double cpuClockSeconds(clockid_t clock) {
  timespec ts{};
  (void)clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// ~4 ms of dependent floating-point adds and multiplies over a 128 KiB
/// array: the kind of arithmetic the surrogate and MD samples do, in cache.
double probeLoop() {
  std::vector<double> a(std::size_t{1} << 14, 1.0);
  const double t0 = cpuClockSeconds(CLOCK_THREAD_CPUTIME_ID);
  double acc = 0.0;
  for (int pass = 0; pass < 160; ++pass) {
    for (double& x : a) {
      acc += x * 1.0000001;
      x = acc * 1e-9 + 1.0;
    }
  }
  const double seconds = cpuClockSeconds(CLOCK_THREAD_CPUTIME_ID) - t0;
  // Keep the loop: its result feeds the return value, by a zero term.
  return seconds + (acc < 0.0 ? acc : 0.0);
}

}  // namespace

double processCpuSeconds() { return cpuClockSeconds(CLOCK_PROCESS_CPUTIME_ID); }

double coreSpeedProbe() {
  std::vector<double> seconds(CpuPin::cpus());
  {
    ThreadGroup threads;
    for (std::size_t c = 0; c < seconds.size(); ++c) {
      threads.threads.emplace_back([c, &seconds] {
        const CpuPin pin(c);
        seconds[c] = probeLoop();
      });
    }
  }
  return std::accumulate(seconds.begin(), seconds.end(), 0.0) /
         static_cast<double>(seconds.size());
}

double daemonSetupOnce(const Workload& w, std::uint64_t seed,
                       const std::filesystem::path& scratch) {
  freshDir(scratch / "daemon-setup");
  const double cpu0 = processCpuSeconds();
  (void)w.makeJob(seed, 0);
  DaemonSession session(scratch / "daemon-setup", w.clients, nullptr);
  const double seconds = processCpuSeconds() - cpu0;
  if (const std::string error = session.close(); !error.empty()) {
    throw std::runtime_error(error);
  }
  return seconds;
}

Pass runPass(const Workload& w, std::uint64_t seed, const PassPlan& plan,
             const std::filesystem::path& scratch, Tracing* tracing) {
  if (w.stack == Stack::Daemon) return runDaemon(w, seed, plan, scratch, tracing);
  Pass pass;
  const double t0 = net::monotonicSeconds();
  double probeWall = 0.0;  // off the pass's wall time
  for (std::uint64_t j = 0;; ++j) {
    if (plan.quota.empty() ? net::monotonicSeconds() >= plan.deadline : j >= plan.quota[0]) {
      break;
    }
    const double probeStart = net::monotonicSeconds();
    pass.probeSeconds.push_back(coreSpeedProbe());
    probeWall += net::monotonicSeconds() - probeStart;
    std::optional<CpuPin> pin;  // inline jobs take turns on every CPU
    if (w.stack == Stack::Inline) pin.emplace(j);
    const double cpu0 = processCpuSeconds();
    const Job job = w.makeJob(seed, j);
    const double built = processCpuSeconds() - cpu0;
    JobRun run = w.stack == Stack::Inline ? runInline(job, j, tracing)
                                          : runOneShotTcp(job, j, tracing);
    run.setupCpuSeconds += built;
    pass.cpuSeconds += built + run.cpuSeconds;
    pass.jobs.push_back(std::move(run));
  }
  pass.wallSeconds = net::monotonicSeconds() - t0 - probeWall;
  pass.perClient = {pass.jobs.size()};
  return pass;
}

core::OptimizationResult oracleRun(const Job& job, std::int64_t checkpointEvery,
                                   std::vector<core::SimplexCheckpoint>* checkpoints) {
  mw::AlgorithmOptions options = job.options;
  if (checkpoints != nullptr) {
    std::visit(
        [&](auto& o) {
          o.common.checkpointEvery = checkpointEvery;
          o.common.checkpointSink = [checkpoints](const core::SimplexCheckpoint& cp) {
            checkpoints->push_back(cp);
          };
        },
        options);
  }
  mw::MWRunConfig config;
  config.workers = kFleetWorkers;
  config.recvTimeoutSeconds = kRecvTimeoutSeconds;
  if (job.spec) config.clientsPerWorker = static_cast<int>(job.spec->objective.clients);
  return mw::runSimplexOverMW(*job.objective, job.start, options, config).optimization;
}

std::vector<OracleRun> runOracles(const Workload& w, std::uint64_t seed,
                                  std::span<const std::uint64_t> indices, int threads,
                                  std::int64_t checkpointEvery) {
  std::vector<OracleRun> out(indices.size());
  std::atomic<std::size_t> next{0};
  const auto work = [&] {
    for (std::size_t i = next++; i < indices.size(); i = next++) {
      OracleRun& o = out[i];
      try {
        const Job job = w.makeJob(seed, indices[i]);
        const double t0 = net::monotonicSeconds();
        o.result = oracleRun(job, checkpointEvery,
                             checkpointEvery > 0 ? &o.checkpoints : nullptr);
        o.seconds = net::monotonicSeconds() - t0;
      } catch (const std::exception& e) {
        o.error = e.what();
      }
    }
  };
  ThreadGroup pool;
  for (int t = 1; t < threads; ++t) pool.threads.emplace_back(work);
  work();
  return out;
}

bool sameOutcome(const core::OptimizationResult& a, const core::OptimizationResult& b,
                 bool inlineVsMw) {
  const bool shape = a.best == b.best && a.iterations == b.iterations &&
                     a.totalSamples == b.totalSamples && a.reason == b.reason;
  if (inlineVsMw) return shape;
  const core::MoveCounters& x = a.counters;
  const core::MoveCounters& y = b.counters;
  return shape && a.bestEstimate == b.bestEstimate && a.bestTrue == b.bestTrue &&
         a.elapsedTime == b.elapsedTime && x.reflections == y.reflections &&
         x.expansions == y.expansions && x.contractions == y.contractions &&
         x.collapses == y.collapses && x.gateWaitRounds == y.gateWaitRounds &&
         x.resampleRounds == y.resampleRounds && x.forcedResolutions == y.forcedResolutions;
}

}  // namespace sfopt::bench
