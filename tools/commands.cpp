#include "commands.hpp"

#include <algorithm>
#include <atomic>
#include <csignal>
#include <functional>
#include <iterator>
#include <limits>
#include <map>
#include <chrono>
#include <cmath>
#include <memory>
#include <optional>
#include <ostream>
#include <sstream>
#include <thread>

#include "core/algorithms.hpp"
#include "core/annealing.hpp"
#include "core/initial_simplex.hpp"
#include "core/noise_probe.hpp"
#include "core/checkpoint.hpp"
#include "core/trace_io.hpp"
#include "core/pso.hpp"
#include "md/simulation.hpp"
#include "mw/parallel_runner.hpp"
#include "net/chaos_transport.hpp"
#include "net/frame.hpp"
#include "net/tcp_transport.hpp"
#include "noise/noisy_function.hpp"
#include "service/service.hpp"
#include "service/service_client.hpp"
#include "service/service_worker.hpp"
#include "simd/dispatch.hpp"
#include "simd/isa.hpp"
#include "telemetry/export.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/sink.hpp"
#include "telemetry/span.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace_analysis.hpp"
#include "water/cost.hpp"
#include "water/experimental.hpp"

namespace sfopt::tools {

namespace {

/// The objective flags of optimize, probe, serve and submit.
service::ObjectiveSpec objectiveSpecFrom(const Args& args) {
  service::ObjectiveSpec o;
  o.function = args.getString("function", "rosenbrock");
  o.dim = args.getInt("dim", 4);
  if (o.dim < 2) throw ArgError("--dim must be >= 2");
  o.sigma0 = args.getDouble("sigma0", 1.0);
  o.seed = static_cast<std::uint64_t>(args.getInt("seed", 2026));
  o.clients = args.getInt("clients", 1);
  return o;
}

/// The objective those flags name; a bad function, dimension or sigma0 is
/// a usage error.
noise::NoisyFunction objectiveFrom(const Args& args) {
  try {
    return objectiveSpecFrom(args).makeObjective();
  } catch (const std::exception& e) {
    throw ArgError(e.what());
  }
}

/// Initial simplex shared by `optimize` and `serve`: explicit --start
/// corner, or random in --box lo,hi (seeded, so the master is
/// deterministic for a given command line).
std::vector<core::Point> initialSimplexFrom(const Args& args, std::size_t dim) {
  if (args.has("start")) {
    const auto corner = args.getDoubleList("start", {});
    if (corner.size() != dim) throw ArgError("--start must have --dim coordinates");
    return core::axisSimplexPoints(corner, 1.0);
  }
  const auto box = args.getDoubleList("box", {-5.0, 5.0});
  if (box.size() != 2 || !(box[0] < box[1])) throw ArgError("--box expects lo,hi");
  noise::RngStream rng(static_cast<std::uint64_t>(args.getInt("seed", 2026)), 7);
  return core::randomSimplexPoints(dim, box[0], box[1], rng);
}

core::TerminationCriteria terminationFrom(const Args& args) {
  core::TerminationCriteria t;
  t.tolerance = args.getDouble("tolerance", 1e-4);
  t.maxIterations = args.getInt("max-iterations", 1000);
  t.maxSamples = args.getInt("max-samples", 1'000'000);
  t.maxTime = args.getDouble("max-time", 1e9);
  return t;
}

/// A duration flag in seconds.  NaN or a value <= 0 is a usage error; so
/// is infinity for an `interval` (a timeout may be infinite, a period may
/// not).
double secondsFlag(const Args& args, const std::string& flag, double fallback,
                   bool interval = false) {
  const double seconds = args.getDouble(flag, fallback);
  if (!(seconds > 0.0) || (interval && !std::isfinite(seconds))) {
    throw ArgError("--" + flag + " must be " + (interval ? "finite and " : "") +
                   "> 0 seconds");
  }
  return seconds;
}

/// An int flag that must lie in [lo, hi].  Anything outside, including a
/// value that a cast to int would wrap (4294967297 would become 1), is a
/// usage error naming the flag.
int intFlag(const Args& args, const std::string& flag, int fallback, int lo,
            int hi = std::numeric_limits<int>::max()) {
  const std::int64_t value = args.getInt(flag, fallback);
  if (value < lo || value > hi) {
    throw ArgError("--" + flag + " must be in [" + std::to_string(lo) + ", " +
                   std::to_string(hi) + "]");
  }
  return static_cast<int>(value);
}

/// Evaluation-pipeline knobs of `water` (a JobSpec carries them for the
/// other commands): `--shard-min-samples N` splits any sampling batch
/// bigger than N across the live workers, `--speculate` prefetches the
/// likely next round while the current one is in flight.  Both only take
/// effect when a sampling backend is attached; serial runs ignore them.
void applyPipelineKnobs(const Args& args, core::CommonOptions& common) {
  const auto shardMin = args.getInt("shard-min-samples", 0);
  if (shardMin < 0) throw ArgError("--shard-min-samples must be >= 0");
  common.sampling.shardMinSamples = shardMin;
  common.sampling.speculate = args.getBool("speculate", false);
}

/// `--isa scalar|sse4|avx2` pins the SIMD dispatch level for this
/// process (optimize, water, md, serve, worker).  Without the flag the
/// widest ISA the CPU supports is used (or SFOPT_ISA when set).  An
/// unknown or unsupported name is a usage error listing the host's
/// options.
void applyIsaFlag(const Args& args) {
  if (!args.has("isa")) return;
  try {
    simd::setActiveIsaByName(args.requireString("isa"));
  } catch (const std::invalid_argument& e) {
    throw ArgError(e.what());
  }
}

/// The best point and the estimate print at round-trip precision, so two
/// runs whose result lines agree agree bit for bit.
void printResult(std::ostream& out, const core::OptimizationResult& res) {
  constexpr int kRoundTrip = std::numeric_limits<double>::max_digits10;
  out << "stopped:  " << toString(res.reason) << " after " << res.iterations << " steps\n";
  out << "best:     " << core::toString(res.best, kRoundTrip) << "\n";
  const std::streamsize precision = out.precision(kRoundTrip);
  out << "estimate: " << res.bestEstimate;
  out.precision(precision);
  if (res.bestTrue) out << "   (true value " << *res.bestTrue << ")";
  out << "\n";
  out << "effort:   " << res.totalSamples << " samples, " << res.elapsedTime
      << " simulated seconds\n";
  out << "moves:    " << res.counters.reflections << " refl, " << res.counters.expansions
      << " exp, " << res.counters.contractions << " contr, " << res.counters.collapses
      << " collapses\n";
}

/// CLI-side observability wiring for `--telemetry-out <file.jsonl>`: opens
/// the JSONL sink (`--telemetry-append` accumulates runs into one file),
/// hosts the Telemetry spine the command threads through its layers, and
/// opens a `cli.<command>` root span.  finish() dumps every registered
/// metric as a structured event, closes the span, and reports the file.
/// `--telemetry-flush S` flushes the sink at least every S seconds (0 =
/// every event) so a crashed or killed process still leaves a usable
/// trace file behind.
struct CliTelemetry {
  std::unique_ptr<telemetry::JsonlSink> jsonl;
  std::unique_ptr<telemetry::Telemetry> spine;
  std::uint64_t rootSpan = 0;
  std::string path;

  static CliTelemetry open(const Args& args, const std::string& command) {
    CliTelemetry t;
    if (!args.has("telemetry-out")) return t;
    t.path = args.requireString("telemetry-out");
    t.jsonl = std::make_unique<telemetry::JsonlSink>(t.path,
                                                     args.getBool("telemetry-append", false));
    if (args.has("telemetry-flush")) {
      const double interval = args.getDouble("telemetry-flush", 0.0);
      if (interval < 0.0) throw ArgError("--telemetry-flush must be >= 0 seconds");
      t.jsonl->setFlushIntervalSeconds(interval);
    }
    t.spine = std::make_unique<telemetry::Telemetry>(*t.jsonl);
    t.rootSpan = t.spine->tracer().begin("cli." + command);
    return t;
  }

  [[nodiscard]] telemetry::Telemetry* get() const noexcept { return spine.get(); }

  void finish(std::ostream& out) {
    if (!spine) return;
    simd::publishTelemetry(*spine);
    (void)telemetry::writeMetricEvents(spine->metrics(), *jsonl, spine->tracer().now());
    spine->tracer().end(rootSpan);
    jsonl->flush();
    out << "telemetry: " << jsonl->eventsWritten() << " events -> " << path << "\n";
  }
};

/// End-of-run fleet-health table for `sfopt serve`, built from the
/// telemetry snapshots workers piggyback on their heartbeat cadence.
/// Silent when no worker ever shipped one (workers only send snapshots
/// once their CLI installs a stats provider).
void printFleetTable(std::ostream& out, const std::vector<net::FleetHealth>& fleet) {
  if (std::none_of(fleet.begin(), fleet.end(),
                   [](const net::FleetHealth& h) { return h.seen; })) {
    return;
  }
  out << "fleet:    rank    tasks   fail  exec-ewma        rtt  clock-off  queue\n";
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    const net::FleetHealth& h = fleet[i];
    if (!h.seen) continue;
    out << "          r" << (i + 1);
    out.width(9 - std::to_string(i + 1).size());
    out << "" << std::right;
    out.width(8);
    out << h.tasksExecuted;
    out.width(7);
    out << h.tasksFailed << "  ";
    out.width(9);
    out << h.executeEwmaSeconds << "  ";
    out.width(9);
    if (h.rttSeconds >= 0.0) {
      out << h.rttSeconds;
    } else {
      out << "-";
    }
    out << "  ";
    out.width(9);
    out << h.clockOffsetSeconds;
    out.width(7);
    out << h.queueDepth << "\n";
  }
}

/// SIGINT/SIGTERM flag for `serve`: the handler only sets the flag; the
/// daemon loop notices it within one poll interval and drains.
std::atomic<bool> gServeStop{false};

extern "C" void serveStopHandler(int) { gServeStop.store(true); }

/// Build the wire JobSpec for `sfopt submit`, one-shot `serve` and the
/// simplex runs of `optimize` from the same flags and defaults (the seeded
/// random simplex included), so a submitted or served job's result diffs
/// bitwise against the equivalent solo run.
service::JobSpec jobSpecFrom(const Args& args) {
  service::JobSpec spec;
  spec.objective = objectiveSpecFrom(args);
  spec.algorithm = args.getString("algorithm", "pc");
  spec.k = args.getDouble("k", spec.algorithm == "mn" ? 2.0 : 1.0);
  spec.k1 = args.getDouble("k1", 1.0);
  spec.k2 = args.getDouble("k2", 0.0);
  spec.termination = terminationFrom(args);
  spec.shardMinSamples = args.getInt("shard-min-samples", 0);
  spec.speculate = args.getBool("speculate", false);
  spec.priority = args.getInt("priority", 1);
  spec.initial = initialSimplexFrom(args, static_cast<std::size_t>(spec.objective.dim));
  try {
    spec.validate();
  } catch (const std::exception& e) {
    throw ArgError(e.what());
  }
  return spec;
}

/// Render a status/submit/cancel reply; shared by the three client
/// commands so retryable rejections always read the same way.
void printStatusReply(std::ostream& out, const service::StatusReply& reply) {
  out << "job " << reply.jobId << ": " << service::toString(reply.state);
  if (!reply.detail.empty()) out << " - " << reply.detail;
  if (reply.retryable) out << " (retryable)";
  out << "\n";
  out << "load:     " << reply.queued << " queued, " << reply.running << " running\n";
}

/// Every flag `args.command()` reads; parseCommandLine rejects any other.
/// `serve --daemon` reads a different set from one-shot `serve`.  An empty
/// list (info, or an unknown command) skips the check.
std::vector<std::string> acceptedFlags(const Args& args) {
  using Flags = std::vector<std::string>;
  const auto join = [](std::initializer_list<Flags> groups) {
    Flags all;
    for (const Flags& g : groups) all.insert(all.end(), g.begin(), g.end());
    return all;
  };
  const Flags telemetry = {"telemetry-out", "telemetry-append", "telemetry-flush"};
  const Flags termination = {"tolerance", "max-iterations", "max-samples", "max-time"};
  const Flags pipeline = {"shard-min-samples", "speculate"};
  // The objective, start simplex and algorithm of optimize, serve and submit.
  const Flags job = join({{"function", "dim", "sigma0", "seed", "start", "box", "algorithm",
                           "k", "k1", "k2"},
                          termination,
                          pipeline});
  const Flags heartbeat = {"heartbeat-interval", "heartbeat-timeout"};
  const Flags client = {"host", "port", "connect-timeout"};
  const std::string& cmd = args.command();
  if (cmd == "optimize") {
    return join({job, telemetry,
                 {"isa", "trace", "resume", "checkpoint", "checkpoint-every", "particles",
                  "temperature", "mw", "workers", "clients"}});
  }
  if (cmd == "serve" && args.getBool("daemon", false)) {
    return join({telemetry, heartbeat,
                 {"isa", "daemon", "port", "workers", "wait-timeout", "recv-timeout",
                  "max-concurrent", "max-queued", "max-pending-shards", "max-jobs", "state-dir",
                  "checkpoint-interval", "result-retention"}});
  }
  if (cmd == "serve") {
    return join({job, telemetry, heartbeat,
                 {"isa", "daemon", "port", "workers", "clients", "wait-timeout",
                  "recv-timeout"}});
  }
  if (cmd == "submit") {
    return join({job, client, {"clients", "priority", "detach", "wait-timeout"}});
  }
  if (cmd == "status") return join({client, {"job", "result"}});
  if (cmd == "cancel") return join({client, {"job"}});
  if (cmd == "worker") {
    return join({telemetry,
                 {"isa", "host", "port", "connect-attempts", "reconnect", "heartbeat-interval",
                  "master-timeout"}});
  }
  if (cmd == "chaosproxy") {
    return join(
        {telemetry, {"port", "target-host", "target-port", "scenario", "seed", "duration"}});
  }
  if (cmd == "water") {
    return join({termination, pipeline, telemetry, {"isa", "sigma0", "algorithm"}});
  }
  if (cmd == "probe") return {"function", "dim", "sigma0", "seed", "point", "samples"};
  if (cmd == "md") {
    return join({telemetry,
                 {"isa", "json", "molecules", "temperature", "density", "dt", "cutoff",
                  "equilibration", "production", "sample-every", "seed", "epsilon", "sigma",
                  "qh"}});
  }
  if (cmd == "metrics") return {"in"};
  if (cmd == "trace") return {"top", "verify"};
  return {};
}

}  // namespace

int runOptimizeCommand(const Args& args, std::ostream& out) {
  applyIsaFlag(args);
  const noise::NoisyFunction objective = objectiveFrom(args);
  const std::string algo = args.getString("algorithm", "pc");

  const std::vector<core::Point> start = initialSimplexFrom(args, objective.dimension());

  const bool wantTrace = args.has("trace");
  CliTelemetry telemetrySession = CliTelemetry::open(args, "optimize");
  telemetry::Telemetry* const tel = telemetrySession.get();

  // Checkpoint/resume plumbing (simplex algorithms only).
  core::SimplexCheckpoint resumeState;
  const bool wantResume = args.has("resume");
  const bool wantCheckpoint = args.has("checkpoint");
  if ((wantResume || wantCheckpoint) && (algo == "pso" || algo == "sa")) {
    throw ArgError("--checkpoint/--resume support the simplex algorithms only");
  }
  if (wantResume) resumeState = core::loadCheckpoint(args.requireString("resume"));

  core::OptimizationResult res;
  if (algo == "pso") {
    core::PsoOptions o;
    o.particles = intFlag(args, "particles", 20, 2);
    o.termination = terminationFrom(args);
    o.resample.maxRoundsPerComparison = 8;
    o.recordTrace = wantTrace;
    res = core::runParticleSwarm(objective, o);
  } else if (algo == "sa") {
    core::AnnealingOptions o;
    o.initialTemperature = args.getDouble("temperature", 10.0);
    o.termination = terminationFrom(args);
    res = core::runSimulatedAnnealing(objective, start.front(), o);
  } else {
    // The simplex variants run the job `submit` would send for these flags.
    const service::JobSpec spec = jobSpecFrom(args);
    mw::AlgorithmOptions options = spec.makeOptions();
    std::visit(
        [&](auto& o) {
          o.common.recordTrace = wantTrace;
          o.common.telemetry = tel;
          if (wantResume) o.common.resumeFrom = &resumeState;
          if (wantCheckpoint) {
            const std::string path = args.requireString("checkpoint");
            o.common.checkpointEvery = args.getInt("checkpoint-every", 10);
            o.common.checkpointSink = [path](const core::SimplexCheckpoint& cp) {
              core::saveCheckpoint(path, cp);
            };
          }
        },
        options);
    if (args.getBool("mw", false)) {
      mw::MWRunConfig cfg;
      cfg.workers = intFlag(args, "workers", 0, 0);
      cfg.clientsPerWorker = static_cast<int>(spec.objective.clients);
      cfg.telemetry = tel;
      const auto run = mw::runSimplexOverMW(objective, start, options, cfg);
      out << "master-worker deployment: " << run.allocation.workers() << " workers, "
          << run.allocation.totalCores() << " cores (Table 3.3 rule), " << run.messagesSent
          << " messages\n";
      res = run.optimization;
    } else {
      res = mw::runAlgorithm(objective, start, options);
    }
  }
  printResult(out, res);
  if (wantTrace) {
    const std::string path = args.requireString("trace");
    core::saveTraceCsv(path, res.trace);
    out << "trace:    " << res.trace.size() << " rows -> " << path << "\n";
  }
  telemetrySession.finish(out);
  return 0;
}

int runWaterCommand(const Args& args, std::ostream& out) {
  applyIsaFlag(args);
  water::WaterCostObjective::Options objOpts;
  objOpts.sigma0 = args.getDouble("sigma0", 0.2);
  const water::WaterCostObjective objective = [&] {
    try {
      return water::WaterCostObjective(objOpts);
    } catch (const std::invalid_argument& e) {
      throw ArgError(e.what());
    }
  }();
  const auto rows = water::table34InitialPoints();
  const std::vector<core::Point> start(rows.begin(), rows.begin() + 4);

  const std::string algo = args.getString("algorithm", "pcmn");
  core::TerminationCriteria term = terminationFrom(args);
  if (!args.has("max-samples")) term.maxSamples = 4'000'000;
  if (!args.has("tolerance")) term.tolerance = 1e-3;

  CliTelemetry telemetrySession = CliTelemetry::open(args, "water");

  core::OptimizationResult res;
  if (algo == "mn") {
    core::MaxNoiseOptions o;
    o.common.termination = term;
    o.common.telemetry = telemetrySession.get();
    applyPipelineKnobs(args, o.common);
    res = core::runMaxNoise(objective, start, o);
  } else if (algo == "pc" || algo == "pcmn") {
    core::PCOptions o;
    o.maxNoiseGate = algo == "pcmn";
    o.common.termination = term;
    o.common.telemetry = telemetrySession.get();
    applyPipelineKnobs(args, o.common);
    res = core::runPointToPoint(objective, start, o);
  } else {
    throw ArgError("water supports --algorithm mn, pc or pcmn");
  }

  const auto tip4p = md::tip4pPublished();
  out << "optimized parameters (vs published TIP4P):\n";
  out << "  epsilon " << res.best[0] << "  (" << tip4p.epsilon << ")\n";
  out << "  sigma   " << res.best[1] << "  (" << tip4p.sigma << ")\n";
  out << "  qH      " << res.best[2] << "  (" << tip4p.qH << ")\n";
  out << "cost: " << *objective.trueValue(res.best) << "  vs TIP4P "
      << *objective.trueValue(std::vector<double>{tip4p.epsilon, tip4p.sigma, tip4p.qH})
      << "\n";
  printResult(out, res);
  telemetrySession.finish(out);
  return 0;
}

int runProbeCommand(const Args& args, std::ostream& out) {
  const noise::NoisyFunction objective = objectiveFrom(args);
  const std::size_t dim = objective.dimension();
  const auto point = args.getDoubleList("point", core::Point(dim, 0.0));
  if (point.size() != dim) throw ArgError("--point must have --dim coordinates");
  const auto samples = args.getInt("samples", 1000);
  const auto probe = core::probeNoise(objective, point, samples);
  out << "point:        " << core::toString(point, 4) << "\n";
  out << "mean:         " << probe.meanEstimate << " +/- " << probe.standardError << "\n";
  out << "sigma0:       " << probe.sigma0Estimate << " (declared "
      << objective.noiseScale(point).value_or(0.0) << ")\n";
  out << "sampled time: " << probe.sampledTime << " s (" << probe.samples << " samples)\n";
  return 0;
}

int runMdCommand(const Args& args, std::ostream& out) {
  applyIsaFlag(args);
  md::SimulationConfig cfg;
  cfg.molecules = intFlag(args, "molecules", 64, 2);
  cfg.temperatureK = args.getDouble("temperature", 298.0);
  cfg.densityGramsPerCc = args.getDouble("density", 0.997);
  cfg.dtPs = args.getDouble("dt", 0.0005);
  cfg.cutoff = args.getDouble("cutoff", 4.0);
  cfg.equilibrationSteps = intFlag(args, "equilibration", 200, 0);
  cfg.productionSteps = intFlag(args, "production", 400, 1);
  cfg.sampleEvery = intFlag(args, "sample-every", 10, 1);
  cfg.seed = static_cast<std::uint64_t>(args.getInt("seed", 12345));

  md::WaterParameters params = md::tip4pPublished();
  params.epsilon = args.getDouble("epsilon", params.epsilon);
  params.sigma = args.getDouble("sigma", params.sigma);
  params.qH = args.getDouble("qh", params.qH);

  CliTelemetry telemetrySession = CliTelemetry::open(args, "md");
  cfg.telemetry = telemetrySession.get();

  const md::WaterObservables obs = md::simulateWater(params, cfg);

  if (args.getBool("json", false)) {
    // Stable machine-readable report: one flat JSON object per run, in the
    // same wire form as the telemetry JSONL (parseJsonLine round-trips it).
    // Assigned from std::string temporaries: GCC 12 misreports the plain
    // literal assignments here as -Wmaybe-uninitialized.
    telemetry::Event e;
    e.type = std::string("md_report");
    e.name = std::string("md");
    e.numFields = {
        {"molecules", static_cast<double>(cfg.molecules)},
        {"equilibration_steps", static_cast<double>(cfg.equilibrationSteps)},
        {"production_steps", static_cast<double>(cfg.productionSteps)},
        {"dt_ps", cfg.dtPs},
        {"potential_per_molecule_kcal", obs.potentialPerMoleculeKcal},
        {"potential_standard_error", obs.potentialStandardError},
        {"pressure_atm", obs.pressureAtm},
        {"temperature_k", obs.temperatureK},
        {"diffusion_cm2_per_s", obs.diffusionCm2PerS},
        {"nve_drift_kcal_per_ps", obs.nveDriftKcalPerPs},
        {"production_frames", static_cast<double>(obs.productionFrames)},
        {"force_evaluations", static_cast<double>(obs.perf.forceEvaluations)},
        {"pairs_per_evaluation", obs.perf.pairsPerEvaluation()},
        {"neighbor_rebuilds", static_cast<double>(obs.perf.neighborRebuilds)},
        {"cell_list_used", obs.perf.cellListUsed ? 1.0 : 0.0},
    };
    out << telemetry::toJsonLine(e) << "\n";
    telemetrySession.finish(out);
    return 0;
  }

  out << "protocol:     " << cfg.molecules << " molecules, " << cfg.equilibrationSteps
      << " NVT + " << cfg.productionSteps << " NVE steps, dt " << cfg.dtPs << " ps\n";
  out << "<U>/molecule: " << obs.potentialPerMoleculeKcal << " kcal/mol (+/- "
      << obs.potentialStandardError << ")\n";
  out << "<P>:          " << obs.pressureAtm << " atm\n";
  out << "<T>:          " << obs.temperatureK << " K\n";
  out << "D:            " << obs.diffusionCm2PerS << " cm^2/s\n";
  out << "NVE drift:    " << obs.nveDriftKcalPerPs << " kcal/mol/ps\n";
  const md::MdPerfCounters& perf = obs.perf;
  out << "force path:   " << (perf.cellListUsed ? "cell-list" : "brute-force")
      << " neighbor build";
  if (perf.cellListUsed) {
    out << " (" << perf.cellsPerDim << "^3 cells, avg occupancy " << perf.avgCellOccupancy
        << ")";
  }
  out << "\n";
  out << "perf:         " << perf.forceEvaluations << " force evals, "
      << perf.pairsPerEvaluation() << " pairs/eval, " << perf.neighborRebuilds
      << " rebuilds (max drift " << perf.maxDriftSeen << " A), "
      << perf.forceSeconds << " s in forces\n";
  telemetrySession.finish(out);
  return 0;
}

int runServeCommand(const Args& args, std::ostream& out) {
  applyIsaFlag(args);
  const bool daemon = args.getBool("daemon", false);
  // One-shot serve is the daemon with one job: the one its flags describe.
  std::optional<service::JobSpec> job;
  if (!daemon) job = jobSpecFrom(args);
  const auto port = args.getInt("port", 7600);
  if (port < 0 || port > 65535) throw ArgError("--port must be in [0, 65535]");

  service::ServiceOptions svcOpts;
  if (daemon) {
    svcOpts.maxConcurrentJobs = intFlag(args, "max-concurrent", 2, 1);
    svcOpts.maxQueuedJobs = intFlag(args, "max-queued", 8, 0);
    const auto maxPending = args.getInt("max-pending-shards", 1024);
    if (maxPending < 1) throw ArgError("--max-pending-shards must be >= 1");
    svcOpts.maxPendingShards = static_cast<std::size_t>(maxPending);
    svcOpts.maxJobs = args.getInt("max-jobs", 0);
    svcOpts.stateDir = args.getString("state-dir", "");
    svcOpts.checkpointInterval = args.getInt("checkpoint-interval", 25);
    if (svcOpts.checkpointInterval < 0) throw ArgError("--checkpoint-interval must be >= 0");
    svcOpts.resultRetention = args.getInt("result-retention", 0);
    if (svcOpts.resultRetention < 0) throw ArgError("--result-retention must be >= 0");
    svcOpts.log = &out;
  } else {
    svcOpts.maxConcurrentJobs = 1;
    svcOpts.maxQueuedJobs = 0;
    svcOpts.maxJobs = 1;
  }
  svcOpts.recvTimeoutSeconds = secondsFlag(args, "recv-timeout", 300.0);
  // One-shot serve waits for its fleet before the job starts; the daemon
  // waits only when asked to.
  const bool waitForFleet = !daemon || args.has("workers");
  const int workers = intFlag(args, "workers", 2, 1);
  const double waitTimeout = secondsFlag(args, "wait-timeout", 120.0);
  net::TcpCommWorld::Options netOpts;
  netOpts.heartbeatIntervalSeconds = secondsFlag(args, "heartbeat-interval", 2.0, true);
  netOpts.heartbeatTimeoutSeconds = secondsFlag(args, "heartbeat-timeout", 10.0);

  CliTelemetry telemetrySession = CliTelemetry::open(args, "serve");
  svcOpts.telemetry = telemetrySession.get();
  netOpts.telemetry = telemetrySession.get();
  net::TcpCommWorld comm(static_cast<std::uint16_t>(port), netOpts);

  out << "listening on 0.0.0.0:" << comm.port() << " (protocol v" << net::kProtocolVersion
      << ")";
  if (waitForFleet) {
    out << ", waiting for " << workers << " worker(s)\n" << std::flush;
    comm.waitForWorkers(workers, waitTimeout);
  } else {
    out << "\n" << std::flush;
  }
  if (daemon) {
    out << "daemon:   up to " << svcOpts.maxConcurrentJobs << " concurrent job(s), "
        << svcOpts.maxQueuedJobs << " queued";
    if (svcOpts.maxJobs > 0) out << ", exiting after " << svcOpts.maxJobs << " job(s)";
    out << "\n" << std::flush;
    if (!svcOpts.stateDir.empty()) {
      out << "durable:  journaling to " << svcOpts.stateDir << ", checkpoint every "
          << svcOpts.checkpointInterval << " iteration(s)\n"
          << std::flush;
    }
  } else {
    out << "workers:  " << comm.liveWorkers() << " connected\n" << std::flush;
  }

  gServeStop.store(false);
  std::signal(SIGINT, &serveStopHandler);
  std::signal(SIGTERM, &serveStopHandler);
  service::OptimizationService svc(comm, svcOpts);
  std::uint64_t jobId = 0;
  if (job) {
    const service::StatusReply ack = svc.submit(std::move(*job));
    if (ack.state == service::JobState::Rejected) throw std::runtime_error(ack.detail);
    jobId = ack.jobId;
  }
  const std::int64_t completed = svc.run(gServeStop);
  std::signal(SIGINT, SIG_DFL);
  std::signal(SIGTERM, SIG_DFL);

  if (daemon) {
    out << "daemon:   " << completed << " job(s) reached a terminal state\n";
    printFleetTable(out, comm.fleetHealth());
    telemetrySession.finish(out);
    return 0;
  }
  out << "distributed deployment: " << comm.size() - 1 << " worker rank(s), "
      << comm.messagesSent() << " messages, " << svc.tasksRequeued() << " requeued\n";
  printFleetTable(out, comm.fleetHealth());
  const service::JobRecord& rec = *svc.table().find(jobId);
  if (rec.state == service::JobState::Done) printResult(out, rec.outcome->toResult());
  telemetrySession.finish(out);
  if (rec.state != service::JobState::Done) {
    throw std::runtime_error("job " + std::string(service::toString(rec.state)) + ": " +
                             rec.error);
  }
  return 0;
}

int runWorkerCommand(const Args& args, std::ostream& out) {
  applyIsaFlag(args);
  const std::string host = args.getString("host", "127.0.0.1");
  const auto port = args.getInt("port", 7600);
  if (port < 1 || port > 65535) throw ArgError("--port must be in [1, 65535]");
  const int attempts = intFlag(args, "connect-attempts", 10, 1);
  const bool reconnect = args.getBool("reconnect", true);

  net::TcpWorkerTransport::Options netOpts;
  netOpts.heartbeatIntervalSeconds = secondsFlag(args, "heartbeat-interval", 2.0, true);
  // Master-silence deadline: under a one-way partition the connection
  // stays open and our own beats keep "succeeding" into the void, so only
  // this recv deadline (and the matching write deadline inside the
  // transport) gets the worker back into its reconnect loop.
  netOpts.masterTimeoutSeconds = args.getDouble("master-timeout", 30.0);
  if (netOpts.masterTimeoutSeconds < 0.0) throw ArgError("--master-timeout must be >= 0");
  CliTelemetry telemetrySession = CliTelemetry::open(args, "worker");
  netOpts.telemetry = telemetrySession.get();

  // Reconnect jitter is seeded by the last rank this worker held (0 on the
  // very first dial), so a restarted fleet's workers spread their retries
  // deterministically instead of thundering the master's accept loop.
  std::uint64_t jitterSeed = 0;
  for (;;) {
    const auto transport = net::connectWithBackoff(
        host, static_cast<std::uint16_t>(port), attempts, 0.2, netOpts, jitterSeed);
    const mw::Rank rank = transport->rank();
    jitterSeed = static_cast<std::uint64_t>(rank);
    if (telemetrySession.get() != nullptr) {
      // Partition the span-id space by rank so this worker's ids never
      // collide with the master's (or another worker's) when `sfopt trace`
      // merges the JSONL files.  2^40 spans of headroom per rank keeps ids
      // below 2^53, the JSON double-precision ceiling.
      telemetrySession.get()->tracer().seedIds(
          (static_cast<std::uint64_t>(rank) << 40) + 1);
    }
    out << "connected to " << host << ":" << port << " as rank " << rank << "\n" << std::flush;
    try {
      // Every task carries its job's objective, so the worker needs no
      // configuration of its own.  Its task counters are exposed to the
      // heartbeat thread while it runs, so every beat ships a fleet
      // snapshot; the provider is detached before the worker dies (the
      // clear is a barrier against an in-flight heartbeat poll).
      service::ServiceWorker worker(*transport, rank);
      worker.setTelemetry(telemetrySession.get());
      transport->setStatsProvider([&worker] {
        return net::WorkerStats{worker.tasksExecuted(), worker.tasksFailed(),
                                worker.executeEwmaSeconds()};
      });
      try {
        worker.run();
      } catch (...) {
        transport->setStatsProvider({});
        throw;
      }
      transport->setStatsProvider({});
      out << "shutdown: " << worker.tasksExecuted() << " task(s) executed, "
          << worker.tasksFailed() << " failed (" << worker.cacheMisses()
          << " objective build(s))\n";
      telemetrySession.finish(out);
      return 0;
    } catch (const net::ConnectionLost& e) {
      out << "connection lost: " << e.what() << (reconnect ? " - reconnecting" : "") << "\n"
          << std::flush;
      if (!reconnect) {
        telemetrySession.finish(out);
        return 1;
      }
    }
  }
}

int runChaosProxyCommand(const Args& args, std::ostream& out) {
  const auto port = args.getInt("port", 0);
  if (port < 0 || port > 65535) throw ArgError("--port must be in [0, 65535]");
  const std::string targetHost = args.getString("target-host", "127.0.0.1");
  const auto targetPort = args.getInt("target-port", 7600);
  if (targetPort < 1 || targetPort > 65535) {
    throw ArgError("--target-port must be in [1, 65535]");
  }
  const std::string scenario = args.getString("scenario", "none");
  const auto seed = static_cast<std::uint64_t>(args.getInt("seed", 2026));
  const double duration = args.getDouble("duration", 0.0);
  if (duration < 0.0) throw ArgError("--duration must be >= 0");
  net::ChaosSchedule schedule;
  try {
    schedule = net::ChaosSchedule::preset(scenario, seed);
  } catch (const std::invalid_argument& e) {
    throw ArgError(e.what());
  }

  CliTelemetry telemetrySession = CliTelemetry::open(args, "chaosproxy");
  net::ChaosProxy proxy(targetHost, static_cast<std::uint16_t>(targetPort), schedule,
                        telemetrySession.get(), static_cast<std::uint16_t>(port));
  out << "chaos proxy on 0.0.0.0:" << proxy.port() << " -> " << targetHost << ":"
      << targetPort << " scenario=" << scenario << " seed=" << seed << "\n"
      << std::flush;

  gServeStop.store(false);
  std::signal(SIGINT, &serveStopHandler);
  std::signal(SIGTERM, &serveStopHandler);
  const double start = net::monotonicSeconds();
  while (!gServeStop.load()) {
    if (duration > 0.0 && net::monotonicSeconds() - start >= duration) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  std::signal(SIGINT, SIG_DFL);
  std::signal(SIGTERM, SIG_DFL);
  proxy.stop();

  const auto c = proxy.counters();
  out << "chaos:    " << c.connectionsAccepted << " connection(s), " << c.framesForwarded
      << " frame(s) forwarded, " << c.framesDropped << " dropped, " << c.framesDuplicated
      << " duplicated, " << c.framesDelayed << " delayed, " << c.partitions
      << " partition(s), " << c.stalls << " stall(s), " << c.heals << " heal(s)\n";
  telemetrySession.finish(out);
  return 0;
}

int runSubmitCommand(const Args& args, std::ostream& out) {
  const std::string host = args.getString("host", "127.0.0.1");
  const auto port = args.getInt("port", 7600);
  if (port < 1 || port > 65535) throw ArgError("--port must be in [1, 65535]");
  const service::JobSpec spec = jobSpecFrom(args);
  const bool detach = args.getBool("detach", false);
  const double waitTimeout = secondsFlag(args, "wait-timeout", 600.0);

  service::ServiceClient client(host, static_cast<std::uint16_t>(port),
                                secondsFlag(args, "connect-timeout", 10.0));
  const service::StatusReply ack = client.submit(spec);
  printStatusReply(out, ack);
  if (ack.state == service::JobState::Rejected) return ack.retryable ? 3 : 2;
  if (detach) return 0;

  const service::ResultReply result = client.waitResult(waitTimeout);
  out << "job " << result.jobId << ": " << service::toString(result.state);
  if (!result.detail.empty()) out << " - " << result.detail;
  out << "\n";
  if (result.state != service::JobState::Done || !result.outcome) return 1;
  printResult(out, result.outcome->toResult());
  return 0;
}

int runStatusCommand(const Args& args, std::ostream& out) {
  const std::string host = args.getString("host", "127.0.0.1");
  const auto port = args.getInt("port", 7600);
  if (port < 1 || port > 65535) throw ArgError("--port must be in [1, 65535]");
  const auto jobId = args.getInt("job", 0);
  if (jobId < 0) throw ArgError("--job must be >= 0 (0 = service summary)");
  service::ServiceClient client(host, static_cast<std::uint16_t>(port),
                                secondsFlag(args, "connect-timeout", 10.0));
  const service::StatusReply reply =
      client.status(static_cast<std::uint64_t>(jobId));
  if (jobId == 0) {
    out << "service:  " << reply.detail << "\n";
    return 0;
  }
  printStatusReply(out, reply);
  if (args.getBool("result", false) && reply.state != service::JobState::Unknown) {
    // Pull the stored outcome — works for jobs finished before a daemon
    // restart too, since the durable journal restores terminal results.
    const service::ResultReply result =
        client.fetchResult(static_cast<std::uint64_t>(jobId));
    if (!result.detail.empty()) out << "result:   " << result.detail << "\n";
    if (result.state != service::JobState::Done || !result.outcome) return 1;
    printResult(out, result.outcome->toResult());
  }
  return reply.state == service::JobState::Unknown ? 1 : 0;
}

int runCancelCommand(const Args& args, std::ostream& out) {
  const std::string host = args.getString("host", "127.0.0.1");
  const auto port = args.getInt("port", 7600);
  if (port < 1 || port > 65535) throw ArgError("--port must be in [1, 65535]");
  if (!args.has("job")) throw ArgError("cancel needs --job <id>");
  const auto jobId = args.getInt("job", 0);
  if (jobId < 1) throw ArgError("--job must be >= 1");
  service::ServiceClient client(host, static_cast<std::uint16_t>(port),
                                secondsFlag(args, "connect-timeout", 10.0));
  const service::StatusReply reply =
      client.cancel(static_cast<std::uint64_t>(jobId));
  printStatusReply(out, reply);
  return reply.state == service::JobState::Unknown ? 1 : 0;
}

int runMetricsCommand(const Args& args, std::ostream& out) {
  const std::string path = args.has("in") ? args.requireString("in")
                           : !args.positional().empty()
                               ? args.positional().front()
                               : throw ArgError("metrics needs a JSONL file: sfopt metrics "
                                                "<file> (or --in <file>)");
  std::vector<telemetry::Event> events;
  try {
    events = telemetry::readJsonlEvents(path);
  } catch (const std::exception& e) {
    throw ArgError(e.what());
  }

  // Span roll-up: count / total / mean / max duration per span name.
  struct SpanAgg {
    std::int64_t count = 0;
    double total = 0.0;
    double max = 0.0;
  };
  std::map<std::string, SpanAgg> spans;
  std::vector<const telemetry::Event*> metricEvents;
  for (const telemetry::Event& e : events) {
    if (e.type == "span" && e.duration >= 0.0) {
      SpanAgg& a = spans[e.name];
      ++a.count;
      a.total += e.duration;
      a.max = std::max(a.max, e.duration);
    } else if (e.type == "metric") {
      metricEvents.push_back(&e);
    }
  }

  out << events.size() << " events in " << path << "\n";

  if (!spans.empty()) {
    out << "\nspans (seconds):\n";
    out << "  name                                count        total         mean          max\n";
    for (const auto& [name, a] : spans) {
      out << "  ";
      out.width(34);
      out << std::left << name << std::right;
      out.width(7);
      out << a.count << "  ";
      out.width(11);
      out << a.total << "  ";
      out.width(11);
      out << a.total / static_cast<double>(a.count) << "  ";
      out.width(11);
      out << a.max << "\n";
    }
  }

  // The file may hold several exports (--telemetry-append); keep the
  // final value per name, which is the cumulative registry state.
  std::map<std::string, const telemetry::Event*> last;
  for (const telemetry::Event* e : metricEvents) last[e->name] = e;

  if (!metricEvents.empty()) {
    out << "\nmetrics (last export wins):\n";
    for (const auto& [name, e] : last) {
      out << "  ";
      out.width(34);
      out << std::left << name << std::right;
      const auto kind = e->str("kind").value_or("?");
      if (kind == "histogram") {
        out << " count " << e->num("count").value_or(0.0) << "  sum "
            << e->num("sum").value_or(0.0);
        if (const auto mean = e->num("mean")) out << "  mean " << *mean;
      } else {
        out << " " << e->num("value").value_or(0.0);
      }
      out << "\n";
    }
  }

  // Fleet table: the per-rank `fleet.r<N>.<field>` gauges the master
  // publishes from the telemetry snapshots workers ship on heartbeats.
  std::map<int, std::map<std::string, double>> fleet;
  for (const auto& [name, e] : last) {
    if (name.rfind("fleet.r", 0) != 0) continue;
    const auto dot = name.find('.', 7);
    if (dot == std::string::npos) continue;
    int rank = 0;
    try {
      rank = std::stoi(name.substr(7, dot - 7));
    } catch (const std::exception&) {
      continue;
    }
    fleet[rank][name.substr(dot + 1)] = e->num("value").value_or(0.0);
  }
  if (!fleet.empty()) {
    out << "\nfleet (final snapshot per rank):\n";
    out << "  rank    tasks   fail  exec-ewma        rtt  clock-off  queue\n";
    for (const auto& [rank, fields] : fleet) {
      const auto field = [&](const char* key, double fallback = 0.0) {
        const auto it = fields.find(key);
        return it != fields.end() ? it->second : fallback;
      };
      out << "  r" << rank;
      out.width(11 - std::to_string(rank).size());
      out << "" << std::right;
      out.width(5);
      out << static_cast<std::int64_t>(field("tasks_executed"));
      out.width(7);
      out << static_cast<std::int64_t>(field("tasks_failed")) << "  ";
      out.width(9);
      out << field("execute_ewma_seconds") << "  ";
      out.width(9);
      out << field("rtt_seconds", -1.0) << "  ";
      out.width(9);
      out << field("clock_offset_seconds");
      out.width(7);
      out << static_cast<std::int64_t>(field("queue_depth")) << "\n";
    }
  }

  // Layer coverage: which instrumented layers contributed events.
  const char* const layers[] = {"engine.", "mw.",    "net.",   "md.",    "cli.",
                                "eval.",   "simd.",  "fleet.", "shard.", "worker.",
                                "service."};
  out << "\nlayers:";
  for (const char* prefix : layers) {
    const bool covered = std::any_of(events.begin(), events.end(), [&](const auto& e) {
      return e.name.rfind(prefix, 0) == 0;
    });
    out << " " << std::string_view(prefix).substr(0, std::string_view(prefix).size() - 1)
        << (covered ? "[x]" : "[ ]");
  }
  out << "\n";
  return 0;
}

int runTraceCommand(const Args& args, std::ostream& out) {
  if (args.positional().empty()) {
    throw ArgError(
        "trace needs the run's JSONL captures: sfopt trace <master.jsonl> "
        "[worker.jsonl ...] [--verify] [--top N]");
  }
  const int top = intFlag(args, "top", 5, 0);
  std::vector<telemetry::Event> events;
  for (const std::string& path : args.positional()) {
    try {
      auto more = telemetry::readJsonlEvents(path);
      events.insert(events.end(), std::make_move_iterator(more.begin()),
                    std::make_move_iterator(more.end()));
    } catch (const std::exception& e) {
      throw ArgError(e.what());
    }
  }
  if (events.empty()) {
    out << "error:    no telemetry events in the given capture(s) - was the run\n"
        << "          started with --telemetry-out, and did it get far enough to\n"
        << "          flush? (--telemetry-flush S makes partial runs analyzable)\n";
    return 1;
  }
  const telemetry::TraceReport report = telemetry::analyzeTraceEvents(events, top);

  out << events.size() << " events from " << args.positional().size() << " file(s)\n";
  out << "shards:   " << report.traces << " traced, " << report.dispatched
      << " dispatch(es), " << report.requeues << " requeued, " << report.folded
      << " folded, " << report.discarded << " discarded, " << report.failed
      << " failed, " << report.abandoned << " abandoned\n";

  // Multi-job (service) captures: shard tickets are namespaced by job id,
  // so the merged file splits cleanly into per-job groups.
  if (report.multiJob()) {
    out << "jobs:     job       traces   folded  discard     fail  requeue  outcome\n";
    for (const telemetry::TraceNamespaceReport& ns : report.namespaces) {
      out << "          ";
      std::string label = ns.ns == 0 ? "legacy" : std::to_string(ns.ns);
      out << std::left;
      out.width(10);
      out << label << std::right;
      out.width(6);
      out << ns.traces;
      out.width(9);
      out << ns.folded;
      out.width(9);
      out << ns.discarded;
      out.width(9);
      out << ns.failed;
      out.width(9);
      out << ns.requeues << "  ";
      if (ns.jobSpanSeen) {
        out << ns.jobOutcome << " (" << ns.jobSeconds << " s)";
      } else {
        out << "-";
      }
      out << "\n";
    }
  }
  if (!report.workerSpansSeen) {
    out << "note:     no worker.execute spans in the input - pass each worker's\n"
        << "          --telemetry-out file too for wire/execute breakdowns\n";
  }

  const double accounted = report.queueSeconds + report.wireSeconds +
                           report.executeSeconds + report.foldSeconds;
  if (accounted > 0.0) {
    const auto pct = [&](double x) { return 100.0 * x / accounted; };
    out << "critical path (summed over shards):\n";
    out << "  queue    " << report.queueSeconds << " s  (" << pct(report.queueSeconds)
        << "%)\n";
    out << "  wire     " << report.wireSeconds << " s  (" << pct(report.wireSeconds)
        << "%)\n";
    out << "  execute  " << report.executeSeconds << " s  ("
        << pct(report.executeSeconds) << "%)\n";
    out << "  fold     " << report.foldSeconds << " s  (" << pct(report.foldSeconds)
        << "%)\n";
  }

  if (!report.workers.empty()) {
    out << "workers (wall span " << report.wallSeconds << " s):\n";
    for (const telemetry::WorkerReport& w : report.workers) {
      out << "  r" << w.rank << "  " << w.tasks << " task(s), busy " << w.busySeconds
          << " s (" << 100.0 * w.utilization << "% utilized)";
      if (w.offsetKnown) out << ", clock offset " << w.clockOffsetSeconds << " s";
      out << "\n";
    }
  }

  if (!report.stragglers.empty()) {
    out << "stragglers (slowest shard lifecycles):\n";
    for (const telemetry::ShardTrace& t : report.stragglers) {
      out << "  trace " << t.traceId << "  " << t.totalSeconds << " s, " << t.dispatches
          << " dispatch(es)";
      if (t.requeues > 0) out << ", " << t.requeues << " requeue(s)";
      out << (t.folded     ? ", folded"
              : t.discarded ? ", discarded"
              : t.failed    ? ", failed"
              : t.abandoned ? ", abandoned"
                            : "")
          << "\n";
    }
  }

  for (const std::string& p : report.problems) out << "problem:  " << p << "\n";
  if (args.getBool("verify", false)) {
    if (!report.ok()) {
      out << "verify:   FAILED (" << report.problems.size() << " problem(s))\n";
      return 1;
    }
    if (report.traces == 0) {
      out << "verify:   FAILED (no traced shards in input)\n";
      return 1;
    }
    out << "verify:   ok (" << report.traces << " complete span tree(s))\n";
  }
  return 0;
}

int runInfoCommand(const Args&, std::ostream& out) {
  out << "sfopt - stochastic-function optimization (IPDPS'11 reproduction)\n";
  out << "algorithms: det mn anderson pc pcmn pso sa\n";
  out << "functions:  rosenbrock powell sphere rastrigin quadratic\n";
  out << "transports: in-process (--mw), tcp (serve/worker), protocol v"
      << net::kProtocolVersion << "\n";
  out << "simd:       detected " << simd::isaName(simd::detectBestIsa()) << ", active "
      << simd::isaName(simd::activeIsa()) << " (supported: " << simd::supportedIsaNames()
      << ")\n";
  out << "commands:\n";
  out << "  optimize --function F --dim D --algorithm A --sigma0 S [--mw] ...\n";
  out << "  serve    --port P --workers W --function F --dim D --algorithm A ...\n";
  out << "           (the daemon with one job: same flags/defaults as optimize)\n";
  out << "  serve    --daemon --port P [--max-concurrent N] [--max-queued M]\n";
  out << "           [--max-jobs K]   (multi-tenant service; jobs via submit)\n";
  out << "           [--state-dir DIR] [--checkpoint-interval I] (durable: journal\n";
  out << "           + checkpoints; a restarted daemon resumes its jobs)\n";
  out << "           [--result-retention N]\n";
  out << "  submit   --host H --port P --function F --dim D --algorithm A ...\n";
  out << "           [--detach] [--priority 1..100] (same flags/defaults as optimize)\n";
  out << "  status   --host H --port P [--job N] [--result]  (N omitted = summary;\n";
  out << "           --result pulls the stored outcome, surviving restarts)\n";
  out << "  cancel   --host H --port P --job N\n";
  out << "  worker   --host H --port P [--reconnect false] [--master-timeout S]\n";
  out << "           (serves any master: every task carries its job's objective)\n";
  out << "  chaosproxy --target-port P [--port L] [--scenario partition-heal|\n";
  out << "           blackhole-up|blackhole-down|delay-duplicate|midframe-stall|none]\n";
  out << "           [--seed N] [--duration S]  (fault-injecting relay for tests)\n";
  out << "  water    --algorithm mn|pc|pcmn --sigma0 S\n";
  out << "  probe    --function F --dim D --point x,y,... --samples N\n";
  out << "  md       --molecules N --equilibration E --production P [--json]\n";
  out << "  metrics  <file.jsonl>  (summarize a --telemetry-out capture)\n";
  out << "  trace    <master.jsonl> [worker.jsonl ...] [--verify] [--top N]\n";
  out << "  info\n";
  out << "telemetry:  add --telemetry-out run.jsonl [--telemetry-append] to optimize,\n";
  out << "            serve, worker, water, or md to capture spans and metrics;\n";
  out << "            --telemetry-flush S makes traces survive a killed process\n";
  out << "tracing:    serve and worker stamp every task with a distributed trace\n";
  out << "            id; `sfopt trace` merges their captures into per-shard span\n";
  out << "            trees with queue/wire/execute breakdowns\n";
  out << "pipeline:   --shard-min-samples N splits big sampling batches across\n";
  out << "            workers; --speculate prefetches the next round (optimize\n";
  out << "            --mw, water, serve; results stay bitwise identical)\n";
  out << "isa:        --isa scalar|sse4|avx2 (or SFOPT_ISA env) pins the\n";
  out << "            vectorized kernel level; results are bitwise identical\n";
  out << "            under every ISA, inline or --mw, whatever the threads\n";
  out << "            or shard layout\n";
  return 0;
}

Args parseCommandLine(const std::vector<std::string>& argv) {
  return Args::parse(argv, acceptedFlags(Args::parse(argv)));
}

int runCli(const std::vector<std::string>& argv, std::ostream& out, std::ostream& err) {
  try {
    const Args args = parseCommandLine(argv);
    const std::string& cmd = args.command();
    if (cmd == "optimize") return runOptimizeCommand(args, out);
    if (cmd == "serve") return runServeCommand(args, out);
    if (cmd == "submit") return runSubmitCommand(args, out);
    if (cmd == "status") return runStatusCommand(args, out);
    if (cmd == "cancel") return runCancelCommand(args, out);
    if (cmd == "worker") return runWorkerCommand(args, out);
    if (cmd == "chaosproxy") return runChaosProxyCommand(args, out);
    if (cmd == "water") return runWaterCommand(args, out);
    if (cmd == "probe") return runProbeCommand(args, out);
    if (cmd == "md") return runMdCommand(args, out);
    if (cmd == "metrics") return runMetricsCommand(args, out);
    if (cmd == "trace") return runTraceCommand(args, out);
    if (cmd == "info" || cmd.empty()) return runInfoCommand(args, out);
    err << "unknown command '" << cmd << "'\n";
    (void)runInfoCommand(args, err);
    return 2;
  } catch (const ArgError& e) {
    err << "error: " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    err << "fatal: " << e.what() << "\n";
    return 1;
  }
}

}  // namespace sfopt::tools
