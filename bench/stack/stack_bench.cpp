// Stack benchmark: one seeded job stream per workload, run through the
// stack the workload names (inline core::run*, one-shot loopback TCP, or
// the durable daemon), timed from outside.  Every job is checked bitwise
// against an untimed in-process MW run of the same spec.
//
//   stack_bench --workload W --seed N --seconds S --trace 0|1
//               [--smoke] [--scratch DIR] [--json FILE]
//
// --trace 0 measures the end-to-end metrics, in process CPU seconds: the
// median set-up, then a closed-loop stream for S seconds.  --trace 1 runs
// the stream untraced for S/2 seconds, replays the same jobs with the
// bench decorators and the program's telemetry on, and prints the
// per-layer metrics; the spans go to <scratch>/trace-<workload>.jsonl.
// --smoke runs two jobs instead of S seconds.  The last stdout line is
// one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// Exit status: 0 correct, 1 a job failed or mismatched its oracle, 2 bad
// usage.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/bench_json.hpp"
#include "service/durable_state.hpp"
#include "simd/dispatch.hpp"
#include "stack/stacks.hpp"

using namespace sfopt;
using namespace sfopt::bench;

namespace {

/// Oracles checked concurrently after an untimed pass: each is a master
/// plus kFleetWorkers threads, mostly waiting on one another.
constexpr int kOracleThreads = 3;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::filesystem::path scratch = ".bench_build/stack-run";
  std::string json;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "stack_bench: %s\n"
               "usage: stack_bench --workload W --seed N --seconds S --trace 0|1 [--smoke]\n"
               "                   [--scratch DIR] [--json FILE]\n"
               "workloads:",
               why.c_str());
  for (const Workload& w : workloads()) {
    std::fprintf(stderr, " %.*s", static_cast<int>(w.name.size()), w.name.data());
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Args parseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      a.smoke = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        a.workload = value;
      } else if (flag == "--seed") {
        a.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        a.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        a.trace = value == "1";
      } else if (flag == "--scratch") {
        a.scratch = value;
      } else if (flag == "--json") {
        a.json = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (findWorkload(a.workload) == nullptr) usage("unknown workload '" + a.workload + "'");
  if (!(a.seconds > 0.0) || a.seconds > 3600.0) usage("--seconds must be in (0, 3600]");
  return a;
}

// -- statistics ---------------------------------------------------------------

/// Linear-interpolated quantile (0 for an empty sample).
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// coreSpeedProbe() on the host the README's numbers come from.
constexpr double kReferenceProbeSeconds = 0.0041;

/// The factor that brings a pass's CPU seconds to the reference core speed.
/// A shared host's core speed drifts with other tenants' load (the probe
/// read 2.8 to 4.7 ms within one day) and the inline and TCP jobs' CPU
/// times follow it.  The daemon's CPU time is mostly its loop's wake-ups
/// and system calls, which do not, so it is never probed and stays
/// unscaled; nor does building an inline job (see medianJobSetup).
/// Measurements: bench/stack/README.md, "Why CPU seconds".
double coreScale(const Pass& pass) {
  return pass.probeSeconds.empty() ? 1.0
                                   : kReferenceProbeSeconds / quantile(pass.probeSeconds, 0.5);
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// -- correctness --------------------------------------------------------------

struct Verdict {
  std::size_t attempted = 0;
  std::size_t failed = 0;

  void fail(const std::string& what) {
    ++failed;
    std::printf("FAIL %s\n", what.c_str());
  }
};

/// Count the pass's jobs into the verdict and check each finished one
/// against its oracle, `threads` oracles at a time.  Returns the summed
/// oracle wall seconds.  `checkpoints`, when set, collects the oracles'
/// snapshots every 5 iterations as (job id, checkpoint).
double checkPass(const Workload& w, std::uint64_t seed, const Pass& pass, Verdict& verdict,
                 int threads,
                 std::vector<std::pair<std::uint64_t, core::SimplexCheckpoint>>* checkpoints) {
  std::vector<const JobRun*> checked;
  std::vector<std::uint64_t> indices;
  for (const JobRun& run : pass.jobs) {
    ++verdict.attempted;
    const std::string id = "job " + std::to_string(run.index);
    if (!run.ok) {
      verdict.fail(id + ": " + run.error);
    } else if (run.requeues > 0) {
      verdict.fail(id + ": " + std::to_string(run.requeues) + " MW task(s) requeued");
    } else {
      checked.push_back(&run);
      indices.push_back(run.index);
    }
  }
  const std::vector<OracleRun> oracles =
      runOracles(w, seed, indices, threads, checkpoints != nullptr ? 5 : 0);
  double oracleSeconds = 0.0;
  for (std::size_t i = 0; i < oracles.size(); ++i) {
    const JobRun& run = *checked[i];
    const OracleRun& oracle = oracles[i];
    oracleSeconds += oracle.seconds;
    const std::string id = "job " + std::to_string(run.index);
    if (!oracle.error.empty()) {
      verdict.fail(id + ": oracle: " + oracle.error);
    } else if (!sameOutcome(run.result, oracle.result, w.stack == Stack::Inline)) {
      verdict.fail(id + ": outcome differs from its solo MW run");
    }
    if (checkpoints != nullptr) {
      for (const auto& cp : oracle.checkpoints) checkpoints->emplace_back(run.index + 1, cp);
    }
  }
  return oracleSeconds;
}

// -- metrics ------------------------------------------------------------------

double sumWall(const Pass& pass) {
  double s = 0.0;
  for (const JobRun& run : pass.jobs) s += run.wallSeconds;
  return s;
}

/// Wall seconds of each job that completed.
std::vector<double> wallLatencies(const Pass& pass) {
  std::vector<double> latency;
  for (const JobRun& run : pass.jobs) {
    if (run.ok) latency.push_back(run.wallSeconds);
  }
  return latency;
}

/// Scaled CPU seconds of each job that completed.
std::vector<double> jobCpuSeconds(const Pass& pass) {
  const double scale = coreScale(pass);
  std::vector<double> cpu;
  for (const JobRun& run : pass.jobs) {
    if (run.ok) cpu.push_back(run.cpuSeconds * scale);
  }
  return cpu;
}

/// `setupSeconds` is reported as given: medianJobSetup and
/// medianDaemonSetup decide whether it is scaled.
std::vector<Metric> endToEnd(const Pass& pass, double setupSeconds) {
  const double scale = coreScale(pass);
  const std::vector<double> cpu = jobCpuSeconds(pass);
  std::printf("%zu jobs completed; core probe %.6g s, scale %.6g\n", cpu.size(),
              quantile(pass.probeSeconds, 0.5), scale);
  return {
      {"setup_s", setupSeconds, "s"},
      {"job_cpu_s_p50", quantile(cpu, 0.5), "s"},
      {"cpu_s_per_job", ratio(pass.cpuSeconds * scale, static_cast<double>(cpu.size())), "s"},
  };
}

struct DurableProbe {
  std::vector<double> appendUs;
  std::vector<double> checkpointUs;
};

/// Time the daemon's durable writes on a scratch state dir: the journal
/// records of the pass's own jobs and the checkpoints their oracles took.
/// Only the daemon has a durable layer; elsewhere the probe stays empty.
DurableProbe probeDurable(
    const Workload& w, std::uint64_t seed, const Pass& pass,
    const std::vector<std::pair<std::uint64_t, core::SimplexCheckpoint>>& checkpoints,
    const std::filesystem::path& dir) {
  DurableProbe probe;
  if (w.stack != Stack::Daemon) return probe;
  std::filesystem::remove_all(dir);
  service::DurableState state(dir);
  const auto timed = [](std::vector<double>& out, const auto& write) {
    const double t0 = net::monotonicSeconds();
    write();
    out.push_back((net::monotonicSeconds() - t0) * 1e6);
  };
  for (const JobRun& run : pass.jobs) {
    if (!run.ok) continue;
    const Job job = w.makeJob(seed, run.index);
    const std::uint64_t id = run.index + 1;
    const auto outcome = service::JobOutcome::fromResult(run.result);
    timed(probe.appendUs, [&] { state.recordSubmitted(id, *job.spec); });
    timed(probe.appendUs, [&] { state.recordStarted(id); });
    timed(probe.appendUs,
          [&] { state.recordFinished(id, service::JobState::Done, "", outcome); });
  }
  for (const auto& [id, cp] : checkpoints) {
    timed(probe.checkpointUs, [&] { state.writeJobCheckpoint(id, cp); });
  }
  return probe;
}

std::vector<Metric> perLayer(const Workload& w, const Pass& untraced, const Pass& traced,
                             Tracing& tracing, double oracleSeconds,
                             const simd::DispatchCounts& simd, const DurableProbe& durable) {
  const LayerTotals& l = tracing.layers;
  auto& program = tracing.program.metrics();
  const double jobs = static_cast<double>(std::max<std::size_t>(traced.jobs.size(), 1));
  const bool daemon = w.stack == Stack::Daemon;
  double samples = 0.0;
  double iterations = 0.0;
  std::vector<double> submit;
  std::vector<double> bestTrue;
  for (const JobRun& run : traced.jobs) {
    samples += static_cast<double>(run.result.totalSamples);
    iterations += static_cast<double>(run.result.iterations);
    submit.push_back(run.submitSeconds);
    if (run.result.bestTrue) bestTrue.push_back(*run.result.bestTrue);
  }
  const double hits = static_cast<double>(program.counter("eval.speculation_hits").value());
  const double misses = static_cast<double>(program.counter("eval.speculation_misses").value());
  double journalBytes = 0.0;
  if (daemon) {
    journalBytes =
        static_cast<double>(std::filesystem::file_size(traced.stateDir / "journal.sfj"));
  }
  const std::vector<double> cpu = jobCpuSeconds(untraced);
  const double cpuP75 = quantile(cpu, 0.75);
  std::printf("stack.job_cpu_s_p75 over %zu jobs, %zu beyond it\n", cpu.size(),
              static_cast<std::size_t>(
                  std::count_if(cpu.begin(), cpu.end(), [&](double s) { return s > cpuP75; })));
  return {
      {"core.samples_per_job", samples / jobs, "count"},
      {"core.iterations_per_job", iterations / jobs, "count"},
      {"core.engine_self_s_per_job", daemon ? 0.0 : l.engineSelfSeconds / jobs, "s"},
      {"eval.useful_sample_fraction", ratio(samples, static_cast<double>(l.objectiveSamples)),
       "ratio"},
      {"eval.speculation_hit_rate", ratio(hits, hits + misses), "ratio"},
      {"objective.sample_us_mean",
       ratio(l.objectiveSeconds * 1e6, static_cast<double>(l.objectiveSamples)), "us"},
      {"simd.welford_chunks_per_job", static_cast<double>(simd.welfordChunks) / jobs, "count"},
      {"simd.force_blocks_per_job", static_cast<double>(simd.forceBlocks) / jobs, "count"},
      {"mw.tasks_per_job", static_cast<double>(l.tasks) / jobs, "count"},
      {"mw.master_wait_s_per_job", l.masterWaitSeconds / jobs, "s"},
      {"mw.worker_busy_fraction", ratio(l.workerBusySeconds, l.fleetSeconds * kFleetWorkers),
       "ratio"},
      {"mw.requeues", static_cast<double>(program.counter("mw.tasks_requeued").value()),
       "count"},
      {"net.task_overhead_us_p50", quantile(l.taskOverheadUs, 0.5), "us"},
      {"net.task_overhead_us_p99", quantile(l.taskOverheadUs, 0.99), "us"},
      {"net.msgs_per_job", static_cast<double>(l.messages) / jobs, "count"},
      {"net.bytes_per_job", static_cast<double>(l.wireBytes) / jobs, "B"},
      {"net.frames_per_job", static_cast<double>(l.frames) / jobs, "count"},
      {"service.submit_s_p50", daemon ? quantile(submit, 0.5) : 0.0, "s"},
      {"service.s_per_iteration", ratio(sumWall(traced), iterations), "s"},
      {"service.shards_per_job",
       ratio(std::accumulate(l.shardsPerJob.begin(), l.shardsPerJob.end(), 0.0),
             static_cast<double>(l.shardsPerJob.size())),
       "count"},
      {"durable.journal_bytes_per_job", journalBytes / jobs, "B"},
      {"durable.checkpoints_per_job",
       static_cast<double>(program.counter("service.checkpoints_written").value()) / jobs,
       "count"},
      {"durable.append_us_p50", quantile(durable.appendUs, 0.5), "us"},
      {"durable.checkpoint_us_p50", quantile(durable.checkpointUs, 0.5), "us"},
      {"stack.job_cpu_s_p75", cpuP75, "s"},
      {"stack.wall_job_s_p50", quantile(wallLatencies(untraced), 0.5), "s"},
      {"stack.wall_job_s_p75", quantile(wallLatencies(untraced), 0.75), "s"},
      {"stack.wall_jobs_per_s",
       ratio(static_cast<double>(wallLatencies(untraced).size()), untraced.wallSeconds), "jobs/s"},
      {"stack.core_probe_s", quantile(untraced.probeSeconds, 0.5), "s"},
      {"stack.overhead_x", ratio(sumWall(untraced), oracleSeconds), "x"},
      {"telemetry.overhead_x", ratio(sumWall(traced), sumWall(untraced)), "x"},
      {"best_true_p50", quantile(bestTrue, 0.5), "f"},
  };
}

// -- output -------------------------------------------------------------------

void printResult(const Verdict& verdict, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%-32s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("fail_ratio %.6g (%zu of %zu jobs)\n",
              ratio(static_cast<double>(verdict.failed), static_cast<double>(verdict.attempted)),
              verdict.failed, verdict.attempted);
  std::string line = "{\"correct\": ";
  line += verdict.failed == 0 ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(verdict.attempted);
  line += ", \"failed\": " + std::to_string(verdict.failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[40];
    std::snprintf(value, sizeof value, "%.17g",
                  std::isfinite(metrics[i].value) ? metrics[i].value : 0.0);
    line += (i > 0 ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

PassPlan planFor(const Workload& w, const Args& args, double seconds) {
  PassPlan plan;
  if (args.smoke) {
    plan.quota.assign(static_cast<std::size_t>(w.clients),
                      static_cast<std::size_t>(w.clients == 1 ? 2 : 1));
  } else {
    plan.deadline = net::monotonicSeconds() + seconds;
  }
  return plan;
}

/// Set-up CPU seconds of an inline or one-shot TCP pass, whose jobs each
/// bring their own stack up: the median of the per-job set-ups, which
/// spread over the whole run.  Inline jobs take turns on every CPU (see
/// CpuPin), so there it is the mean over CPUs of each CPU's median: the
/// pooled median would fall in a gap between the CPUs' clusters and jump
/// from run to run.  The TCP set-up is scaled to the reference core like
/// the jobs.  The inline one, ~13 us of building a job, is not: its run
/// medians follow the core-speed probe only now and then (correlation
/// 0.72, -0.16 and -0.14 over three series of 20 runs), and between the
/// two ten-run halves of each series the median moved 13, 19 and 24%
/// scaled, against 17, 12 and 5% unscaled.
double medianJobSetup(const Workload& w, const Pass& pass) {
  std::vector<std::vector<double>> perCpu(w.stack == Stack::Inline ? CpuPin::cpus() : 1);
  for (const JobRun& run : pass.jobs) {
    perCpu[run.index % perCpu.size()].push_back(run.setupCpuSeconds);
  }
  double sum = 0.0;
  double groups = 0.0;
  for (const std::vector<double>& times : perCpu) {
    if (times.empty()) continue;
    sum += quantile(times, 0.5);
    groups += 1.0;
  }
  return ratio(sum, groups) * (w.stack == Stack::Inline ? 1.0 : coreScale(pass));
}

/// Set-up CPU seconds of the daemon, which a pass brings up once: the
/// median of 100 bring-ups (one in smoke mode), 20 ms apart.  Back to
/// back, the 100 took 0.1 s and their median followed the host's load in
/// that instant: over 14 runs the interquartile spread was 0.11, against
/// 0.05 with the pause, which also lets each bring-up start cold, as a
/// daemon does.  Each opens five loopback connections that linger in
/// TIME_WAIT for a minute; ~1200 bring-ups per run filled most of the
/// ephemeral port range within a few runs and made later connects, and so
/// set-ups, 10x slower.
double medianDaemonSetup(const Workload& w, const Args& args) {
  std::vector<double> times(args.smoke ? 1 : 100);
  for (double& t : times) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    t = daemonSetupOnce(w, args.seed, args.scratch);
  }
  return quantile(times, 0.5);
}

int run(const Args& args) {
  const Workload& w = *findWorkload(args.workload);
  std::filesystem::create_directories(args.scratch);
  std::printf("stack_bench: workload %.*s, seed %llu, %s, %.3g s%s\n",
              static_cast<int>(w.name.size()), w.name.data(),
              static_cast<unsigned long long>(args.seed), args.trace ? "traced" : "untraced",
              args.seconds, args.smoke ? " (smoke: two jobs)" : "");
  Verdict verdict;
  std::vector<Metric> metrics;

  if (!args.trace) {
    const bool daemon = w.stack == Stack::Daemon;
    const double daemonSetup = daemon ? medianDaemonSetup(w, args) : 0.0;
    const Pass pass = runPass(w, args.seed, planFor(w, args, args.seconds), args.scratch,
                              nullptr);
    (void)checkPass(w, args.seed, pass, verdict, kOracleThreads, nullptr);
    metrics = endToEnd(pass, daemon ? daemonSetup : medianJobSetup(w, pass));
  } else {
    const Pass untraced = runPass(w, args.seed, planFor(w, args, args.seconds / 2.0),
                                  args.scratch, nullptr);
    Tracing tracing;
    PassPlan replay;
    replay.quota = untraced.perClient;
    const simd::DispatchCounts before = simd::dispatchCounts();
    const Pass traced = runPass(w, args.seed, replay, args.scratch, &tracing);
    const simd::DispatchCounts after = simd::dispatchCounts();
    const simd::DispatchCounts simdDelta{after.welfordChunks - before.welfordChunks,
                                         after.forceBlocks - before.forceBlocks};

    std::vector<std::pair<std::uint64_t, core::SimplexCheckpoint>> checkpoints;
    (void)checkPass(w, args.seed, untraced, verdict, kOracleThreads, nullptr);
    // One oracle at a time here: their wall time is stack.overhead_x's base.
    const double oracleSeconds = checkPass(w, args.seed, traced, verdict, 1,
                                           w.stack == Stack::Daemon ? &checkpoints : nullptr);
    // Tracing must not move a single bit of any outcome.
    std::map<std::uint64_t, const JobRun*> plain;
    for (const JobRun& run : untraced.jobs) plain[run.index] = &run;
    for (const JobRun& run : traced.jobs) {
      const auto it = plain.find(run.index);
      if (it == plain.end() || !it->second->ok || !run.ok ||
          !sameOutcome(run.result, it->second->result, false)) {
        verdict.fail("job " + std::to_string(run.index) + ": traced outcome differs");
      }
    }
    const DurableProbe durable =
        probeDurable(w, args.seed, traced, checkpoints, args.scratch / "durable-probe");
    metrics = perLayer(w, untraced, traced, tracing, oracleSeconds, simdDelta, durable);
    const std::string traceOut =
        (args.scratch / ("trace-" + std::string(w.name) + ".jsonl")).string();
    tracing.sink.writeJsonl(traceOut);
    std::printf("trace: %llu events -> %s\n",
                static_cast<unsigned long long>(tracing.sink.eventsWritten()),
                traceOut.c_str());
  }

  if (!args.json.empty()) {
    BenchReport report;
    report.bench = "stack_bench";
    report.repetitions = static_cast<int>(verdict.attempted);
    for (const Metric& m : metrics) {
      report.add(std::string(w.name) + "." + m.name, m.value, m.unit);
    }
    if (!report.writeJson(args.json)) return 1;
  }
  printResult(verdict, metrics);
  return verdict.failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parseArgs(argc, argv);
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "stack_bench: %s\n", e.what());
    return 1;
  }
}
