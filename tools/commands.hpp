#pragma once

#include <iosfwd>

#include "arg_parser.hpp"

namespace sfopt::tools {

/// The sfopt CLI command layer: each command is a pure function of parsed
/// args writing its report to `out`, so the test suite can drive it
/// without spawning processes.  Returns a process exit code.

/// `sfopt optimize` — run one of the stochastic simplex variants (or PSO /
/// simulated annealing) on a built-in test function.
int runOptimizeCommand(const Args& args, std::ostream& out);

/// `sfopt serve` — distributed master: bind a TCP port, wait for
/// `--workers` worker processes to register, then run the job its flags
/// describe as the daemon's only job (`serve --daemon` instead takes jobs
/// from `submit`).  Results are bitwise identical to the in-process
/// `optimize --mw` run of the same options.  Exits 1 with the job's error
/// when the job does not finish.
int runServeCommand(const Args& args, std::ostream& out);

/// `sfopt submit` — client of the multi-tenant daemon (`serve --daemon`):
/// build a job from the same flags and defaults `optimize` uses, submit it
/// over TCP, and (unless `--detach`) wait for the result and print it in
/// `optimize`'s exact format, so the two diff bitwise.  A load-based
/// rejection exits 3 (retryable), a validation rejection 2.
int runSubmitCommand(const Args& args, std::ostream& out);

/// `sfopt status` — query the daemon about one job (`--job N`) or the
/// whole service (no `--job`).
int runStatusCommand(const Args& args, std::ostream& out);

/// `sfopt cancel` — request cancellation of a queued or running job.
int runCancelCommand(const Args& args, std::ostream& out);

/// `sfopt worker` — distributed worker: connect to a master (one-shot
/// `serve` or the daemon, which speak the same protocol) and serve
/// sampling tasks until shutdown.  Every task carries its job's objective
/// spec, so the worker needs no problem flags.  Reconnects with backoff
/// when the connection drops (disable with `--reconnect false`).
int runWorkerCommand(const Args& args, std::ostream& out);

/// `sfopt chaosproxy` — fault-injecting TCP proxy between workers and a
/// master/daemon: relays `--port` to `--target-host:--target-port` under a
/// named, seeded `--scenario` (partition-heal, blackhole-up/-down,
/// delay-duplicate, midframe-stall, none).  Runs until SIGTERM/SIGINT or
/// `--duration` seconds, then prints the chaos counters.  The partition
/// chaos CI smoke drives the shipped binaries through it.
int runChaosProxyCommand(const Args& args, std::ostream& out);

/// `sfopt water` — the TIP4P reparameterization application.
int runWaterCommand(const Args& args, std::ostream& out);

/// `sfopt probe` — estimate the noise scale of a test function at a point.
int runProbeCommand(const Args& args, std::ostream& out);

/// `sfopt md` — run one NVT/NVE water protocol directly (the per-sample
/// kernel of the MD-backed objective); reports observables and the
/// force-path perf counters, including the cell-list neighbor build.
int runMdCommand(const Args& args, std::ostream& out);

/// `sfopt metrics` — summarize a `--telemetry-out` JSONL capture: span
/// roll-ups (count/total/mean/max), final metric values, a per-rank fleet
/// table, and which instrumented layers the file covers.
int runMetricsCommand(const Args& args, std::ostream& out);

/// `sfopt trace` — merge the master's and workers' `--telemetry-out`
/// captures of one distributed run, align worker clocks via the heartbeat
/// offset estimates, reassemble each shard's cross-process span tree, and
/// report critical-path / utilization / straggler breakdowns.  With
/// `--verify`, exits nonzero when any span tree is incomplete.
int runTraceCommand(const Args& args, std::ostream& out);

/// `sfopt info` — list algorithms, functions and build configuration.
int runInfoCommand(const Args& args, std::ostream& out);

/// Parse a command line, accepting only the flags its command reads: any
/// other flag throws ArgError("unknown flag --X"), so a misspelled flag is
/// a usage error instead of being silently ignored.
[[nodiscard]] Args parseCommandLine(const std::vector<std::string>& argv);

/// Dispatch on args.command(); prints usage on unknown/missing commands.
int runCli(const std::vector<std::string>& argv, std::ostream& out, std::ostream& err);

}  // namespace sfopt::tools
