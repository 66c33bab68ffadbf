#include "commands.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "simd/isa.hpp"
#include "telemetry/sink.hpp"

namespace {

using namespace sfopt::tools;

struct CliRun {
  int code = 0;
  std::string out;
  std::string err;
};

CliRun cli(const std::vector<std::string>& argv) {
  std::ostringstream out;
  std::ostringstream err;
  CliRun r;
  r.code = runCli(argv, out, err);
  r.out = out.str();
  r.err = err.str();
  return r;
}

TEST(Cli, InfoListsEverything) {
  const auto r = cli({"info"});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("mn"), std::string::npos);
  EXPECT_NE(r.out.find("rosenbrock"), std::string::npos);
  EXPECT_NE(r.out.find("water"), std::string::npos);
  EXPECT_NE(r.out.find("transports:"), std::string::npos);
  EXPECT_NE(r.out.find("protocol v2"), std::string::npos);
  EXPECT_NE(r.out.find("trace"), std::string::npos);
  EXPECT_NE(r.out.find("serve"), std::string::npos);
  EXPECT_NE(r.out.find("worker"), std::string::npos);
}

TEST(Cli, ServeRejectsBadInput) {
  EXPECT_EQ(cli({"serve", "--function", "nope", "--dim", "2"}).code, 2);
  EXPECT_EQ(cli({"serve", "--function", "sphere", "--dim", "1"}).code, 2);
  EXPECT_EQ(cli({"serve", "--function", "sphere", "--dim", "2", "--workers", "0"}).code, 2);
  EXPECT_EQ(cli({"serve", "--function", "sphere", "--dim", "2", "--port", "70000"}).code, 2);
  EXPECT_EQ(
      cli({"serve", "--function", "sphere", "--dim", "2", "--algorithm", "bogus"}).code, 2);
}

TEST(Cli, WorkerRejectsBadInput) {
  EXPECT_EQ(cli({"worker", "--port", "70000"}).code, 2);
  EXPECT_EQ(cli({"worker", "--port", "7600", "--connect-attempts", "0"}).code, 2);
}

TEST(Cli, NonPositiveOrNanTimingFlagsAreUsageErrors) {
  // Each would break the fleet: a worker beating flat out, a master
  // evicting every worker or failing the job on its first quiet pass, or
  // a worker wait that never reaches its deadline.  All exit 2 before a
  // port is bound or dialed.
  const auto serveWith = [](bool daemon, const std::string& flag, const std::string& value) {
    std::vector<std::string> argv = {"serve", "--port", "0", "--workers", "1"};
    if (daemon) {
      argv.push_back("--daemon");
    } else {
      argv.insert(argv.end(), {"--function", "sphere", "--dim", "2"});
    }
    if (flag != "wait-timeout") argv.insert(argv.end(), {"--wait-timeout", "0.2"});
    argv.insert(argv.end(), {"--" + flag, value});
    return argv;
  };
  for (const std::string bad : {"0", "-1", "nan"}) {
    for (const std::string flag :
         {"heartbeat-interval", "heartbeat-timeout", "recv-timeout", "wait-timeout"}) {
      for (const bool daemon : {false, true}) {
        const auto r = cli(serveWith(daemon, flag, bad));
        EXPECT_EQ(r.code, 2) << (daemon ? "daemon " : "") << flag << " " << bad;
        EXPECT_NE(r.err.find("--" + flag), std::string::npos) << r.err;
      }
    }
    const auto w = cli({"worker", "--port", "1", "--connect-attempts", "1",
                        "--heartbeat-interval", bad});
    EXPECT_EQ(w.code, 2) << "worker " << bad;
    EXPECT_NE(w.err.find("--heartbeat-interval"), std::string::npos) << w.err;
  }
  // A period must end; a timeout may be infinite.
  EXPECT_EQ(cli(serveWith(false, "heartbeat-interval", "inf")).code, 2);
  EXPECT_EQ(cli({"worker", "--port", "1", "--connect-attempts", "1", "--heartbeat-interval",
                 "inf"})
                .code,
            2);
}

TEST(Cli, ClientsPastTheVertexServerCapAreUsageErrors) {
  // Ns sizes every worker's vertex server, one thread per client past the
  // first: refused before `submit` dials or `serve` binds, including a
  // count that a cast to int would wrap to 1.
  for (const std::string bad : {"65", "4294967297"}) {
    const auto r = cli({"submit", "--clients", bad, "--port", "1"});
    EXPECT_EQ(r.code, 2) << bad << ": " << r.err;
    EXPECT_NE(r.err.find("clients"), std::string::npos) << r.err;
    EXPECT_EQ(cli({"serve", "--clients", bad, "--port", "0", "--workers", "1",
                   "--wait-timeout", "0.2", "--function", "sphere", "--dim", "2"})
                  .code,
              2)
        << bad;
  }
}

TEST(Cli, ClientTimeoutsRejectNanAndNonPositive) {
  // A NaN deadline never passes, so `submit --wait-timeout nan` would wait
  // for ever: every client timeout exits 2 before anything is dialed.
  for (const std::string bad : {"nan", "0", "-1"}) {
    const std::vector<std::vector<std::string>> runs = {
        {"submit", "--port", "1", "--wait-timeout", bad},
        {"submit", "--port", "1", "--connect-timeout", bad},
        {"status", "--port", "1", "--connect-timeout", bad},
        {"cancel", "--port", "1", "--job", "1", "--connect-timeout", bad},
    };
    for (const auto& argv : runs) {
      const auto r = cli(argv);
      EXPECT_EQ(r.code, 2) << argv[0] << " " << argv[argv.size() - 2] << " " << bad;
      EXPECT_NE(r.err.find(argv[argv.size() - 2]), std::string::npos) << r.err;
    }
  }
}

TEST(Cli, NoCommandPrintsInfo) {
  const auto r = cli({});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("sfopt"), std::string::npos);
}

TEST(Cli, UnknownCommandFails) {
  const auto r = cli({"frobnicate"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("unknown command"), std::string::npos);
}

TEST(Cli, OptimizeSphereWithMn) {
  const auto r = cli({"optimize", "--function", "sphere", "--dim", "3", "--algorithm", "mn",
                      "--sigma0", "0.5", "--max-iterations", "200", "--max-samples",
                      "100000"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("stopped:"), std::string::npos);
  EXPECT_NE(r.out.find("best:"), std::string::npos);
  EXPECT_NE(r.out.find("true value"), std::string::npos);
}

TEST(Cli, OptimizeWithExplicitStart) {
  const auto r = cli({"optimize", "--function", "sphere", "--dim", "2", "--algorithm", "det",
                      "--sigma0", "0", "--start", "2,2", "--max-iterations", "2000"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("converged"), std::string::npos);
}

TEST(Cli, OptimizeOverMasterWorker) {
  const auto r = cli({"optimize", "--function", "sphere", "--dim", "2", "--algorithm", "mn",
                      "--sigma0", "1", "--mw", "--workers", "3", "--max-iterations", "50",
                      "--max-samples", "50000"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("master-worker deployment"), std::string::npos);
}

TEST(Cli, OptimizePsoAndSa) {
  for (const char* algo : {"pso", "sa"}) {
    const auto r = cli({"optimize", "--function", "rastrigin", "--dim", "2", "--algorithm",
                        algo, "--sigma0", "0.2", "--max-iterations", "60", "--max-samples",
                        "100000"});
    EXPECT_EQ(r.code, 0) << algo << ": " << r.err;
    EXPECT_NE(r.out.find("stopped:"), std::string::npos) << algo;
  }
}

TEST(Cli, OptimizeRejectsBadInput) {
  EXPECT_EQ(cli({"optimize", "--algorithm", "magic"}).code, 2);
  EXPECT_EQ(cli({"optimize", "--dim", "1"}).code, 2);
  EXPECT_EQ(cli({"optimize", "--function", "nope"}).code, 2);
  EXPECT_EQ(cli({"optimize", "--function", "powell", "--dim", "3"}).code, 2);
  EXPECT_EQ(cli({"optimize", "--dim", "3", "--start", "1,2"}).code, 2);
  EXPECT_EQ(cli({"optimize", "--box", "5,1"}).code, 2);
}

TEST(Cli, NonFiniteOrNegativeSigma0IsAUsageError) {
  for (const std::string bad : {"nan", "inf", "-1"}) {
    const auto r = cli({"optimize", "--function", "sphere", "--dim", "2", "--algorithm", "pc",
                        "--sigma0", bad, "--max-iterations", "5"});
    EXPECT_EQ(r.code, 2) << bad << ": " << r.out;
    EXPECT_NE(r.err.find("sigma0"), std::string::npos) << bad << ": " << r.err;
    EXPECT_EQ(cli({"probe", "--function", "sphere", "--dim", "2", "--sigma0", bad, "--point",
                   "1,1"})
                  .code,
              2)
        << bad;
    EXPECT_EQ(cli({"water", "--sigma0", bad, "--max-iterations", "2"}).code, 2) << bad;
    EXPECT_EQ(cli({"submit", "--port", "1", "--sigma0", bad}).code, 2) << bad;
  }
}

TEST(Cli, ProbeReportsSigma) {
  const auto r = cli({"probe", "--function", "sphere", "--dim", "2", "--sigma0", "3",
                      "--point", "1,1", "--samples", "4000"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("sigma0:"), std::string::npos);
  // The estimate should land near 3 (printed before the declared value).
  EXPECT_NE(r.out.find("(declared 3"), std::string::npos);
}

TEST(Cli, WaterRunsQuickConfiguration) {
  const auto r = cli({"water", "--algorithm", "mn", "--sigma0", "0.2", "--max-iterations",
                      "120", "--max-samples", "500000"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("epsilon"), std::string::npos);
  EXPECT_NE(r.out.find("TIP4P"), std::string::npos);
}

TEST(Cli, MdRunsQuickSimulation) {
  const auto r = cli({"md", "--molecules", "8", "--equilibration", "20", "--production",
                      "40", "--cutoff", "3.0"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("molecules,"), std::string::npos);
  EXPECT_NE(r.out.find("force path:"), std::string::npos);
  EXPECT_NE(r.out.find("perf:"), std::string::npos);
}

TEST(Cli, MdRejectsBadInput) {
  EXPECT_EQ(cli({"md", "--molecules", "0"}).code, 2);
}

TEST(Cli, UnknownFlagsAreUsageErrors) {
  // Removed flags and a misspelling each exit 2 before any work starts
  // (no simulation, no listening socket, no connect attempt).
  const std::vector<std::pair<std::vector<std::string>, std::string>> cases = {
      {{"md", "--molecules", "8", "--force-threads", "2"}, "force-threads"},
      {{"serve", "--daemon", "--port", "0", "--speculative-factor", "2"}, "speculative-factor"},
      {{"worker", "--port", "7600", "--job-cache", "8"}, "job-cache"},
      {{"optimize", "--function", "sphere", "--dim", "2", "--sigam0", "5"}, "sigam0"},
  };
  for (const auto& [argv, flag] : cases) {
    const auto r = cli(argv);
    EXPECT_EQ(r.code, 2) << flag;
    EXPECT_NE(r.err.find("unknown flag --" + flag), std::string::npos) << r.err;
    EXPECT_EQ(r.out, "") << flag;
  }
  // Each mode of serve reads its own flags.
  EXPECT_EQ(cli({"serve", "--daemon", "--port", "0", "--function", "sphere"}).code, 2);
  EXPECT_EQ(cli({"serve", "--port", "0", "--max-jobs", "1"}).code, 2);
}

TEST(Cli, CiAndVerifyRecipeCommandLinesParse) {
  // The command lines the CI smokes and the verify recipe run, minus the
  // shell plumbing: every flag on them must be one its command reads.
  const std::vector<std::vector<std::string>> lines = {
      {"optimize", "--function", "sphere", "--dim", "2", "--algorithm", "mn", "--sigma0", "1",
       "--max-iterations", "40", "--max-samples", "50000"},
      {"optimize", "--function", "rosenbrock", "--dim", "4", "--algorithm", "pc",
       "--max-iterations", "40", "--checkpoint", "c.ckpt", "--checkpoint-every", "5",
       "--shard-min-samples", "64", "--speculate", "--clients", "3", "--isa", "scalar"},
      {"serve", "--port", "7601", "--workers", "2", "--function", "sphere", "--dim", "2",
       "--algorithm", "mn", "--sigma0", "1", "--max-iterations", "40", "--max-samples",
       "50000", "--telemetry-out", "master.trace.jsonl", "--telemetry-flush", "0"},
      {"serve", "--port", "7602", "--workers", "2", "--function", "sphere", "--dim", "2",
       "--algorithm", "mn", "--sigma0", "1", "--max-iterations", "40", "--max-samples",
       "50000", "--shard-min-samples", "64", "--speculate", "--clients", "3",
       "--recv-timeout", "2"},
      {"serve", "--port", "7605", "--workers", "2", "--function", "rastrigin", "--dim", "2",
       "--algorithm", "mn", "--sigma0", "1", "--max-iterations", "160", "--max-samples",
       "600000000", "--heartbeat-interval", "0.5", "--heartbeat-timeout", "3"},
      {"serve", "--daemon", "--port", "7603", "--max-jobs", "2", "--telemetry-out",
       "daemon.trace.jsonl", "--telemetry-flush", "0"},
      {"serve", "--daemon", "--port", "7604", "--state-dir", "state", "--checkpoint-interval",
       "3", "--max-concurrent", "1", "--max-queued", "0", "--result-retention", "8"},
      {"worker", "--port", "7601", "--telemetry-out", "worker1.trace.jsonl",
       "--telemetry-flush", "0"},
      {"worker", "--port", "7606", "--heartbeat-interval", "0.5", "--master-timeout", "3",
       "--reconnect", "false"},
      {"submit", "--port", "7603", "--function", "rosenbrock", "--dim", "4", "--algorithm",
       "pc", "--max-iterations", "40"},
      {"submit", "--port", "7604", "--detach", "--function", "rastrigin", "--dim", "2",
       "--algorithm", "mn", "--sigma0", "1", "--max-iterations", "160", "--max-samples",
       "600000000", "--seed", "99", "--priority", "5"},
      {"status", "--port", "7604", "--job", "1", "--result"},
      {"cancel", "--port", "7617", "--job", "2"},
      {"chaosproxy", "--port", "7606", "--target-port", "7605", "--scenario",
       "delay-duplicate", "--seed", "2026"},
      {"md", "--molecules", "216", "--equilibration", "50", "--production", "100", "--isa",
       "scalar", "--json"},
      {"metrics", "recovery.jsonl"},
      {"trace", "master.trace.jsonl", "worker1.trace.jsonl", "--verify", "--top", "3"},
  };
  for (const auto& argv : lines) {
    EXPECT_NO_THROW((void)parseCommandLine(argv)) << argv[0] << " " << argv[1];
  }
}

TEST(Cli, WaterRejectsUnknownAlgorithm) {
  EXPECT_EQ(cli({"water", "--algorithm", "pso"}).code, 2);
}

TEST(Cli, CheckpointAndResumeContinueARun) {
  namespace fs = std::filesystem;
  const fs::path ckpt = fs::temp_directory_path() / "sfopt_cli_test.ckpt";
  fs::remove(ckpt);
  const std::vector<std::string> base{
      "optimize", "--function", "sphere", "--dim", "2", "--algorithm", "mn",
      "--sigma0", "2", "--seed", "91", "--tolerance", "0", "--max-samples", "500000"};

  // Full run to 40 iterations.
  auto full = base;
  full.insert(full.end(), {"--max-iterations", "40"});
  const auto ref = cli(full);
  ASSERT_EQ(ref.code, 0) << ref.err;

  // Run to 20 with checkpointing, then resume to 40.
  auto firstHalf = base;
  firstHalf.insert(firstHalf.end(), {"--max-iterations", "20", "--checkpoint",
                                     ckpt.string(), "--checkpoint-every", "20"});
  ASSERT_EQ(cli(firstHalf).code, 0);
  ASSERT_TRUE(fs::exists(ckpt));

  auto secondHalf = base;
  secondHalf.insert(secondHalf.end(), {"--max-iterations", "40", "--resume", ckpt.string()});
  const auto resumed = cli(secondHalf);
  ASSERT_EQ(resumed.code, 0) << resumed.err;

  // The resumed run reports the identical best point as the full run.
  const auto bestLine = [](const std::string& text) {
    const auto pos = text.find("best:");
    return text.substr(pos, text.find('\n', pos) - pos);
  };
  EXPECT_EQ(bestLine(resumed.out), bestLine(ref.out));
  fs::remove(ckpt);
}

TEST(Cli, CheckpointRejectedForSwarmAndAnnealing) {
  EXPECT_EQ(cli({"optimize", "--algorithm", "pso", "--checkpoint", "/tmp/x.ckpt"}).code, 2);
  EXPECT_EQ(cli({"optimize", "--algorithm", "sa", "--resume", "/tmp/x.ckpt"}).code, 2);
}

TEST(Cli, MdJsonEmitsStableMachineReadableReport) {
  const auto r = cli({"md", "--molecules", "8", "--equilibration", "20", "--production",
                      "40", "--cutoff", "3.0", "--json"});
  ASSERT_EQ(r.code, 0) << r.err;
  // The report is one flat JSON object on the first line, in the telemetry
  // wire format, so the JSONL parser round-trips it.
  const std::string firstLine = r.out.substr(0, r.out.find('\n'));
  const auto report = sfopt::telemetry::parseJsonLine(firstLine);
  ASSERT_TRUE(report.has_value()) << firstLine;
  EXPECT_EQ(report->type, "md_report");
  EXPECT_EQ(report->num("molecules"), 8.0);
  EXPECT_EQ(report->num("production_steps"), 40.0);
  ASSERT_TRUE(report->num("potential_per_molecule_kcal").has_value());
  ASSERT_TRUE(report->num("force_evaluations").has_value());
  EXPECT_GT(*report->num("force_evaluations"), 0.0);
  EXPECT_TRUE(report->num("nve_drift_kcal_per_ps").has_value());
}

TEST(Cli, TelemetryOutCapturesEngineMwAndCliLayers) {
  namespace fs = std::filesystem;
  const fs::path jsonl = fs::temp_directory_path() / "sfopt_cli_telemetry.jsonl";
  fs::remove(jsonl);
  const auto r = cli({"optimize", "--function", "sphere", "--dim", "2", "--algorithm", "mn",
                      "--sigma0", "1", "--mw", "--workers", "2", "--max-iterations", "30",
                      "--max-samples", "50000", "--telemetry-out", jsonl.string()});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("telemetry:"), std::string::npos);
  ASSERT_TRUE(fs::exists(jsonl));

  const auto events = sfopt::telemetry::readJsonlEvents(jsonl);
  ASSERT_FALSE(events.empty());
  bool engineRun = false, mwTask = false, cliSpan = false, metric = false;
  for (const auto& e : events) {
    engineRun |= e.type == "span" && e.name == "engine.run";
    mwTask |= e.type == "span" && e.name == "shard.lifecycle";
    cliSpan |= e.type == "span" && e.name == "cli.optimize";
    metric |= e.type == "metric" && e.name == "engine.iterations";
  }
  EXPECT_TRUE(engineRun);
  EXPECT_TRUE(mwTask);
  EXPECT_TRUE(cliSpan);
  EXPECT_TRUE(metric);

  // `sfopt metrics` renders the capture with layer coverage.
  const auto m = cli({"metrics", jsonl.string()});
  ASSERT_EQ(m.code, 0) << m.err;
  EXPECT_NE(m.out.find("spans (seconds):"), std::string::npos);
  EXPECT_NE(m.out.find("engine.iterations"), std::string::npos);
  EXPECT_NE(m.out.find("engine[x] mw[x]"), std::string::npos);
  fs::remove(jsonl);
}

TEST(Cli, TelemetryAppendAccumulatesAllFourLayers) {
  namespace fs = std::filesystem;
  const fs::path jsonl = fs::temp_directory_path() / "sfopt_cli_telemetry_all.jsonl";
  fs::remove(jsonl);
  ASSERT_EQ(cli({"optimize", "--function", "sphere", "--dim", "2", "--algorithm", "mn",
                 "--sigma0", "1", "--mw", "--workers", "2", "--max-iterations", "20",
                 "--max-samples", "50000", "--telemetry-out", jsonl.string()})
                .code,
            0);
  ASSERT_EQ(cli({"md", "--molecules", "8", "--equilibration", "20", "--production", "40",
                 "--cutoff", "3.0", "--telemetry-out", jsonl.string(),
                 "--telemetry-append"})
                .code,
            0);
  const auto m = cli({"metrics", "--in", jsonl.string()});
  ASSERT_EQ(m.code, 0) << m.err;
  EXPECT_NE(m.out.find("engine[x] mw[x] net[ ] md[x] cli[x]"), std::string::npos) << m.out;
  fs::remove(jsonl);
}

TEST(Cli, PipelineKnobsKeepTheMwResultIdentical) {
  const std::vector<std::string> base = {"optimize", "--function", "sphere", "--dim", "2",
                                         "--algorithm", "mn", "--sigma0", "1", "--mw",
                                         "--workers", "3", "--max-iterations", "40",
                                         "--max-samples", "50000"};
  std::vector<std::string> piped = base;
  piped.insert(piped.end(), {"--shard-min-samples", "64", "--speculate"});
  const auto plain = cli(base);
  const auto sharded = cli(piped);
  ASSERT_EQ(plain.code, 0) << plain.err;
  ASSERT_EQ(sharded.code, 0) << sharded.err;

  // The printed trajectory summary (moves, best, estimate, effort) must be
  // untouched by the pipeline knobs.
  const auto resultLines = [](const std::string& out) {
    std::istringstream in(out);
    std::string line, keep;
    while (std::getline(in, line)) {
      for (const char* prefix : {"stopped:", "best:", "estimate:", "effort:", "moves:"}) {
        if (line.rfind(prefix, 0) == 0) keep += line + "\n";
      }
    }
    return keep;
  };
  EXPECT_FALSE(resultLines(plain.out).empty());
  EXPECT_EQ(resultLines(sharded.out), resultLines(plain.out));
}

TEST(Cli, ShardMinSamplesRejectsNegative) {
  EXPECT_EQ(cli({"optimize", "--shard-min-samples", "-1"}).code, 2);
  EXPECT_EQ(cli({"water", "--algorithm", "mn", "--shard-min-samples", "-5"}).code, 2);
}

TEST(Cli, PipelinedTelemetryCoversTheEvalLayer) {
  namespace fs = std::filesystem;
  const fs::path jsonl = fs::temp_directory_path() / "sfopt_cli_eval_layer.jsonl";
  fs::remove(jsonl);
  const auto r = cli({"optimize", "--function", "sphere", "--dim", "2", "--algorithm", "mn",
                      "--sigma0", "1", "--mw", "--workers", "2", "--shard-min-samples", "64",
                      "--speculate", "--max-iterations", "30", "--max-samples", "50000",
                      "--telemetry-out", jsonl.string()});
  ASSERT_EQ(r.code, 0) << r.err;
  const auto m = cli({"metrics", jsonl.string()});
  ASSERT_EQ(m.code, 0) << m.err;
  EXPECT_NE(m.out.find("eval.shards_per_batch"), std::string::npos) << m.out;
  EXPECT_NE(m.out.find("eval[x]"), std::string::npos) << m.out;
  fs::remove(jsonl);
}

TEST(Cli, MetricsRejectsMissingInput) {
  EXPECT_EQ(cli({"metrics"}).code, 2);
  EXPECT_EQ(cli({"metrics", "/no/such/file.jsonl"}).code, 2);
}

TEST(Cli, TraceFlagWritesCsv) {
  namespace fs = std::filesystem;
  const fs::path csv = fs::temp_directory_path() / "sfopt_cli_trace.csv";
  fs::remove(csv);
  const auto r = cli({"optimize", "--function", "sphere", "--dim", "2", "--algorithm",
                      "det", "--sigma0", "0", "--max-iterations", "30", "--tolerance", "0",
                      "--trace", csv.string()});
  ASSERT_EQ(r.code, 0) << r.err;
  ASSERT_TRUE(fs::exists(csv));
  std::ifstream in(csv);
  std::string header;
  std::getline(in, header);
  EXPECT_NE(header.find("best_estimate"), std::string::npos);
  fs::remove(csv);
}

namespace trace_fixture {

sfopt::telemetry::Event span(std::string name, std::uint64_t id, std::uint64_t parent,
                             std::uint64_t trace, double start, double duration,
                             std::string outcome = {}) {
  sfopt::telemetry::Event e;
  e.type = "span";
  e.name = std::move(name);
  e.id = id;
  e.parent = parent;
  e.trace = trace;
  e.time = start;
  e.duration = duration;
  if (!outcome.empty()) e.strFields = {{"outcome", std::move(outcome)}};
  return e;
}

/// Writes one complete shard span tree (lifecycle + queue + remote +
/// folded terminal) to `path`.
void writeCompleteTrace(const std::filesystem::path& path) {
  std::ofstream out(path);
  out << toJsonLine(span("shard.lifecycle", 10, 0, 1, 1.0, 2.0, "ok")) << "\n";
  out << toJsonLine(span("shard.queue", 11, 10, 1, 1.0, 0.1)) << "\n";
  auto remote = span("shard.remote", 12, 10, 1, 1.1, 1.5, "ok");
  remote.numFields = {{"rank", 1.0}};
  out << toJsonLine(remote) << "\n";
  out << toJsonLine(span("shard.folded", 13, 10, 1, 2.7, 0.0)) << "\n";
}

}  // namespace trace_fixture

TEST(Cli, IntFlagsPastIntRangeAreUsageErrors) {
  // 4294967297 is 2^32 + 1: a cast to int would silently make it 1.  Each
  // run exits 2 naming its flag; the daemon runs carry --workers 1
  // --wait-timeout 0.2 so that they would end promptly if it were taken.
  namespace fs = std::filesystem;
  const fs::path capture = fs::temp_directory_path() / "sfopt_cli_top_wrap.jsonl";
  trace_fixture::writeCompleteTrace(capture);
  const std::string big = "4294967297";
  const std::vector<std::pair<std::string, std::vector<std::string>>> runs = {
      {"workers",
       {"serve", "--port", "0", "--workers", big, "--wait-timeout", "0.2", "--function",
        "sphere", "--dim", "2"}},
      {"workers",
       {"optimize", "--function", "sphere", "--dim", "2", "--algorithm", "mn", "--mw",
        "--workers", big, "--max-iterations", "5"}},
      {"max-concurrent",
       {"serve", "--daemon", "--port", "0", "--max-concurrent", big, "--workers", "1",
        "--wait-timeout", "0.2"}},
      {"max-queued",
       {"serve", "--daemon", "--port", "0", "--max-queued", big, "--workers", "1",
        "--wait-timeout", "0.2"}},
      {"connect-attempts", {"worker", "--port", "1", "--connect-attempts", big}},
      {"particles",
       {"optimize", "--algorithm", "pso", "--particles", big, "--function", "sphere", "--dim",
        "2", "--max-iterations", "5"}},
      {"molecules", {"md", "--molecules", big}},
      {"equilibration",
       {"md", "--molecules", "8", "--cutoff", "3", "--equilibration", big, "--production",
        "20"}},
      {"production", {"md", "--molecules", "8", "--cutoff", "3", "--production", big}},
      {"sample-every",
       {"md", "--molecules", "8", "--cutoff", "3", "--production", "20", "--sample-every",
        big}},
      {"top", {"trace", capture.string(), "--top", big}},
  };
  for (const auto& [flag, argv] : runs) {
    const auto r = cli(argv);
    EXPECT_EQ(r.code, 2) << argv[0] << " --" << flag;
    EXPECT_NE(r.err.find("--" + flag), std::string::npos) << r.err;
  }
  fs::remove(capture);
}

TEST(Cli, TraceVerifiesCompleteSpanTrees) {
  namespace fs = std::filesystem;
  const fs::path file = fs::temp_directory_path() / "sfopt_cli_trace_ok.jsonl";
  trace_fixture::writeCompleteTrace(file);

  const auto r = cli({"trace", file.string(), "--verify"});
  EXPECT_EQ(r.code, 0) << r.err << r.out;
  EXPECT_NE(r.out.find("complete span tree"), std::string::npos);

  const auto report = cli({"trace", file.string()});
  EXPECT_EQ(report.code, 0) << report.err;
  EXPECT_NE(report.out.find("shards:"), std::string::npos);
  EXPECT_NE(report.out.find("critical path"), std::string::npos);
  EXPECT_NE(report.out.find("queue"), std::string::npos);
  fs::remove(file);
}

TEST(Cli, TraceVerifyFailsOnIncompleteSpanTree) {
  namespace fs = std::filesystem;
  const fs::path file = fs::temp_directory_path() / "sfopt_cli_trace_bad.jsonl";
  {
    // A lifecycle root that claims success but never folded and was never
    // dispatched: two integrity problems.
    std::ofstream out(file);
    out << toJsonLine(trace_fixture::span("shard.lifecycle", 10, 0, 1, 1.0, 2.0, "ok"))
        << "\n";
  }
  const auto r = cli({"trace", file.string(), "--verify"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.out.find("problem:"), std::string::npos);
  fs::remove(file);
}

TEST(Cli, TraceRejectsMissingInput) {
  EXPECT_EQ(cli({"trace"}).code, 2);
  EXPECT_EQ(cli({"trace", "/no/such/file.jsonl"}).code, 2);
}

TEST(Cli, TraceFailsGracefullyOnAnEmptyCapture) {
  namespace fs = std::filesystem;
  const fs::path file = fs::temp_directory_path() / "sfopt_empty_capture.jsonl";
  std::ofstream(file).close();
  const auto r = cli({"trace", file.string()});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.out.find("error:"), std::string::npos);
  EXPECT_NE(r.out.find("--telemetry-out"), std::string::npos);
  fs::remove(file);
}

TEST(Cli, SubmitRejectsBadInput) {
  // Validation failures must be usage errors before any connection is
  // attempted (the daemon address here is intentionally unreachable).
  EXPECT_EQ(cli({"submit", "--port", "70000"}).code, 2);
  EXPECT_EQ(cli({"submit", "--port", "1", "--function", "nope"}).code, 2);
  EXPECT_EQ(cli({"submit", "--port", "1", "--dim", "1"}).code, 2);
  EXPECT_EQ(cli({"submit", "--port", "1", "--algorithm", "bogus"}).code, 2);
  EXPECT_EQ(cli({"submit", "--port", "1", "--function", "powell", "--dim", "3"}).code, 2);
}

TEST(Cli, StatusAndCancelRejectBadInput) {
  EXPECT_EQ(cli({"status", "--port", "70000"}).code, 2);
  EXPECT_EQ(cli({"status", "--port", "1", "--job", "-3"}).code, 2);
  EXPECT_EQ(cli({"cancel", "--port", "1"}).code, 2);  // needs --job
  EXPECT_EQ(cli({"cancel", "--port", "1", "--job", "0"}).code, 2);
}

TEST(Cli, ServeDaemonRejectsBadInput) {
  EXPECT_EQ(cli({"serve", "--daemon", "--port", "70000"}).code, 2);
  EXPECT_EQ(cli({"serve", "--daemon", "--port", "0", "--max-concurrent", "0"}).code, 2);
  EXPECT_EQ(cli({"serve", "--daemon", "--port", "0", "--max-queued", "-1"}).code, 2);
  EXPECT_EQ(cli({"serve", "--daemon", "--port", "0", "--max-pending-shards", "0"}).code, 2);
}

TEST(Cli, InfoMentionsTheServiceCommands) {
  const auto r = cli({"info"});
  EXPECT_NE(r.out.find("--daemon"), std::string::npos);
  EXPECT_NE(r.out.find("submit"), std::string::npos);
  EXPECT_NE(r.out.find("status"), std::string::npos);
  EXPECT_NE(r.out.find("cancel"), std::string::npos);
}

TEST(Cli, InfoReportsSimdIsaSituation) {
  const auto r = cli({"info"});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("simd:"), std::string::npos);
  EXPECT_NE(r.out.find("supported:"), std::string::npos);
  EXPECT_NE(r.out.find("scalar"), std::string::npos);
  EXPECT_NE(r.out.find("--isa"), std::string::npos);
}

TEST(Cli, IsaFlagRejectsUnknownAndUnsupportedLevels) {
  const auto unknown = cli({"optimize", "--function", "sphere", "--dim", "2", "--isa",
                            "bogus"});
  EXPECT_EQ(unknown.code, 2);
  EXPECT_NE(unknown.err.find("supported"), std::string::npos);
  // There is no NEON level: aarch64 hosts run the scalar kernels.
  const auto neon = cli({"optimize", "--function", "sphere", "--dim", "2", "--isa", "neon"});
  EXPECT_EQ(neon.code, 2);
  EXPECT_NE(neon.err.find("unknown ISA"), std::string::npos) << neon.err;
  // Every real-but-unsupported level on this host is a usage error too
  // (the x86 levels on other hosts).
  for (const sfopt::simd::Isa isa : {sfopt::simd::Isa::Sse4, sfopt::simd::Isa::Avx2}) {
    if (sfopt::simd::isaSupported(isa)) continue;
    const auto r = cli({"optimize", "--function", "sphere", "--dim", "2", "--isa",
                        sfopt::simd::isaName(isa)});
    EXPECT_EQ(r.code, 2) << sfopt::simd::isaName(isa);
    EXPECT_NE(r.err.find("not available"), std::string::npos);
  }
}

TEST(Cli, IsaFlagPinsDispatchForTheRun) {
  const sfopt::simd::Isa before = sfopt::simd::activeIsa();
  const auto r = cli({"optimize", "--function", "sphere", "--dim", "2", "--algorithm",
                      "mn", "--sigma0", "1", "--max-iterations", "10", "--max-samples",
                      "20000", "--isa", "scalar"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_EQ(sfopt::simd::activeIsa(), sfopt::simd::Isa::Scalar);
  sfopt::simd::setActiveIsa(before);
}

}  // namespace
