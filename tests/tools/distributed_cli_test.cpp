#include "commands.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include "tests/tools/cli_process.hpp"

// The CLI's distributed path over real processes: a one-shot `sfopt serve`
// and two `sfopt worker` processes over loopback TCP, one of them on the
// scalar kernels, must print the same result lines as the inline `sfopt
// optimize` run of the same flags, and every worker must end on the
// master's shutdown.

namespace {

using namespace sfopt;

/// The lines a distributed run must reproduce bit for bit.
std::string resultLines(const std::string& out) {
  std::istringstream in(out);
  std::string line;
  std::string keep;
  while (std::getline(in, line)) {
    for (const char* prefix : {"stopped:", "best:", "estimate:", "effort:", "moves:"}) {
      if (line.rfind(prefix, 0) == 0) keep += line + "\n";
    }
  }
  return keep;
}

void expectServeMatchesOptimize(const std::vector<std::string>& job) {
  std::vector<std::string> solo = {"optimize"};
  solo.insert(solo.end(), job.begin(), job.end());
  std::ostringstream soloOut;
  std::ostringstream soloErr;
  ASSERT_EQ(tools::runCli(solo, soloOut, soloErr), 0) << soloErr.str();
  ASSERT_FALSE(resultLines(soloOut.str()).empty()) << soloOut.str();

  const test::TempDir logs;
  std::vector<std::string> serveArgs = {"serve", "--port", "0", "--workers", "2"};
  serveArgs.insert(serveArgs.end(), job.begin(), job.end());
  test::CliProcess serve;
  serve.spawn(serveArgs, logs.path / "serve.log");
  ASSERT_GE(serve.pid, 0);
  const std::uint16_t port = serve.waitForPort();
  ASSERT_NE(port, 0) << serve.log();

  test::CliProcess workers[2];
  for (int i = 0; i < 2; ++i) {
    std::vector<std::string> workerArgs = {"worker", "--port", std::to_string(port),
                                           "--reconnect", "false"};
    if (i == 1) workerArgs.insert(workerArgs.end(), {"--isa", "scalar"});
    workers[i].spawn(workerArgs, logs.path / ("worker" + std::to_string(i) + ".log"));
    ASSERT_GE(workers[i].pid, 0);
  }
  ASSERT_EQ(serve.waitExit(60.0), 0) << serve.log();
  const std::string served = serve.log();
  EXPECT_EQ(resultLines(served), resultLines(soloOut.str())) << served;
  EXPECT_NE(served.find("distributed deployment: 2 worker rank(s)"), std::string::npos)
      << served;

  const std::regex clean("shutdown: [0-9]+ task\\(s\\) executed, 0 failed");
  for (test::CliProcess& w : workers) {
    EXPECT_EQ(w.waitExit(20.0), 0) << w.log();
    EXPECT_TRUE(std::regex_search(w.log(), clean)) << w.log();
  }
}

TEST(CliDistributed, ServeMatchesOptimizeForMn) {
  expectServeMatchesOptimize({"--function", "sphere", "--dim", "2", "--algorithm", "mn",
                                "--sigma0", "1", "--max-iterations", "40", "--max-samples",
                                "50000"});
}

TEST(CliDistributed, ServeMatchesOptimizeForShardedSpeculativePc) {
  expectServeMatchesOptimize({"--function", "rosenbrock", "--dim", "3", "--algorithm", "pc",
                                "--sigma0", "2", "--max-iterations", "40",
                                "--shard-min-samples", "64", "--speculate", "--clients", "3"});
}

}  // namespace
