#include "mw/parallel_runner.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <sstream>
#include <stdexcept>
#include <string>
#include <variant>

#include "core/checkpoint.hpp"
#include "core/initial_simplex.hpp"
#include "mw/comm.hpp"
#include "mw/processor_allocation.hpp"
#include "noise/rng.hpp"
#include "service/job.hpp"
#include "simd/isa.hpp"
#include "tests/core/test_helpers.hpp"

namespace {

using namespace sfopt;
using mw::MWRunConfig;
using mw::ProcessorAllocation;
using mw::runSimplexOverMW;

TEST(ProcessorAllocation, MatchesTable33) {
  // Table 3.3 of the paper: d = 20, 50, 100 with Ns = 1.
  const ProcessorAllocation a20{20, 1};
  EXPECT_EQ(a20.workers(), 23);
  EXPECT_EQ(a20.servers(), 23);
  EXPECT_EQ(a20.clients(), 23);
  EXPECT_EQ(a20.totalCores(), 70);
  const ProcessorAllocation a50{50, 1};
  EXPECT_EQ(a50.totalCores(), 160);
  const ProcessorAllocation a100{100, 1};
  EXPECT_EQ(a100.totalCores(), 310);
}

TEST(ProcessorAllocation, ConsistencyIdentityHoldsBroadly) {
  for (std::int64_t d = 2; d <= 64; d *= 2) {
    for (std::int64_t ns = 1; ns <= 5; ++ns) {
      const ProcessorAllocation a{d, ns};
      EXPECT_TRUE(a.consistent()) << "d=" << d << " ns=" << ns;
    }
  }
}

TEST(ParallelRunner, MatchesSequentialRun) {
  // The central integration property: farming the sampling over the MW
  // master-worker runtime must not change the optimization, because noise
  // draws are keyed by (vertexId, sampleIndex), not by which worker
  // computes them, and both paths fold the same chunk moments in the same
  // order.  The trajectory and the estimate are exactly equal.
  auto obj = test::noisyRosenbrock(3, 10.0);
  const auto start = test::simpleStart(3, -1.0, 0.8);

  core::MaxNoiseOptions opts;
  opts.common.termination.tolerance = 1e-2;
  opts.common.termination.maxIterations = 150;
  opts.common.sampling.maxSamplesPerVertex = 50'000;

  const auto sequential = core::runMaxNoise(obj, start, opts);
  const auto parallel = runSimplexOverMW(obj, start, opts, MWRunConfig{});

  EXPECT_EQ(parallel.optimization.iterations, sequential.iterations);
  EXPECT_EQ(parallel.optimization.totalSamples, sequential.totalSamples);
  EXPECT_EQ(parallel.optimization.best, sequential.best);
  EXPECT_EQ(parallel.optimization.bestEstimate, sequential.bestEstimate);
  EXPECT_EQ(parallel.optimization.reason, sequential.reason);
}

/// Restores the active ISA on scope exit.
struct IsaGuard {
  simd::Isa saved = simd::activeIsa();
  ~IsaGuard() { simd::setActiveIsa(saved); }
};

/// The bytes of the one checkpoint `sfopt optimize --function rosenbrock
/// --dim 3 --algorithm pc --sigma0 2 --seed 5 --max-iterations 60
/// --checkpoint-every 60` writes, run inline or, with `overMw`, through
/// runSimplexOverMW (`--mw`).  The job is the one `optimize` builds from
/// those flags.
std::string pcJobCheckpoint(bool overMw) {
  service::JobSpec spec;
  spec.objective = {.function = "rosenbrock", .dim = 3, .sigma0 = 2.0, .seed = 5};
  spec.algorithm = "pc";
  spec.termination.tolerance = 1e-4;
  spec.termination.maxIterations = 60;
  spec.termination.maxSamples = 1'000'000;
  spec.termination.maxTime = 1e9;
  noise::RngStream rng(5, 7);
  spec.initial = core::randomSimplexPoints(3, -5.0, 5.0, rng);
  const noise::NoisyFunction objective = spec.objective.makeObjective();
  mw::AlgorithmOptions options = spec.makeOptions();
  std::string bytes;
  std::visit(
      [&bytes](auto& o) {
        o.common.checkpointEvery = 60;
        o.common.checkpointSink = [&bytes](const core::SimplexCheckpoint& cp) {
          std::ostringstream out;
          core::writeCheckpoint(out, cp);
          bytes = out.str();
        };
      },
      options);
  if (overMw) {
    (void)runSimplexOverMW(objective, spec.initial, options, MWRunConfig{});
  } else {
    (void)mw::runAlgorithm(objective, spec.initial, options);
  }
  return bytes;
}

TEST(ParallelRunner, OneCheckpointOnEveryPathAndIsa) {
  // A job's bits must not depend on where it ran: the vertex moments in
  // its checkpoint are the same inline and over MW workers, under every
  // SIMD level the host supports.
  IsaGuard guard;
  const std::string want = pcJobCheckpoint(false);
  ASSERT_FALSE(want.empty());
  for (const simd::Isa isa : simd::supportedIsas()) {
    simd::setActiveIsa(isa);
    EXPECT_EQ(pcJobCheckpoint(false), want) << "inline, " << simd::isaName(isa);
    EXPECT_EQ(pcJobCheckpoint(true), want) << "over MW, " << simd::isaName(isa);
  }
}

TEST(ParallelRunner, PCMatchesSequentialToo) {
  auto obj = test::noisySphere(2, 5.0);
  const auto start = test::simpleStart(2);
  core::PCOptions opts;
  opts.common.termination.tolerance = 1e-2;
  opts.common.termination.maxIterations = 80;
  opts.common.sampling.maxSamplesPerVertex = 50'000;

  const auto sequential = core::runPointToPoint(obj, start, opts);
  const auto parallel = runSimplexOverMW(obj, start, opts, MWRunConfig{.workers = 4});
  EXPECT_EQ(parallel.optimization.best, sequential.best);
  EXPECT_EQ(parallel.optimization.iterations, sequential.iterations);
}

TEST(ParallelRunner, MultipleClientsPerWorkerStillIdentical) {
  auto obj = test::noisySphere(2, 5.0);
  const auto start = test::simpleStart(2);
  core::MaxNoiseOptions opts;
  opts.common.termination.tolerance = 1e-2;
  opts.common.termination.maxIterations = 60;
  opts.common.sampling.maxSamplesPerVertex = 20'000;

  const auto sequential = core::runMaxNoise(obj, start, opts);
  const auto parallel =
      runSimplexOverMW(obj, start, opts, MWRunConfig{.workers = 3, .clientsPerWorker = 4});
  EXPECT_EQ(parallel.optimization.best, sequential.best);
  EXPECT_EQ(parallel.optimization.totalSamples, sequential.totalSamples);
}

TEST(ParallelRunner, DefaultWorkerCountIsDPlusThree) {
  auto obj = test::noisySphere(2, 1.0);
  const auto start = test::simpleStart(2);
  core::DetOptions opts;
  opts.common.termination.maxIterations = 10;
  opts.common.termination.tolerance = 0.0;
  const auto run = runSimplexOverMW(obj, start, opts, MWRunConfig{});
  EXPECT_EQ(run.allocation.workers(), 5);  // d=2 => d+3
  EXPECT_GT(run.messagesSent, 0u);
  EXPECT_GT(run.tasksCompleted, 0u);
}

TEST(ParallelRunner, RejectsBadClientCount) {
  auto obj = test::noisySphere(2, 1.0);
  const auto start = test::simpleStart(2);
  core::DetOptions opts;
  EXPECT_THROW(
      (void)runSimplexOverMW(obj, start, opts, MWRunConfig{.workers = 2, .clientsPerWorker = 0}),
      std::invalid_argument);
}

TEST(ParallelRunner, CommunicationScalesWithWork) {
  auto obj = test::noisySphere(2, 1.0);
  const auto start = test::simpleStart(2);
  core::DetOptions small;
  small.common.termination.maxIterations = 5;
  small.common.termination.tolerance = 0.0;
  core::DetOptions large;
  large.common.termination.maxIterations = 50;
  large.common.termination.tolerance = 0.0;
  const auto a = runSimplexOverMW(obj, start, small, MWRunConfig{.workers = 2});
  const auto b = runSimplexOverMW(obj, start, large, MWRunConfig{.workers = 2});
  EXPECT_GT(b.messagesSent, a.messagesSent);
}

/// Run MN over an in-process world whose one worker rank nobody serves and
/// return the seconds until the master gives up on the silent fleet.
double secondsUntilSilentFleetThrows(std::int64_t shardMinSamples) {
  auto obj = test::noisySphere(2, 1.0);
  const auto start = test::simpleStart(2);
  core::MaxNoiseOptions opts;
  opts.common.sampling.shardMinSamples = shardMinSamples;
  mw::CommWorld comm(2);
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_THROW((void)mw::runSimplexOverTransport(obj, start, opts, comm,
                                                 MWRunConfig{.recvTimeoutSeconds = 0.5}),
               std::runtime_error);
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

TEST(ParallelRunner, RecvTimeoutBoundsASilentFleet) {
  EXPECT_LT(secondsUntilSilentFleetThrows(0), 5.0);
}

TEST(ParallelRunner, RecvTimeoutBoundsASilentFleetWhileSharding) {
  EXPECT_LT(secondsUntilSilentFleetThrows(64), 5.0);
}

}  // namespace
