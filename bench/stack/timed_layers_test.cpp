// The bench decorators must be invisible to the layers they time, and
// their counts must agree with the counters those layers keep themselves.

#include <gtest/gtest.h>

#include <array>
#include <filesystem>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "mw/comm.hpp"
#include "mw/sampling_service.hpp"
#include "stack/stacks.hpp"
#include "stack/timed_layers.hpp"

namespace {

using namespace sfopt;
using namespace sfopt::bench;

const std::filesystem::path kScratch = std::filesystem::current_path() / "stack-test";

class StackDecorators : public ::testing::TestWithParam<std::string_view> {};

TEST_P(StackDecorators, TracedJobIsBitwiseTheUntracedJob) {
  const Workload& w = *findWorkload(GetParam());
  PassPlan one;
  one.quota.assign(static_cast<std::size_t>(w.clients), 0);
  one.quota[0] = 1;
  const Pass plain = runPass(w, 11, one, kScratch, nullptr);
  Tracing tracing;
  const Pass traced = runPass(w, 11, one, kScratch, &tracing);
  ASSERT_EQ(plain.jobs.size(), 1u);
  ASSERT_EQ(traced.jobs.size(), 1u);
  ASSERT_TRUE(plain.jobs[0].ok) << plain.jobs[0].error;
  ASSERT_TRUE(traced.jobs[0].ok) << traced.jobs[0].error;
  EXPECT_TRUE(sameOutcome(traced.jobs[0].result, plain.jobs[0].result, false));
  EXPECT_TRUE(sameOutcome(traced.jobs[0].result, oracleRun(w.makeJob(11, 0)),
                          w.stack == Stack::Inline));

  // The decorated objective computed every sample the job consumed; only
  // speculation may compute more.
  const std::int64_t consumed = traced.jobs[0].result.totalSamples;
  const bool speculative = std::visit(
      [](const auto& o) { return o.common.sampling.speculate; }, w.makeJob(11, 0).options);
  if (speculative) {
    EXPECT_GE(tracing.layers.objectiveSamples, consumed);
  } else {
    EXPECT_EQ(tracing.layers.objectiveSamples, consumed);
  }
  if (w.stack != Stack::Inline) {
    EXPECT_GT(tracing.layers.tasks, 0u);
    EXPECT_FALSE(tracing.layers.taskOverheadUs.empty());
  }
}

INSTANTIATE_TEST_SUITE_P(AllStacks, StackDecorators,
                         ::testing::Values("surrogate_inline", "surrogate_tcp",
                                           "md_tcp_speculative", "daemon_durable"),
                         [](const auto& info) { return std::string(info.param); });

TEST(TimedLayers, CountsMatchTheWrappedLayers) {
  const Job job = findWorkload("surrogate_tcp")->makeJob(3, 0);
  mw::CommWorld comm(kFleetWorkers + 1);
  std::array<TransportTally, kFleetWorkers> workerTallies;
  std::vector<std::unique_ptr<TimedObjective>> objectives;
  for (int w = 0; w < kFleetWorkers; ++w) {
    objectives.push_back(std::make_unique<TimedObjective>(*job.objective));
  }
  std::vector<std::thread> workers;
  for (int w = 0; w < kFleetWorkers; ++w) {
    workers.emplace_back([&, w] {
      TimedTransport timed(comm, TimedTransport::Role::Worker,
                           workerTallies[static_cast<std::size_t>(w)]);
      mw::SamplingWorker(timed, w + 1, *objectives[static_cast<std::size_t>(w)], 1).run();
    });
  }
  TransportTally masterTally;
  TimedTransport master(comm, TimedTransport::Role::Master, masterTally);
  const mw::MWRunResult result =
      mw::runSimplexOverTransport(*job.objective, job.start, job.options, master, {});
  for (auto& t : workers) t.join();

  std::uint64_t sent = masterTally.messagesOut;
  std::uint64_t tasks = 0;
  std::int64_t samples = 0;
  for (std::size_t w = 0; w < workerTallies.size(); ++w) {
    sent += workerTallies[w].messagesOut;
    tasks += workerTallies[w].tasksIn;
    samples += objectives[w]->samples();
    EXPECT_EQ(workerTallies[w].perTrace.size(), workerTallies[w].tasksIn);
  }
  EXPECT_EQ(sent, comm.messagesSent());
  EXPECT_EQ(masterTally.messagesIn, sent - masterTally.messagesOut);
  EXPECT_EQ(tasks, result.tasksCompleted);
  EXPECT_EQ(masterTally.perTrace.size(), result.tasksCompleted);
  EXPECT_EQ(samples, result.optimization.totalSamples);
  EXPECT_GT(objectives[0]->busySeconds(), 0.0);
}

}  // namespace
