#include "service/job.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <variant>

#include "core/algorithms.hpp"
#include "mw/message_buffer.hpp"
#include "mw/parallel_runner.hpp"
#include "mw/vertex_server.hpp"

namespace {

using namespace sfopt;

service::JobSpec sampleSpec() {
  service::JobSpec spec;
  spec.objective.function = "sphere";
  spec.objective.dim = 3;
  spec.objective.sigma0 = 0.5;
  spec.objective.seed = 42;
  spec.objective.clients = 2;
  spec.algorithm = "anderson";
  spec.k1 = 1.25;
  spec.k2 = 0.75;
  spec.termination.tolerance = 1e-3;
  spec.termination.maxIterations = 55;
  spec.termination.maxSamples = 123456;
  spec.termination.maxTime = 9.5;
  spec.shardMinSamples = 128;
  spec.speculate = true;
  spec.initial = {{0.0, 0.0, 0.0}, {1.0, 0.0, 0.0}, {0.0, 1.0, 0.0}, {0.0, 0.0, 1.0}};
  return spec;
}

TEST(JobProtocol, JobSpecRoundTripsThroughTheWire) {
  const service::JobSpec spec = sampleSpec();
  mw::MessageBuffer buf;
  spec.pack(buf);
  const service::JobSpec back = service::JobSpec::unpack(buf);
  EXPECT_EQ(back.objective.function, "sphere");
  EXPECT_EQ(back.objective.dim, 3);
  EXPECT_EQ(back.objective.sigma0, 0.5);
  EXPECT_EQ(back.objective.seed, 42u);
  EXPECT_EQ(back.objective.clients, 2);
  EXPECT_EQ(back.algorithm, "anderson");
  EXPECT_EQ(back.k1, 1.25);
  EXPECT_EQ(back.k2, 0.75);
  EXPECT_EQ(back.termination.tolerance, 1e-3);
  EXPECT_EQ(back.termination.maxIterations, 55);
  EXPECT_EQ(back.termination.maxSamples, 123456);
  EXPECT_EQ(back.termination.maxTime, 9.5);
  EXPECT_EQ(back.shardMinSamples, 128);
  EXPECT_TRUE(back.speculate);
  ASSERT_EQ(back.initial.size(), 4u);
  EXPECT_EQ(back.initial[2], (core::Point{0.0, 1.0, 0.0}));
  EXPECT_NO_THROW(back.validate());
}

TEST(JobProtocol, ValidateRejectsMalformedSpecs) {
  {
    service::JobSpec s = sampleSpec();
    s.objective.function = "nope";
    EXPECT_THROW(s.validate(), std::runtime_error);
  }
  {
    service::JobSpec s = sampleSpec();
    s.algorithm = "bogus";
    EXPECT_THROW(s.validate(), std::runtime_error);
  }
  {
    service::JobSpec s = sampleSpec();
    s.initial.pop_back();  // needs dim + 1 points
    EXPECT_THROW(s.validate(), std::runtime_error);
  }
  {
    service::JobSpec s = sampleSpec();
    s.initial.back().pop_back();  // a point of the wrong dimension
    EXPECT_THROW(s.validate(), std::runtime_error);
  }
  {
    service::JobSpec s = sampleSpec();
    s.objective.function = "powell";  // powell is dim-4 only
    EXPECT_THROW(s.validate(), std::runtime_error);
  }
}

TEST(JobProtocol, ValidateBoundsTheClientCount) {
  // Ns sizes every worker's vertex server, one thread per client past the
  // first, so a spec past the cap is refused before any worker sees it.
  service::JobSpec s = sampleSpec();
  s.objective.clients = mw::kMaxVertexClients;
  EXPECT_NO_THROW(s.validate());
  for (const std::int64_t bad : {mw::kMaxVertexClients + 1, std::int64_t{4294967297}}) {
    s.objective.clients = bad;
    EXPECT_THROW(s.validate(), std::runtime_error) << bad;
  }
}

TEST(JobProtocol, ValidateRejectsNonFiniteOrNegativeSigma0) {
  for (const double bad : {std::nan(""), std::numeric_limits<double>::infinity(), -0.25}) {
    service::JobSpec s = sampleSpec();
    s.objective.sigma0 = bad;
    EXPECT_THROW(s.validate(), std::runtime_error) << bad;
  }
  service::JobSpec quiet = sampleSpec();
  quiet.objective.sigma0 = 0.0;
  EXPECT_NO_THROW(quiet.validate());
}

TEST(JobProtocol, MakeOptionsMapsAlgorithmAndPipelineKnobs) {
  service::JobSpec spec = sampleSpec();
  spec.algorithm = "pcmn";
  spec.k = 2.5;
  const mw::AlgorithmOptions options = spec.makeOptions();
  const auto* pc = std::get_if<core::PCOptions>(&options);
  ASSERT_NE(pc, nullptr);
  EXPECT_EQ(pc->k, 2.5);
  EXPECT_TRUE(pc->maxNoiseGate);
  EXPECT_EQ(pc->common.termination.maxIterations, 55);
  EXPECT_EQ(pc->common.sampling.shardMinSamples, 128);
  EXPECT_TRUE(pc->common.sampling.speculate);

  spec.algorithm = "anderson";
  const mw::AlgorithmOptions andersonOptions = spec.makeOptions();
  const auto* anderson = std::get_if<core::AndersonOptions>(&andersonOptions);
  ASSERT_NE(anderson, nullptr);
  EXPECT_EQ(anderson->k1, 1.25);
  EXPECT_EQ(anderson->k2, 0.75);
}

TEST(JobProtocol, OutcomeRoundTripsAndRebuildsAResult) {
  service::JobOutcome outcome;
  outcome.reason = core::TerminationReason::SampleLimit;
  outcome.best = {1.5, -2.5};
  outcome.bestEstimate = 0.125;
  outcome.bestTrue = 0.25;
  outcome.iterations = 77;
  outcome.totalSamples = 4242;
  outcome.elapsedTime = 12.5;
  outcome.counters.reflections = 9;
  outcome.counters.expansions = 3;
  outcome.counters.contractions = 5;
  outcome.counters.collapses = 1;

  mw::MessageBuffer buf;
  outcome.pack(buf);
  const service::JobOutcome back = service::JobOutcome::unpack(buf);
  const core::OptimizationResult res = back.toResult();
  EXPECT_EQ(res.reason, core::TerminationReason::SampleLimit);
  EXPECT_EQ(res.best, (core::Point{1.5, -2.5}));
  EXPECT_EQ(res.bestEstimate, 0.125);
  ASSERT_TRUE(res.bestTrue.has_value());
  EXPECT_EQ(*res.bestTrue, 0.25);
  EXPECT_EQ(res.iterations, 77);
  EXPECT_EQ(res.totalSamples, 4242);
  EXPECT_EQ(res.elapsedTime, 12.5);
  EXPECT_EQ(res.counters.reflections, 9);
  EXPECT_EQ(res.counters.collapses, 1);

  // fromResult(toResult()) is the identity on the marshaled fields.
  const service::JobOutcome again = service::JobOutcome::fromResult(res);
  EXPECT_EQ(again.bestEstimate, outcome.bestEstimate);
  EXPECT_EQ(again.totalSamples, outcome.totalSamples);
}

TEST(JobProtocol, StatusAndResultRepliesRoundTrip) {
  service::StatusReply status;
  status.jobId = 7;
  status.state = service::JobState::Rejected;
  status.detail = "service at capacity";
  status.retryable = true;
  status.queued = 4;
  status.running = 2;
  mw::MessageBuffer sbuf;
  status.pack(sbuf);
  const service::StatusReply sback = service::StatusReply::unpack(sbuf);
  EXPECT_EQ(sback.jobId, 7u);
  EXPECT_EQ(sback.state, service::JobState::Rejected);
  EXPECT_EQ(sback.detail, "service at capacity");
  EXPECT_TRUE(sback.retryable);
  EXPECT_EQ(sback.queued, 4);
  EXPECT_EQ(sback.running, 2);

  service::ResultReply result;
  result.jobId = 9;
  result.state = service::JobState::Cancelled;
  result.detail = "cancelled by client";
  mw::MessageBuffer rbuf;
  result.pack(rbuf);
  const service::ResultReply rback = service::ResultReply::unpack(rbuf);
  EXPECT_EQ(rback.jobId, 9u);
  EXPECT_EQ(rback.state, service::JobState::Cancelled);
  EXPECT_EQ(rback.detail, "cancelled by client");
  EXPECT_FALSE(rback.outcome.has_value());
}

TEST(JobProtocol, TraceNamespacePartitionsByJobId) {
  EXPECT_EQ(service::jobTraceNamespace(0), 0u);
  EXPECT_EQ(service::jobTraceNamespace(1), 1ULL << 40);
  EXPECT_EQ(service::jobTraceNamespace(3) >> service::kJobTraceShift, 3u);
  // A ticket keeps its job's namespace for any realistic sequence number.
  const std::uint64_t ticket = service::jobTraceNamespace(5) | 123456789ULL;
  EXPECT_EQ(ticket >> service::kJobTraceShift, 5u);
}

TEST(JobProtocol, ToStringCoversEveryState) {
  EXPECT_EQ(service::toString(service::JobState::Queued), "queued");
  EXPECT_EQ(service::toString(service::JobState::Running), "running");
  EXPECT_EQ(service::toString(service::JobState::Done), "done");
  EXPECT_EQ(service::toString(service::JobState::Cancelled), "cancelled");
  EXPECT_EQ(service::toString(service::JobState::Failed), "failed");
  EXPECT_EQ(service::toString(service::JobState::Rejected), "rejected");
  EXPECT_EQ(service::toString(service::JobState::Unknown), "unknown");
}

}  // namespace
