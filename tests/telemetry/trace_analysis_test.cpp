#include "telemetry/trace_analysis.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace {

using namespace sfopt::telemetry;

Event span(std::string name, std::uint64_t id, std::uint64_t parent,
           std::uint64_t trace, double start, double duration) {
  Event e;
  e.type = "span";
  e.name = std::move(name);
  e.id = id;
  e.parent = parent;
  e.trace = trace;
  e.time = start;
  e.duration = duration;
  return e;
}

Event clockEvent(int rank, double offset, double rtt) {
  Event e;
  e.type = "clock";
  e.name = "fleet.clock";
  e.numFields = {{"rank", static_cast<double>(rank)},
                 {"offset_seconds", offset},
                 {"rtt_seconds", rtt}};
  return e;
}

constexpr std::uint64_t kWorkerIdBase = (1ULL << 40);

/// One healthy shard: lifecycle root -> queue + remote -> worker.execute
/// (on a worker clock 5 s ahead of the master) -> folded terminal.
std::vector<Event> healthyTrace(std::uint64_t trace = 1) {
  std::vector<Event> events;
  Event root = span("shard.lifecycle", 10 * trace, 0, trace, 1.0, 2.0);
  root.strFields = {{"outcome", "ok"}};
  events.push_back(root);
  events.push_back(span("shard.queue", 10 * trace + 1, 10 * trace, trace, 1.0, 0.1));
  Event remote = span("shard.remote", 10 * trace + 2, 10 * trace, trace, 1.1, 1.5);
  remote.strFields = {{"outcome", "ok"}};
  remote.numFields = {{"rank", 1.0}};
  events.push_back(remote);
  Event exec = span("worker.execute", kWorkerIdBase + trace, 10 * trace + 2, trace,
                    /*start on worker clock=*/6.3, 1.0);
  exec.strFields = {{"outcome", "ok"}};
  exec.numFields = {{"rank", 1.0}};
  events.push_back(exec);
  events.push_back(span("shard.folded", 10 * trace + 3, 10 * trace, trace, 2.7, 0.0));
  return events;
}

TEST(TraceAnalysis, ReconstructsHealthySpanTree) {
  auto events = healthyTrace();
  events.push_back(clockEvent(1, 5.0, 0.01));

  const TraceReport report = analyzeTraceEvents(events);
  for (const auto& p : report.problems) ADD_FAILURE() << p;
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.traces, 1u);
  EXPECT_EQ(report.dispatched, 1u);
  EXPECT_EQ(report.folded, 1u);
  EXPECT_EQ(report.requeues, 0u);
  EXPECT_TRUE(report.workerSpansSeen);

  EXPECT_DOUBLE_EQ(report.queueSeconds, 0.1);
  EXPECT_DOUBLE_EQ(report.executeSeconds, 1.0);
  EXPECT_DOUBLE_EQ(report.wireSeconds, 0.5);  // remote 1.5 minus execute 1.0
  // Fold delay: remote ends at 1.1 + 1.5 = 2.6, terminal at 2.7.
  EXPECT_NEAR(report.foldSeconds, 0.1, 1e-12);

  ASSERT_EQ(report.workers.size(), 1u);
  EXPECT_EQ(report.workers[0].rank, 1);
  EXPECT_EQ(report.workers[0].tasks, 1u);
  EXPECT_TRUE(report.workers[0].offsetKnown);
  EXPECT_DOUBLE_EQ(report.workers[0].clockOffsetSeconds, 5.0);
}

TEST(TraceAnalysis, MedianOffsetCorrectsWorkerClock) {
  auto events = healthyTrace();
  // Three samples; the median (5.0) must win over the outlier.
  events.push_back(clockEvent(1, 4.9, 0.01));
  events.push_back(clockEvent(1, 5.0, 0.01));
  events.push_back(clockEvent(1, 25.0, 0.50));

  const TraceReport report = analyzeTraceEvents(events);
  ASSERT_EQ(report.workers.size(), 1u);
  EXPECT_DOUBLE_EQ(report.workers[0].clockOffsetSeconds, 5.0);
  // worker.execute starts at 6.3 on the worker clock -> 1.3 on the
  // master's; the run wall span must reflect corrected times (master
  // spans run 1.0..3.0 here, so the corrected execute stays inside).
  EXPECT_NEAR(report.wallSeconds, 2.0, 1e-12);
}

TEST(TraceAnalysis, OrphanWorkerSpanIsFlagged) {
  auto events = healthyTrace();
  events.push_back(span("worker.execute", kWorkerIdBase + 99, /*parent=*/4242,
                        /*trace=*/1, 5.0, 0.1));
  const TraceReport report = analyzeTraceEvents(events);
  EXPECT_FALSE(report.ok());
  ASSERT_FALSE(report.problems.empty());
  EXPECT_NE(report.problems[0].find("orphan worker.execute"), std::string::npos);
}

TEST(TraceAnalysis, MissingRootAndTerminalAreFlagged) {
  std::vector<Event> events;
  Event remote = span("shard.remote", 12, 10, /*trace=*/3, 1.0, 1.0);
  remote.strFields = {{"outcome", "ok"}};
  events.push_back(remote);

  const TraceReport report = analyzeTraceEvents(events);
  EXPECT_FALSE(report.ok());
  bool missingRoot = false;
  bool missingTerminal = false;
  for (const auto& p : report.problems) {
    missingRoot |= p.find("missing shard.lifecycle root") != std::string::npos;
    missingTerminal |= p.find("no terminal marker") != std::string::npos;
  }
  EXPECT_TRUE(missingRoot);
  EXPECT_TRUE(missingTerminal);
}

TEST(TraceAnalysis, RequeuedDispatchCountsAndStaysComplete) {
  auto events = healthyTrace();
  // A first, failed dispatch attempt of the same shard: remote ended with
  // outcome=lost and a second queue wait before the retry.
  Event lost = span("shard.remote", 15, 10, /*trace=*/1, 0.5, 0.4);
  lost.strFields = {{"outcome", "lost"}};
  lost.numFields = {{"rank", 2.0}};
  events.push_back(lost);
  events.push_back(span("shard.queue", 16, 10, 1, 0.5, 0.2));
  // Another failed attempt, which the worker reported as a task error.
  Event error = span("shard.remote", 17, 10, /*trace=*/1, 0.7, 0.2);
  error.strFields = {{"outcome", "error"}};
  error.numFields = {{"rank", 3.0}};
  events.push_back(error);
  events.push_back(span("shard.queue", 18, 10, 1, 0.9, 0.1));

  const TraceReport report = analyzeTraceEvents(events);
  for (const auto& p : report.problems) ADD_FAILURE() << p;
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.dispatched, 3u);
  EXPECT_EQ(report.requeues, 2u);
  EXPECT_EQ(report.folded, 1u);
}

TEST(TraceAnalysis, AbandonedSpeculativeTaskIsLegitimatelyTerminalLess) {
  std::vector<Event> events;
  Event root = span("shard.lifecycle", 50, 0, /*trace=*/7, 1.0, 0.5);
  root.strFields = {{"outcome", "abandoned"}};
  events.push_back(root);

  const TraceReport report = analyzeTraceEvents(events);
  for (const auto& p : report.problems) ADD_FAILURE() << p;
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.abandoned, 1u);
  EXPECT_EQ(report.dispatched, 0u);
}

TEST(TraceAnalysis, DiscardedStaleCompletionIsTerminal) {
  std::vector<Event> events;
  Event root = span("shard.lifecycle", 10, 0, /*trace=*/2, 1.0, 1.0);
  root.strFields = {{"outcome", "ok"}};
  events.push_back(root);
  events.push_back(span("shard.queue", 11, 10, 2, 1.0, 0.1));
  Event remote = span("shard.remote", 12, 10, 2, 1.1, 0.8);
  remote.strFields = {{"outcome", "ok"}};
  remote.numFields = {{"rank", 1.0}};
  events.push_back(remote);
  Event disc = span("shard.discarded", 13, 0, 2, 2.0, 0.0);
  disc.strFields = {{"reason", "stale"}};
  events.push_back(disc);

  const TraceReport report = analyzeTraceEvents(events);
  for (const auto& p : report.problems) ADD_FAILURE() << p;
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.discarded, 1u);
  EXPECT_EQ(report.folded, 0u);
}

/// One healthy shard whose ids live in a job's trace namespace, the way
/// the multi-tenant service mints tickets: (jobId << 40) | sequence.
std::vector<Event> namespacedTrace(std::uint64_t job, std::uint64_t seq) {
  const std::uint64_t trace = (job << kTraceNamespaceShift) | seq;
  std::vector<Event> events;
  Event root = span("shard.lifecycle", trace * 16, 0, trace, 1.0, 1.0);
  root.strFields = {{"outcome", "ok"}};
  events.push_back(root);
  events.push_back(span("shard.queue", trace * 16 + 1, trace * 16, trace, 1.0, 0.1));
  Event remote = span("shard.remote", trace * 16 + 2, trace * 16, trace, 1.1, 0.8);
  remote.strFields = {{"outcome", "ok"}};
  remote.numFields = {{"rank", 1.0}};
  events.push_back(remote);
  events.push_back(span("shard.folded", trace * 16 + 3, trace * 16, trace, 2.0, 0.0));
  return events;
}

Event jobRootSpan(std::uint64_t job, double start, double duration,
                  const std::string& outcome) {
  Event e = span("service.job", job, 0, job << kTraceNamespaceShift, start, duration);
  e.strFields = {{"outcome", outcome}};
  e.numFields = {{"job", static_cast<double>(job)}};
  return e;
}

TEST(TraceAnalysis, MultiJobCaptureGroupsByTraceNamespace) {
  std::vector<Event> events;
  for (const auto& e : namespacedTrace(1, 1)) events.push_back(e);
  for (const auto& e : namespacedTrace(1, 2)) events.push_back(e);
  for (const auto& e : namespacedTrace(2, 3)) events.push_back(e);
  events.push_back(jobRootSpan(1, 0.5, 3.0, "done"));
  events.push_back(jobRootSpan(2, 0.7, 2.0, "cancelled"));

  const TraceReport report = analyzeTraceEvents(events);
  for (const auto& p : report.problems) ADD_FAILURE() << p;
  EXPECT_TRUE(report.multiJob());
  ASSERT_EQ(report.namespaces.size(), 2u);
  EXPECT_EQ(report.namespaces[0].ns, 1u);
  EXPECT_EQ(report.namespaces[0].traces, 2u);
  EXPECT_EQ(report.namespaces[0].folded, 2u);
  EXPECT_TRUE(report.namespaces[0].jobSpanSeen);
  EXPECT_EQ(report.namespaces[0].jobOutcome, "done");
  EXPECT_DOUBLE_EQ(report.namespaces[0].jobSeconds, 3.0);
  EXPECT_EQ(report.namespaces[1].ns, 2u);
  EXPECT_EQ(report.namespaces[1].traces, 1u);
  EXPECT_EQ(report.namespaces[1].jobOutcome, "cancelled");
  // The job roots are lifecycle markers, not shard traces.
  EXPECT_EQ(report.traces, 3u);
}

TEST(TraceAnalysis, LegacySingleTenantCaptureIsNotMultiJob) {
  const TraceReport report = analyzeTraceEvents(healthyTrace());
  EXPECT_FALSE(report.multiJob());
  ASSERT_EQ(report.namespaces.size(), 1u);
  EXPECT_EQ(report.namespaces[0].ns, 0u);
}

TEST(TraceAnalysis, NamespaceProblemsAreAttributedToTheirJob) {
  // Job 1 is healthy, job 2's shard never got a terminal span.
  std::vector<Event> events;
  for (const auto& e : namespacedTrace(1, 1)) events.push_back(e);
  const std::uint64_t badTrace = (2ULL << kTraceNamespaceShift) | 2;
  Event root = span("shard.lifecycle", badTrace * 16, 0, badTrace, 1.0, 1.0);
  root.strFields = {{"outcome", "ok"}};
  events.push_back(root);

  const TraceReport report = analyzeTraceEvents(events);
  EXPECT_FALSE(report.ok());
  ASSERT_EQ(report.namespaces.size(), 2u);
  EXPECT_EQ(report.namespaces[0].problems, 0u);
  EXPECT_GE(report.namespaces[1].problems, 1u);
}

TEST(TraceAnalysis, StragglerListIsSortedAndBounded) {
  std::vector<Event> events;
  for (std::uint64_t t = 1; t <= 4; ++t) {
    for (Event e : healthyTrace(t)) {
      if (e.name == "shard.lifecycle") e.duration = static_cast<double>(t);
      events.push_back(std::move(e));
    }
  }
  const TraceReport report = analyzeTraceEvents(events, /*topStragglers=*/2);
  ASSERT_EQ(report.stragglers.size(), 2u);
  EXPECT_EQ(report.stragglers[0].traceId, 4u);
  EXPECT_EQ(report.stragglers[1].traceId, 3u);
  EXPECT_DOUBLE_EQ(report.stragglers[0].totalSeconds, 4.0);
}

}  // namespace
