// MWDriver task-lifecycle telemetry, including the retry path: a
// fault-injecting worker fails its first N tasks, and the telemetry must
// agree with the driver's own requeue accounting while still covering the
// queue-wait / execute / utilization instruments.

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "mw/mw_driver.hpp"
#include "mw/mw_task.hpp"
#include "mw/mw_worker.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/sink.hpp"
#include "telemetry/telemetry.hpp"

namespace {

using namespace sfopt::mw;
namespace telemetry = sfopt::telemetry;

class EchoTask final : public MWTask {
 public:
  EchoTask() = default;
  explicit EchoTask(std::int64_t v) : value_(v) {}
  void packInput(MessageBuffer& b) const override { b.pack(value_); }
  void unpackInput(MessageBuffer& b) override { value_ = b.unpackInt64(); }
  void packResult(MessageBuffer& b) const override { b.pack(value_); }
  void unpackResult(MessageBuffer& b) override { result_ = b.unpackInt64(); }
  std::int64_t value_ = 0;
  std::int64_t result_ = -1;
};

/// Fails the first `failures` tasks it sees, then behaves.
class FlakyWorker final : public MWWorker {
 public:
  FlakyWorker(CommWorld& comm, Rank rank, int failures)
      : MWWorker(comm, rank), remainingFailures_(failures) {}

 protected:
  void executeTask(MessageBuffer& in, MessageBuffer& out) override {
    EchoTask t;
    t.unpackInput(in);
    if (remainingFailures_-- > 0) {
      throw std::runtime_error("injected failure");
    }
    t.packResult(out);
  }

 private:
  int remainingFailures_;
};

struct Pool {
  Pool(CommWorld& comm, int workers, int failuresEach) {
    for (int w = 0; w < workers; ++w) {
      objs.push_back(std::make_unique<FlakyWorker>(comm, w + 1, failuresEach));
      // The thread holds the worker, not the vector: the next push_back may
      // reallocate it while the thread starts.
      threads.emplace_back([worker = objs.back().get()] { worker->run(); });
    }
  }
  ~Pool() {
    for (auto& t : threads) t.join();
  }
  std::vector<std::unique_ptr<FlakyWorker>> objs;
  std::vector<std::thread> threads;
};

class CaptureSink final : public telemetry::EventSink {
 public:
  void emit(const telemetry::Event& e) override { events.push_back(e); }
  std::vector<telemetry::Event> events;
};

TEST(MWTelemetry, RetriesAreCountedAndTaskLifecycleIsObserved) {
  constexpr int kWorkers = 2;
  constexpr int kFailuresEach = 2;
  constexpr std::int64_t kTasks = 12;

  CaptureSink sink;
  telemetry::Telemetry tel(sink);
  CommWorld comm(kWorkers + 1);
  Pool pool(comm, kWorkers, kFailuresEach);
  MWDriver driver(comm);
  driver.setTelemetry(&tel);

  std::vector<EchoTask> tasks;
  for (std::int64_t i = 0; i < kTasks; ++i) tasks.emplace_back(i);
  std::vector<MWTask*> ptrs;
  for (auto& t : tasks) ptrs.push_back(&t);
  driver.executeTasks(ptrs);
  driver.shutdown();

  for (std::int64_t i = 0; i < kTasks; ++i) {
    EXPECT_EQ(tasks[static_cast<std::size_t>(i)].result_, i);
  }

  // Every injected failure surfaced as a requeue, and the telemetry spine
  // saw exactly what the driver's own accounting saw.
  auto& reg = tel.metrics();
  EXPECT_EQ(driver.tasksRequeued(), kWorkers * kFailuresEach);
  EXPECT_EQ(reg.counter("mw.tasks_requeued").value(),
            static_cast<std::int64_t>(driver.tasksRequeued()));
  EXPECT_EQ(reg.counter("mw.tasks_completed").value(),
            static_cast<std::int64_t>(driver.tasksCompleted()));
  EXPECT_EQ(reg.counter("mw.batches").value(), 1);
  EXPECT_DOUBLE_EQ(reg.gauge("mw.workers").value(), kWorkers);

  // Dispatches = completions + requeues: each failed attempt was itself a
  // dispatch, and the queue-wait/execute histograms observed each one.
  const std::int64_t dispatched = reg.counter("mw.tasks_dispatched").value();
  EXPECT_EQ(dispatched, kTasks + kWorkers * kFailuresEach);
  auto& queueWait = reg.histogram("mw.task.queue_wait_seconds",
                                  telemetry::Histogram::exponentialBounds(1e-6, 10.0, 7));
  EXPECT_EQ(queueWait.count(), dispatched);
  auto& execute = reg.histogram("mw.task.execute_seconds",
                                telemetry::Histogram::exponentialBounds(1e-6, 10.0, 7));
  EXPECT_EQ(execute.count(), kTasks);
  EXPECT_GE(execute.sum(), 0.0);

  // One utilization observation per worker per batch, each in [0, 1]-ish
  // (busy time cannot exceed batch wall time).
  auto& util = reg.histogram("mw.worker.utilization",
                             {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0});
  EXPECT_EQ(util.count(), kWorkers);
  EXPECT_GE(util.sum(), 0.0);
  EXPECT_LE(util.sum(), static_cast<double>(kWorkers) + 1e-9);

  // The batch span is emitted once with the task/worker shape attached.
  std::int64_t batchSpans = 0;
  for (const auto& e : sink.events) {
    if (e.type == "span" && e.name == "mw.batch") {
      ++batchSpans;
      EXPECT_EQ(e.num("tasks"), static_cast<double>(kTasks));
      EXPECT_EQ(e.num("workers"), static_cast<double>(kWorkers));
      EXPECT_GE(e.duration, 0.0);
    }
  }
  EXPECT_EQ(batchSpans, 1);
}

TEST(MWTelemetry, CleanRunRecordsNoRequeues) {
  CaptureSink sink;
  telemetry::Telemetry tel(sink);
  CommWorld comm(3);
  Pool pool(comm, 2, 0);
  MWDriver driver(comm);
  driver.setTelemetry(&tel);

  std::vector<EchoTask> tasks;
  for (std::int64_t i = 0; i < 8; ++i) tasks.emplace_back(i);
  std::vector<MWTask*> ptrs;
  for (auto& t : tasks) ptrs.push_back(&t);
  driver.executeTasks(ptrs);
  driver.shutdown();

  EXPECT_EQ(tel.metrics().counter("mw.tasks_requeued").value(), 0);
  EXPECT_EQ(tel.metrics().counter("mw.tasks_completed").value(), 8);
  EXPECT_EQ(tel.metrics().counter("mw.tasks_dispatched").value(), 8);
}

}  // namespace
