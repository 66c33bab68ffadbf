// MWDriver task-lifecycle telemetry, including the retry path: a
// fault-injecting worker fails its first N tasks, and the telemetry must
// agree with the driver's own requeue accounting while still covering the
// queue-wait / execute / idle-fraction instruments.

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <span>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/eval_scheduler.hpp"
#include "mw/mw_driver.hpp"
#include "mw/mw_worker.hpp"
#include "mw/sampling_service.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/sink.hpp"
#include "telemetry/telemetry.hpp"
#include "tests/core/test_helpers.hpp"
#include "tests/mw/driver_test_helpers.hpp"

namespace {

using namespace sfopt::mw;
namespace telemetry = sfopt::telemetry;

/// Echoes its int64 input.  Fails the first `failures` tasks it sees,
/// then behaves.
class FlakyWorker final : public MWWorker {
 public:
  FlakyWorker(CommWorld& comm, Rank rank, int failures)
      : MWWorker(comm, rank), remainingFailures_(failures) {}

 protected:
  void executeTask(MessageBuffer& in, MessageBuffer& out) override {
    const std::int64_t value = in.unpackInt64();
    if (remainingFailures_-- > 0) {
      throw std::runtime_error("injected failure");
    }
    out.pack(value);
  }

 private:
  int remainingFailures_;
};

/// Runs SamplingTasks inline.  Fails the first `failures` tasks it sees,
/// then behaves.
class FlakySamplingWorker final : public MWWorker {
 public:
  FlakySamplingWorker(CommWorld& comm, Rank rank, int failures,
                      const sfopt::noise::StochasticObjective& objective)
      : MWWorker(comm, rank), remainingFailures_(failures), objective_(objective) {}

 protected:
  void executeTask(MessageBuffer& in, MessageBuffer& out) override {
    SamplingTask task;
    task.unpackInput(in);
    if (remainingFailures_-- > 0) {
      throw std::runtime_error("injected failure");
    }
    task.setChunks(sfopt::core::sampleChunks(
        objective_, {task.x(), task.vertexId(), task.startIndex(), task.count()}));
    task.packResult(out);
  }

 private:
  int remainingFailures_;
  const sfopt::noise::StochasticObjective& objective_;
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

  const auto echoes = sfopt::test::submitAndDrain(driver, sfopt::test::integers(0, kTasks));
  driver.shutdown();

  EXPECT_EQ(echoes, sfopt::test::integers(0, kTasks));

  // Every injected failure surfaced as a requeue, and the telemetry spine
  // saw exactly what the driver's own accounting saw.
  auto& reg = tel.metrics();
  EXPECT_EQ(driver.tasksRequeued(), kWorkers * kFailuresEach);
  EXPECT_EQ(reg.counter("mw.tasks_requeued").value(),
            static_cast<std::int64_t>(driver.tasksRequeued()));
  EXPECT_EQ(reg.counter("mw.tasks_completed").value(),
            static_cast<std::int64_t>(driver.tasksCompleted()));
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
}

TEST(MWTelemetry, BlockingBatchFoldsEachTaskOnceAndSamplesIdleFraction) {
  // A blocking scheduler batch over the MW backend ends each task's span
  // tree with exactly one root-level shard.folded marker under the task's
  // trace id — a requeued task included — and the driver samples the
  // fleet's idle fraction at every completion.
  constexpr std::int64_t kTasks = 6;
  CaptureSink sink;
  telemetry::Telemetry tel(sink);
  const auto objective = sfopt::test::noisySphere(2, 1.0);
  CommWorld comm(3);
  FlakySamplingWorker w1(comm, 1, 1, objective);
  FlakySamplingWorker w2(comm, 2, 1, objective);
  std::thread t1([&w1] { w1.run(); });
  std::thread t2([&w2] { w2.run(); });
  MWDriver driver(comm);
  driver.setTelemetry(&tel);
  MWSamplingBackend backend(driver);
  sfopt::core::EvalScheduler scheduler(backend, {.telemetry = &tel});

  const std::vector<double> x{0.5, -0.5};
  std::vector<sfopt::core::SamplingBackend::BatchRequest> batch;
  for (std::int64_t v = 0; v < kTasks; ++v) {
    batch.push_back({x, static_cast<std::uint64_t>(v), 0, 16});
  }
  const auto results = scheduler.evaluate(batch);
  driver.shutdown();
  t1.join();
  t2.join();
  for (const auto& r : results) EXPECT_EQ(r.count(), 16);

  std::set<std::uint64_t> roots;
  std::set<std::uint64_t> folded;
  for (const auto& e : sink.events) {
    if (e.type != "span") continue;
    if (e.name == "shard.lifecycle") {
      EXPECT_EQ(e.str("outcome").value_or(""), "ok");
      roots.insert(e.trace);
    } else if (e.name == "shard.folded") {
      EXPECT_EQ(e.parent, 0u);
      EXPECT_TRUE(folded.insert(e.trace).second) << "trace " << e.trace << " folded twice";
    }
  }
  EXPECT_EQ(roots.size(), static_cast<std::size_t>(kTasks));
  EXPECT_EQ(folded, roots);

  auto& idle = tel.metrics().histogram("mw.worker_idle_fraction",
                                       {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0});
  EXPECT_EQ(idle.count(), kTasks);
}

TEST(MWTelemetry, CleanRunRecordsNoRequeues) {
  CaptureSink sink;
  telemetry::Telemetry tel(sink);
  CommWorld comm(3);
  Pool pool(comm, 2, 0);
  MWDriver driver(comm);
  driver.setTelemetry(&tel);

  (void)sfopt::test::submitAndDrain(driver, sfopt::test::integers(0, 8));
  driver.shutdown();

  EXPECT_EQ(tel.metrics().counter("mw.tasks_requeued").value(), 0);
  EXPECT_EQ(tel.metrics().counter("mw.tasks_completed").value(), 8);
  EXPECT_EQ(tel.metrics().counter("mw.tasks_dispatched").value(), 8);
}

}  // namespace
