// Failure-injection tests for the MW runtime: a worker whose executeTask
// throws reports kTagError, and the driver requeues the task on another
// worker — the in-process analogue of the paper's worker-restart handling.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "mw/mw_driver.hpp"
#include "mw/mw_worker.hpp"
#include "mw/sampling_service.hpp"
#include "tests/core/test_helpers.hpp"
#include "tests/mw/driver_test_helpers.hpp"

namespace {

using namespace sfopt::mw;
using sfopt::test::integers;
using sfopt::test::submitAndDrain;

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

/// Always fails.
class BrokenWorker final : public MWWorker {
 public:
  using MWWorker::MWWorker;

 protected:
  void executeTask(MessageBuffer&, MessageBuffer&) override {
    throw std::runtime_error("permanently broken");
  }
};

template <typename W, typename... Args>
struct Pool {
  Pool(CommWorld& comm, int workers, Args... args) {
    for (int w = 0; w < workers; ++w) {
      objs.push_back(std::make_unique<W>(comm, w + 1, args...));
      // The thread holds the worker, not the vector: the next push_back may
      // reallocate it while the thread starts.
      threads.emplace_back([worker = objs.back().get()] { worker->run(); });
    }
  }
  ~Pool() {
    for (auto& t : threads) t.join();
  }
  std::vector<std::unique_ptr<W>> objs;
  std::vector<std::thread> threads;
};

TEST(FailureInjection, FlakyWorkerTasksAreRequeuedAndComplete) {
  CommWorld comm(3);
  Pool<FlakyWorker, int> pool(comm, 2, 2);  // each worker fails its first 2 tasks
  MWDriver driver(comm);
  const auto echoes = submitAndDrain(driver, integers(0, 12));
  for (std::int64_t i = 0; i < 12; ++i) {
    EXPECT_EQ(echoes[static_cast<std::size_t>(i)], i);
  }
  EXPECT_GT(driver.tasksRequeued(), 0u);
  EXPECT_EQ(driver.tasksCompleted(), 12u);
  driver.shutdown();
}

TEST(FailureInjection, WorkerStaysUpAfterFailure) {
  CommWorld comm(2);
  Pool<FlakyWorker, int> pool(comm, 1, 1);  // single worker, fails once
  MWDriver driver(comm);
  // With only one worker the driver must eventually hand the task back to
  // the same (previously failing) worker rather than deadlock.
  EXPECT_EQ(submitAndDrain(driver, {42}), std::vector<std::int64_t>{42});
  EXPECT_EQ(pool.objs[0]->tasksFailed(), 1u);
  EXPECT_EQ(pool.objs[0]->tasksExecuted(), 1u);
  driver.shutdown();
}

TEST(FailureInjection, PermanentFailureSurfacesAfterRetries) {
  CommWorld comm(3);
  Pool<BrokenWorker> pool(comm, 2);
  MWDriver driver(comm);
  driver.setMaxRetries(2);
  EXPECT_THROW((void)submitAndDrain(driver, {1}), std::runtime_error);
  driver.shutdown();
}

TEST(FailureInjection, HealthyTasksUnaffectedByOneBadApple) {
  // One worker that always fails mixed with two healthy ones: the batch
  // still completes and the failures are absorbed as requeues.
  CommWorld comm(4);
  std::vector<std::unique_ptr<MWWorker>> objs;
  std::vector<std::thread> threads;
  objs.push_back(std::make_unique<BrokenWorker>(comm, 1));
  objs.push_back(std::make_unique<FlakyWorker>(comm, 2, 0));
  objs.push_back(std::make_unique<FlakyWorker>(comm, 3, 0));
  for (std::size_t i = 0; i < objs.size(); ++i) {
    threads.emplace_back([&objs, i] { objs[i]->run(); });
  }
  MWDriver driver(comm);
  driver.setMaxRetries(10);
  const auto echoes = submitAndDrain(driver, integers(0, 30));
  for (std::int64_t i = 0; i < 30; ++i) {
    EXPECT_EQ(echoes[static_cast<std::size_t>(i)], i);
  }
  driver.shutdown();
  for (auto& t : threads) t.join();
}

TEST(FailureInjection, ThrowingObjectiveIsReportedNotFatal) {
  // SamplingWorkers whose objective throws for vertex 7: each attempt
  // comes back as kTagError (one requeue per attempt) until the retry
  // budget runs out, and every worker stays up to take the shutdown.
  // With Ns = 2 the exception is thrown on the receiving thread (client
  // 0) and on the helper alike.
  auto inner = sfopt::test::noisySphere(2, 1.0);
  sfopt::test::PoisonedObjective obj(inner, 7, {0, 64});
  CommWorld comm(3);
  Pool<SamplingWorker, const sfopt::noise::StochasticObjective&, int> pool(comm, 2, obj, 2);
  MWDriver driver(comm);
  driver.setMaxRetries(2);

  const std::vector<double> x{1.0, -1.0};
  MessageBuffer buf;
  SamplingTask(sfopt::core::SamplingBackend::BatchRequest{x, 7, 0, 128}).packInput(buf);
  (void)driver.submit(std::move(buf));
  try {
    (void)driver.drain();
    ADD_FAILURE() << "expected the task to fail";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("task failed after 2 retries: poisoned sample 0"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(driver.tasksRequeued(), 3u);
  // Each worker counts a failure before it reports it, so all three are in.
  EXPECT_EQ(pool.objs[0]->tasksFailed() + pool.objs[1]->tasksFailed(), 3u);
  EXPECT_EQ(pool.objs[0]->tasksExecuted() + pool.objs[1]->tasksExecuted(), 0u);
  driver.shutdown();
}

}  // namespace
