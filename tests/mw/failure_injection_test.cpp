// Failure-injection tests for the MW runtime: a worker whose executeTask
// throws reports kTagError, and the driver requeues the task on another
// worker — the in-process analogue of the paper's worker-restart handling.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "mw/mw_driver.hpp"
#include "mw/mw_worker.hpp"
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

}  // namespace
