#include "mw/mw_driver.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <thread>
#include <vector>

#include "mw/mw_worker.hpp"
#include "telemetry/sink.hpp"
#include "telemetry/telemetry.hpp"
#include "tests/mw/driver_test_helpers.hpp"

namespace {

using namespace sfopt::mw;

using sfopt::test::integers;
using sfopt::test::submitAndDrain;

/// The square of each value.
std::vector<std::int64_t> squares(std::vector<std::int64_t> values) {
  for (std::int64_t& v : values) v *= v;
  return values;
}

/// Toy worker implementing the square service.
class SquareWorker final : public MWWorker {
 public:
  using MWWorker::MWWorker;

 protected:
  void executeTask(MessageBuffer& in, MessageBuffer& out) override {
    const std::int64_t v = in.unpackInt64();
    out.pack(v * v);
  }
};

struct Pool {
  explicit Pool(CommWorld& comm, int workers) {
    for (int w = 0; w < workers; ++w) {
      objs.push_back(std::make_unique<SquareWorker>(comm, w + 1));
      // The thread holds the worker, not the vector: the next push_back may
      // reallocate it while the thread starts.
      threads.emplace_back([worker = objs.back().get()] { worker->run(); });
    }
  }
  ~Pool() {
    for (auto& t : threads) t.join();
  }
  std::vector<std::unique_ptr<SquareWorker>> objs;
  std::vector<std::thread> threads;
};

TEST(MWDriver, RequiresAtLeastOneWorker) {
  CommWorld w(1);
  EXPECT_THROW(MWDriver d(w), std::invalid_argument);
}

TEST(MWDriver, ExecutesTypedTasks) {
  CommWorld comm(4);
  Pool pool(comm, 3);
  MWDriver driver(comm);
  EXPECT_EQ(submitAndDrain(driver, integers(0, 20)), squares(integers(0, 20)));
  EXPECT_EQ(driver.tasksCompleted(), 20u);
  driver.shutdown();
}

TEST(MWDriver, EmptyBatchIsNoop) {
  CommWorld comm(2);
  Pool pool(comm, 1);
  MWDriver driver(comm);
  EXPECT_TRUE(driver.drain().empty());
  EXPECT_TRUE(driver.poll(0.0).empty());
  driver.shutdown();
}

TEST(MWDriver, ResultsInTaskOrderDespiteDynamicScheduling) {
  // Completions arrive in completion order; each carries its submit id, so
  // the id puts every result back in its task's slot.
  CommWorld comm(3);
  Pool pool(comm, 2);
  MWDriver driver(comm);
  const auto got = submitAndDrain(driver, integers(0, 50));
  ASSERT_EQ(got.size(), 50u);
  for (std::int64_t i = 0; i < 50; ++i) {
    EXPECT_EQ(got[static_cast<std::size_t>(i)], i * i);
  }
  driver.shutdown();
}

TEST(MWDriver, MoreTasksThanWorkers) {
  CommWorld comm(2);  // single worker
  Pool pool(comm, 1);
  MWDriver driver(comm);
  EXPECT_EQ(submitAndDrain(driver, integers(100, 7)), squares(integers(100, 7)));
  driver.shutdown();
}

TEST(MWDriver, MultipleBatchesReuseWorkers) {
  CommWorld comm(3);
  Pool pool(comm, 2);
  MWDriver driver(comm);
  for (std::int64_t round = 0; round < 5; ++round) {
    EXPECT_EQ(submitAndDrain(driver, {round}), std::vector<std::int64_t>{round * round});
  }
  EXPECT_EQ(driver.tasksCompleted(), 5u);
  driver.shutdown();
}

TEST(MWDriver, ShutdownIsIdempotentAndExecuteAfterThrows) {
  CommWorld comm(2);
  Pool pool(comm, 1);
  MWDriver driver(comm);
  driver.shutdown();
  driver.shutdown();
  EXPECT_THROW((void)driver.submit(MessageBuffer{}), std::logic_error);
  EXPECT_THROW((void)driver.poll(0.0), std::logic_error);
}

TEST(MWDriver, RecvTimeoutThrowsWithTasksOutstanding) {
  // No worker ever answers: the dispatch succeeds, and a poll willing to
  // wait far longer than the receive timeout must still give up after one
  // silent window instead of blocking.
  CommWorld comm(2);
  MWDriver driver(comm);
  driver.setRecvTimeout(0.05);
  MessageBuffer b;
  b.pack(std::int64_t{3});
  (void)driver.submit(std::move(b));
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_THROW((void)driver.poll(30.0), std::runtime_error);
  EXPECT_LT(std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count(), 5.0);
}

TEST(MWDriver, WorkerLostRequeuesItsTaskOntoSurvivors) {
  CommWorld comm(3);
  // Only rank 2 has a real worker; rank 1 is "lost" via a scripted
  // transport notification already queued when the batch starts.
  SquareWorker survivor(comm, 2);
  std::thread runner([&survivor] { survivor.run(); });
  comm.send(1, 0, sfopt::net::kTagWorkerLost, {});

  MWDriver driver(comm);
  driver.setRecvTimeout(5.0);
  EXPECT_EQ(submitAndDrain(driver, integers(1, 3)), squares(integers(1, 3)));
  EXPECT_EQ(driver.workersLost(), 1u);
  EXPECT_GE(driver.tasksRequeued(), 1u);
  EXPECT_EQ(driver.liveWorkerCount(), 1);
  driver.shutdown();  // skips the dead rank, stops the survivor
  runner.join();
}

TEST(MWDriver, ThrowsWhenEveryWorkerIsLost) {
  CommWorld comm(2);
  comm.send(1, 0, sfopt::net::kTagWorkerLost, {});
  MWDriver driver(comm);
  driver.setRecvTimeout(5.0);
  EXPECT_THROW((void)submitAndDrain(driver, {3}), std::runtime_error);
}

/// Reports kTagError on its first task (MWWorker turns the std::exception
/// into a polite error reply), then behaves.
class FailOnceWorker final : public MWWorker {
 public:
  using MWWorker::MWWorker;

 protected:
  void executeTask(MessageBuffer& in, MessageBuffer& out) override {
    if (!failed_) {
      failed_ = true;
      throw std::runtime_error("transient failure");
    }
    const std::int64_t v = in.unpackInt64();
    out.pack(v * v);
  }

 private:
  bool failed_ = false;
};

TEST(MWDriver, AsyncSubmitAndDrainCompleteEverything) {
  CommWorld comm(3);
  Pool pool(comm, 2);
  MWDriver driver(comm);
  std::map<std::uint64_t, std::int64_t> want;
  for (std::int64_t i = 0; i < 12; ++i) {
    MessageBuffer b;
    b.pack(i);
    want[driver.submit(std::move(b))] = i * i;
  }
  EXPECT_EQ(driver.outstanding(), 12u);
  auto done = driver.drain();
  EXPECT_EQ(driver.outstanding(), 0u);
  ASSERT_EQ(done.size(), 12u);
  for (auto& c : done) {
    ASSERT_TRUE(want.contains(c.id));
    EXPECT_EQ(c.payload.unpackInt64(), want.at(c.id));
  }
  EXPECT_EQ(driver.tasksCompleted(), 12u);
  driver.shutdown();
}

TEST(MWDriver, AsyncPollDeliversIncrementally) {
  CommWorld comm(2);
  Pool pool(comm, 1);
  MWDriver driver(comm);
  std::map<std::uint64_t, std::int64_t> want;
  for (std::int64_t i = 0; i < 5; ++i) {
    MessageBuffer b;
    b.pack(i + 10);
    want[driver.submit(std::move(b))] = (i + 10) * (i + 10);
  }
  std::size_t collected = 0;
  while (collected < 5) {
    auto ready = driver.poll(5.0);
    for (auto& c : ready) {
      EXPECT_EQ(c.payload.unpackInt64(), want.at(c.id));
      ++collected;
    }
  }
  EXPECT_EQ(driver.outstanding(), 0u);
  driver.shutdown();
}

TEST(MWDriver, AsyncErrorReplyIsRequeued) {
  CommWorld comm(3);
  FailOnceWorker flaky(comm, 1);
  SquareWorker steady(comm, 2);
  std::thread t1([&flaky] { flaky.run(); });
  std::thread t2([&steady] { steady.run(); });

  MWDriver driver(comm);
  std::map<std::uint64_t, std::int64_t> want;
  for (std::int64_t i = 1; i <= 6; ++i) {
    MessageBuffer b;
    b.pack(i);
    want[driver.submit(std::move(b))] = i * i;
  }
  auto done = driver.drain();
  ASSERT_EQ(done.size(), 6u);
  for (auto& c : done) EXPECT_EQ(c.payload.unpackInt64(), want.at(c.id));
  EXPECT_GE(driver.tasksRequeued(), 1u);
  driver.shutdown();
  t1.join();
  t2.join();
}

TEST(MWDriver, AsyncWorkerLostRequeuesOntoSurvivors) {
  CommWorld comm(3);
  SquareWorker survivor(comm, 2);
  std::thread runner([&survivor] { survivor.run(); });
  comm.send(1, 0, sfopt::net::kTagWorkerLost, {});

  MWDriver driver(comm);
  driver.setRecvTimeout(5.0);
  std::map<std::uint64_t, std::int64_t> want;
  for (std::int64_t i = 1; i <= 4; ++i) {
    MessageBuffer b;
    b.pack(i);
    want[driver.submit(std::move(b))] = i * i;
  }
  auto done = driver.drain();
  ASSERT_EQ(done.size(), 4u);
  for (auto& c : done) EXPECT_EQ(c.payload.unpackInt64(), want.at(c.id));
  EXPECT_EQ(driver.workersLost(), 1u);
  EXPECT_EQ(driver.liveWorkerCount(), 1);
  driver.shutdown();
  runner.join();
}

TEST(MWDriver, AsyncDrainGivesRequeuedTaskAFreshWindow) {
  // A poll window that carries only an error report (no completion) is
  // recovery in progress, not silence: the requeued task must get a fresh
  // timeout window instead of killing the run with "no worker message".
  CommWorld comm(3);
  MWDriver driver(comm);
  driver.setRecvTimeout(0.6);
  MessageBuffer b;
  b.pack(std::int64_t{5});
  const std::uint64_t id = driver.submit(std::move(b));  // dispatched to rank 1

  std::thread script([&comm, id] {
    // Window 1: rank 1 reports failure — a message, but no completion.
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    MessageBuffer err;
    err.pack(id);
    err.pack(std::string("transient"));
    comm.send(1, 0, kTagError, std::move(err));
    // Window 2: the requeued attempt (now on rank 2) completes.
    std::this_thread::sleep_for(std::chrono::milliseconds(700));
    MessageBuffer res;
    res.pack(id);
    res.pack(std::int64_t{25});
    comm.send(2, 0, kTagResult, std::move(res));
  });

  auto done = driver.drain();
  script.join();
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].id, id);
  EXPECT_EQ(done[0].payload.unpackInt64(), 25);
  EXPECT_EQ(driver.tasksRequeued(), 1u);
  driver.shutdown();
}

TEST(MWDriver, AsyncDrainTimesOutWhenNobodyAnswers) {
  CommWorld comm(2);
  MWDriver driver(comm);
  driver.setRecvTimeout(0.05);
  MessageBuffer b;
  b.pack(std::int64_t{3});
  (void)driver.submit(std::move(b));
  EXPECT_THROW((void)driver.drain(), std::runtime_error);
}

TEST(MWDriver, WorkersCountTheirTasks) {
  CommWorld comm(3);
  Pool pool(comm, 2);
  {
    MWDriver driver(comm);
    (void)submitAndDrain(driver, integers(0, 10));
    driver.shutdown();
  }
  // Sum over workers equals the batch size (load split is dynamic).
  std::uint64_t total = 0;
  for (const auto& w : pool.objs) total += w->tasksExecuted();
  EXPECT_EQ(total, 10u);
}

TEST(MWDriver, DuplicateCompletionsForFoldedTasksAreDiscardedAndCounted) {
  // A fabric that re-delivers frames (or a proxy that duplicates them)
  // hands the driver a second kTagResult / kTagError for a task it already
  // folded.  The duplicates must be discarded and counted — the driver
  // used to throw "result for unknown task id" and kill the whole batch.
  sfopt::telemetry::NoopSink sink;
  sfopt::telemetry::Telemetry spine(sink);
  CommWorld comm(2);
  MWDriver driver(comm);
  driver.setTelemetry(&spine);

  std::thread script([&comm] {
    // Task 1 completes normally on rank 1...
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    MessageBuffer res;
    res.pack(std::uint64_t{1});
    res.pack(std::int64_t{25});
    comm.send(1, 0, kTagResult, std::move(res));
    // ...then the fabric re-delivers the same result frame, and a stale
    // error report for the same id on top of it.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    MessageBuffer dup;
    dup.pack(std::uint64_t{1});
    dup.pack(std::int64_t{25});
    comm.send(1, 0, kTagResult, std::move(dup));
    MessageBuffer err;
    err.pack(std::uint64_t{1});
    err.pack(std::string("ghost failure"));
    comm.send(1, 0, kTagError, std::move(err));
    // Task 2 (dispatched once task 1 folded) completes last, so the
    // duplicates are guaranteed to pass through the dispatch bookkeeping
    // while the batch is still running.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    MessageBuffer res2;
    res2.pack(std::uint64_t{2});
    res2.pack(std::int64_t{36});
    comm.send(1, 0, kTagResult, std::move(res2));
  });

  const auto got = submitAndDrain(driver, {5, 6});
  script.join();

  EXPECT_EQ(got, (std::vector<std::int64_t>{25, 36}));
  EXPECT_EQ(driver.staleResultsDiscarded(), 2u);
  EXPECT_EQ(driver.tasksRequeued(), 0u) << "a stale error report must not requeue";
  EXPECT_EQ(spine.metrics().counter("mw.stale_results_discarded").value(), 2);
  driver.shutdown();
}

TEST(MWDriver, LateResultReorderedAcrossReconnectIsDiscardedOnAsyncPath) {
  // A rank dies holding a task; the task requeues to another rank; THEN
  // the dead rank's result frame arrives (late frames can be reordered
  // across a loss — a healed proxy flushes them after the requeue).  The
  // late frame must not fold, must not free anyone else's slot, and must
  // not disturb the requeued attempt's bookkeeping.
  CommWorld comm(3);
  MWDriver driver(comm);
  driver.setRecvTimeout(5.0);
  MessageBuffer b;
  b.pack(std::int64_t{7});
  const std::uint64_t id = driver.submit(std::move(b));  // dispatched to rank 1

  std::thread script([&comm, id] {
    // Rank 1 is declared lost while holding the task -> requeue to rank 2.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    comm.send(1, 0, sfopt::net::kTagWorkerLost, {});
    // The ghost's result surfaces AFTER the requeue: stale, discard.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    MessageBuffer late;
    late.pack(id);
    late.pack(std::int64_t{49});
    comm.send(1, 0, kTagResult, std::move(late));
    // The requeued attempt on rank 2 is the one that folds.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    MessageBuffer res;
    res.pack(id);
    res.pack(std::int64_t{49});
    comm.send(2, 0, kTagResult, std::move(res));
    // And one more duplicate after the fold, for good measure.
    MessageBuffer dup;
    dup.pack(id);
    dup.pack(std::int64_t{49});
    comm.send(2, 0, kTagResult, std::move(dup));
  });

  auto done = driver.drain();
  // Join first: with nothing outstanding poll() only takes what has already
  // arrived, so the post-fold duplicate must be in the mailbox by then.
  script.join();
  (void)driver.poll(0.3);

  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].id, id);
  EXPECT_EQ(done[0].payload.unpackInt64(), 49);
  EXPECT_EQ(driver.tasksRequeued(), 1u);
  EXPECT_EQ(driver.workersLost(), 1u);
  EXPECT_EQ(driver.staleResultsDiscarded(), 2u);
  driver.shutdown();
}

}  // namespace
