#include "mw/mw_driver.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <thread>
#include <vector>

#include "mw/mw_task.hpp"
#include "mw/mw_worker.hpp"
#include "telemetry/sink.hpp"
#include "telemetry/telemetry.hpp"

namespace {

using namespace sfopt::mw;

/// Toy task: square an integer.
class SquareTask final : public MWTask {
 public:
  SquareTask() = default;
  explicit SquareTask(std::int64_t v) : value_(v) {}

  void packInput(MessageBuffer& buf) const override { buf.pack(value_); }
  void unpackInput(MessageBuffer& buf) override { value_ = buf.unpackInt64(); }
  void packResult(MessageBuffer& buf) const override { buf.pack(result_); }
  void unpackResult(MessageBuffer& buf) override { result_ = buf.unpackInt64(); }

  std::int64_t value_ = 0;
  std::int64_t result_ = 0;
};

/// Toy worker implementing the square service.
class SquareWorker final : public MWWorker {
 public:
  using MWWorker::MWWorker;

 protected:
  void executeTask(MessageBuffer& in, MessageBuffer& out) override {
    SquareTask t;
    t.unpackInput(in);
    t.result_ = t.value_ * t.value_;
    t.packResult(out);
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
  std::vector<SquareTask> tasks;
  for (std::int64_t i = 0; i < 20; ++i) tasks.emplace_back(i);
  std::vector<MWTask*> ptrs;
  for (auto& t : tasks) ptrs.push_back(&t);
  driver.executeTasks(ptrs);
  for (std::int64_t i = 0; i < 20; ++i) {
    EXPECT_EQ(tasks[static_cast<std::size_t>(i)].result_, i * i);
  }
  EXPECT_EQ(driver.tasksCompleted(), 20u);
  driver.shutdown();
}

TEST(MWDriver, EmptyBatchIsNoop) {
  CommWorld comm(2);
  Pool pool(comm, 1);
  MWDriver driver(comm);
  auto results = driver.executeBuffers({});
  EXPECT_TRUE(results.empty());
  driver.shutdown();
}

TEST(MWDriver, ResultsInTaskOrderDespiteDynamicScheduling) {
  CommWorld comm(3);
  Pool pool(comm, 2);
  MWDriver driver(comm);
  std::vector<MessageBuffer> inputs;
  for (std::int64_t i = 0; i < 50; ++i) {
    MessageBuffer b;
    b.pack(i);
    inputs.push_back(std::move(b));
  }
  auto results = driver.executeBuffers(std::move(inputs));
  ASSERT_EQ(results.size(), 50u);
  for (std::int64_t i = 0; i < 50; ++i) {
    EXPECT_EQ(results[static_cast<std::size_t>(i)].unpackInt64(), i * i);
  }
  driver.shutdown();
}

TEST(MWDriver, MoreTasksThanWorkers) {
  CommWorld comm(2);  // single worker
  Pool pool(comm, 1);
  MWDriver driver(comm);
  std::vector<SquareTask> tasks;
  for (std::int64_t i = 0; i < 7; ++i) tasks.emplace_back(i + 100);
  std::vector<MWTask*> ptrs;
  for (auto& t : tasks) ptrs.push_back(&t);
  driver.executeTasks(ptrs);
  for (const auto& t : tasks) EXPECT_EQ(t.result_, t.value_ * t.value_);
  driver.shutdown();
}

TEST(MWDriver, MultipleBatchesReuseWorkers) {
  CommWorld comm(3);
  Pool pool(comm, 2);
  MWDriver driver(comm);
  for (int round = 0; round < 5; ++round) {
    SquareTask t(round);
    MWTask* p = &t;
    driver.executeTasks({&p, 1});
    EXPECT_EQ(t.result_, static_cast<std::int64_t>(round) * round);
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
  EXPECT_THROW((void)driver.executeBuffers({}), std::logic_error);
}

TEST(MWDriver, RecvTimeoutThrowsWithTasksOutstanding) {
  // No worker ever answers: the dispatch succeeds but the receive loop's
  // backstop must fire instead of blocking forever.
  CommWorld comm(2);
  MWDriver driver(comm);
  driver.setRecvTimeout(0.05);
  SquareTask task(3);
  std::vector<MWTask*> ptrs = {&task};
  EXPECT_THROW(driver.executeTasks(ptrs), std::runtime_error);
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
  std::vector<SquareTask> tasks;
  for (std::int64_t i = 1; i <= 3; ++i) tasks.emplace_back(i);
  std::vector<MWTask*> ptrs;
  for (auto& t : tasks) ptrs.push_back(&t);
  driver.executeTasks(ptrs);

  for (std::int64_t i = 1; i <= 3; ++i) {
    EXPECT_EQ(tasks[static_cast<std::size_t>(i - 1)].result_, i * i);
  }
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
  SquareTask task(3);
  std::vector<MWTask*> ptrs = {&task};
  EXPECT_THROW(driver.executeTasks(ptrs), std::runtime_error);
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
    SquareTask t;
    t.unpackInput(in);
    t.result_ = t.value_ * t.value_;
    t.packResult(out);
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

TEST(MWDriver, BlockingBatchLeavesAsyncTasksToDrain) {
  // A blocking batch waits for its own ids only: completions of tasks
  // submitted before it stay queued for drain() instead of being
  // discarded as stale by the batch's receive loop.
  CommWorld comm(3);
  Pool pool(comm, 2);
  MWDriver driver(comm);
  driver.setRecvTimeout(2.0);
  std::map<std::uint64_t, std::int64_t> want;
  for (std::int64_t i = 0; i < 3; ++i) {
    MessageBuffer b;
    b.pack(i + 20);
    want[driver.submit(std::move(b))] = (i + 20) * (i + 20);
  }
  std::vector<MessageBuffer> inputs;
  for (std::int64_t i = 0; i < 5; ++i) {
    MessageBuffer b;
    b.pack(i);
    inputs.push_back(std::move(b));
  }
  auto results = driver.executeBuffers(std::move(inputs));
  ASSERT_EQ(results.size(), 5u);
  for (std::int64_t i = 0; i < 5; ++i) {
    EXPECT_EQ(results[static_cast<std::size_t>(i)].unpackInt64(), i * i);
  }
  std::vector<MWDriver::AsyncCompletion> done;
  EXPECT_NO_THROW(done = driver.drain());
  // Stop the workers before asserting, so a failure cannot hang the pool.
  driver.shutdown();
  ASSERT_EQ(done.size(), 3u);
  for (auto& c : done) {
    ASSERT_TRUE(want.contains(c.id));
    EXPECT_EQ(c.payload.unpackInt64(), want.at(c.id));
  }
  EXPECT_EQ(driver.outstanding(), 0u);
  EXPECT_EQ(driver.tasksCompleted(), 8u);
  EXPECT_EQ(driver.staleResultsDiscarded(), 0u);
}

TEST(MWDriver, WorkersCountTheirTasks) {
  CommWorld comm(3);
  Pool pool(comm, 2);
  {
    MWDriver driver(comm);
    std::vector<SquareTask> tasks;
    for (std::int64_t i = 0; i < 10; ++i) tasks.emplace_back(i);
    std::vector<MWTask*> ptrs;
    for (auto& t : tasks) ptrs.push_back(&t);
    driver.executeTasks(ptrs);
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

  std::vector<MessageBuffer> inputs(2);
  inputs[0].pack(std::int64_t{5});
  inputs[1].pack(std::int64_t{6});
  auto results = driver.executeBuffers(std::move(inputs));
  script.join();

  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].unpackInt64(), 25);
  EXPECT_EQ(results[1].unpackInt64(), 36);
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
