#include "mw/sampling_service.hpp"

#include <gtest/gtest.h>

#include <thread>

#include "core/eval_scheduler.hpp"
#include "core/sampling_context.hpp"
#include "simd/dispatch.hpp"
#include "tests/core/test_helpers.hpp"

namespace {

using namespace sfopt;
using namespace sfopt::mw;

TEST(SamplingTask, InputRoundTrip) {
  const std::vector<double> x{1.5, -2.5, 3.5};
  SamplingTask t(core::SamplingBackend::BatchRequest{x, 11, 100, 25});
  MessageBuffer buf;
  t.packInput(buf);
  SamplingTask u;
  u.unpackInput(buf);
  EXPECT_EQ(u.x(), x);
  EXPECT_EQ(u.vertexId(), 11u);
  EXPECT_EQ(u.startIndex(), 100u);
  EXPECT_EQ(u.count(), 25);
}

TEST(SamplingTask, ResultRoundTripPreservesMoments) {
  SamplingTask t;
  stats::Welford w;
  w.add(1.0);
  w.add(2.0);
  w.add(4.0);
  t.setChunks({w});
  MessageBuffer buf;
  t.packResult(buf);
  SamplingTask u;
  u.unpackResult(buf);
  ASSERT_EQ(u.chunks().size(), 1u);
  EXPECT_EQ(u.chunks()[0].count(), 3);
  EXPECT_DOUBLE_EQ(u.chunks()[0].mean(), w.mean());
  EXPECT_DOUBLE_EQ(u.chunks()[0].variance(), w.variance());
}

struct ServiceFixture {
  explicit ServiceFixture(const noise::StochasticObjective& obj, int workers, int clients)
      : comm(workers + 1) {
    for (int w = 0; w < workers; ++w) {
      workerObjs.push_back(std::make_unique<SamplingWorker>(comm, w + 1, obj, clients));
      // The thread holds the worker, not the vector: the next push_back may
      // reallocate it while the thread starts.
      threads.emplace_back([worker = workerObjs.back().get()] { worker->run(); });
    }
    driver = std::make_unique<MWDriver>(comm);
  }
  ~ServiceFixture() {
    driver->shutdown();
    for (auto& t : threads) t.join();
  }
  CommWorld comm;
  std::vector<std::unique_ptr<SamplingWorker>> workerObjs;
  std::vector<std::thread> threads;
  std::unique_ptr<MWDriver> driver;
};

TEST(MWSamplingBackend, SingleBatchMatchesInline) {
  auto obj = test::noisySphere(2, 3.0);
  ServiceFixture fx(obj, 3, 2);
  MWSamplingBackend backend(*fx.driver);
  core::EvalScheduler scheduler(backend, {});

  const std::vector<double> x{2.0, -1.0};
  const core::SamplingBackend::BatchRequest req{x, 21, 0, 64};
  const auto got = scheduler.evaluate({&req, 1}).front();

  // The same 64 samples drawn by an inline context's vertex 21.
  core::SamplingContext inlineCtx(obj, {.firstVertexId = 21});
  const auto vertex = inlineCtx.createVertex(x, 64);
  ASSERT_EQ(vertex->id(), 21u);
  test::expectBitwiseEqual(got, vertex->accumulator());
}

TEST(MWSamplingBackend, ManyBatchesInOrder) {
  auto obj = test::noisySphere(2, 1.0);
  ServiceFixture fx(obj, 4, 1);
  MWSamplingBackend backend(*fx.driver);
  core::EvalScheduler scheduler(backend, {});

  std::vector<std::vector<double>> points;
  std::vector<core::SamplingBackend::BatchRequest> reqs;
  for (std::uint64_t v = 0; v < 10; ++v) {
    points.push_back({static_cast<double>(v), 0.0});
  }
  for (std::uint64_t v = 0; v < 10; ++v) {
    reqs.push_back({points[v], v, 0, 16});
  }
  const auto got = scheduler.evaluate(reqs);
  ASSERT_EQ(got.size(), 10u);
  core::SamplingContext inlineCtx(obj);
  for (std::uint64_t v = 0; v < 10; ++v) {
    const auto vertex = inlineCtx.createVertex(points[v], 16);
    ASSERT_EQ(vertex->id(), v);
    test::expectBitwiseEqual(got[v], vertex->accumulator());
  }
}

TEST(MWSamplingBackend, ZeroCountBatchesNeverLeaveTheMaster) {
  auto obj = test::noisySphere(2, 1.0);
  ServiceFixture fx(obj, 2, 1);
  MWSamplingBackend backend(*fx.driver);
  core::EvalScheduler scheduler(backend, {});
  const std::vector<double> x{1.0, 1.0};
  const std::vector<core::SamplingBackend::BatchRequest> reqs = {
      {x, 1, 0, 0}, {x, 2, 0, 16}, {x, 3, 0, 0}, {x, 4, 8, 16}};
  const auto got = scheduler.evaluate(reqs);
  ASSERT_EQ(got.size(), 4u);
  EXPECT_EQ(got[0].count(), 0);
  EXPECT_EQ(got[2].count(), 0);
  // Only the two real batches became worker tasks, mapped back by slot.
  EXPECT_EQ(fx.driver->tasksCompleted(), 2u);
  // Single-chunk batches: the result is the chunk reduction of the sample
  // stream, bitwise (see simd::welfordChunk).
  std::vector<double> samples2;
  for (std::uint64_t i = 0; i < 16; ++i) samples2.push_back(obj.sample(x, {2, i}));
  const auto ref = simd::welfordChunk(samples2);
  EXPECT_EQ(got[1].count(), 16);
  EXPECT_EQ(got[1].mean(), ref.mean());
  std::vector<double> samples4;
  for (std::uint64_t i = 8; i < 24; ++i) samples4.push_back(obj.sample(x, {4, i}));
  const auto ref4 = simd::welfordChunk(samples4);
  EXPECT_EQ(got[3].mean(), ref4.mean());
}

TEST(MWSamplingBackend, AllZeroCountBatchesSkipDispatchEntirely) {
  auto obj = test::noisySphere(2, 1.0);
  ServiceFixture fx(obj, 2, 1);
  MWSamplingBackend backend(*fx.driver);
  core::EvalScheduler scheduler(backend, {});
  const std::vector<double> x{0.0, 0.0};
  const std::vector<core::SamplingBackend::BatchRequest> reqs = {{x, 1, 0, 0}, {x, 2, 4, 0}};
  const auto got = scheduler.evaluate(reqs);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].count(), 0);
  EXPECT_EQ(got[1].count(), 0);
  EXPECT_EQ(fx.driver->tasksCompleted(), 0u);
}

TEST(MWSamplingBackend, SubmitPollDeliversCanonicalChunks) {
  auto obj = test::noisySphere(2, 2.0);
  ServiceFixture fx(obj, 2, 2);
  MWSamplingBackend backend(*fx.driver);
  EXPECT_GE(backend.parallelism(), 1);

  const std::vector<double> x{0.5, -0.5};
  const std::uint64_t ticket = backend.submit({x, 9, 0, 150});
  std::vector<core::SamplingBackend::Completion> got;
  while (got.empty()) {
    auto ready = backend.poll(5.0);
    got.insert(got.end(), ready.begin(), ready.end());
  }
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].ticket, ticket);
  ASSERT_EQ(got[0].chunks.size(), 3u);  // 150 samples -> chunks of 64, 64, 22
  // Every chunk is the reduction of its index range's sample stream,
  // bitwise (simd::welfordChunk), even though two clients computed the
  // batch.
  std::uint64_t index = 0;
  for (const auto& chunk : got[0].chunks) {
    std::vector<double> samples;
    for (std::int64_t i = 0; i < chunk.count(); ++i) {
      samples.push_back(obj.sample(x, {9, index + static_cast<std::uint64_t>(i)}));
    }
    const auto ref = simd::welfordChunk(samples);
    EXPECT_EQ(chunk.count(), index + 64 <= 150 ? 64 : 22);
    EXPECT_EQ(chunk.mean(), ref.mean());
    EXPECT_EQ(chunk.sumSquaredDeviations(), ref.sumSquaredDeviations());
    index += static_cast<std::uint64_t>(chunk.count());
  }
}

TEST(MWSamplingBackend, WorkersShareTheLoad) {
  auto obj = test::noisySphere(2, 1.0);
  ServiceFixture fx(obj, 3, 1);
  MWSamplingBackend backend(*fx.driver);
  core::EvalScheduler scheduler(backend, {});
  const std::vector<double> x{0.0, 0.0};
  std::vector<core::SamplingBackend::BatchRequest> reqs;
  for (std::uint64_t v = 0; v < 30; ++v) reqs.push_back({x, v, 0, 4});
  (void)scheduler.evaluate(reqs);
  // Dynamic dispatch should engage more than one worker for 30 tasks.
  int engaged = 0;
  for (const auto& w : fx.workerObjs) {
    if (w->tasksExecuted() > 0) ++engaged;
  }
  EXPECT_GE(engaged, 2);
}

}  // namespace
