#include "mw/vertex_server.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <mutex>
#include <numeric>
#include <set>
#include <string>
#include <thread>

#include "tests/core/test_helpers.hpp"

namespace {

using namespace sfopt;
using core::SamplingBackend;
using mw::VertexServer;

/// The batch's moments computed from per-sample draws on the canonical
/// chunk grid: one accumulateEvalChunk per 64 samples from startIndex,
/// folded in chunk order.  Independent of VertexServer and of sampleRun.
stats::Welford chunkedReference(const noise::StochasticObjective& obj,
                                const std::vector<double>& x, std::uint64_t stream,
                                std::uint64_t startIndex, std::int64_t count) {
  std::vector<stats::Welford> chunks;
  for (std::int64_t first = 0; first < count; first += core::kEvalChunkSamples) {
    const std::int64_t take = std::min(core::kEvalChunkSamples, count - first);
    std::vector<double> samples;
    for (std::int64_t i = 0; i < take; ++i) {
      const auto index = startIndex + static_cast<std::uint64_t>(first + i);
      samples.push_back(obj.sample(x, {stream, index}));
    }
    chunks.push_back(core::accumulateEvalChunk(samples));
  }
  return core::foldEvalChunks(chunks);
}

stats::Welford runFolded(VertexServer& server, const SamplingBackend::BatchRequest& request) {
  return core::foldEvalChunks(server.runBatchChunks(request));
}

void expectBitwiseEqual(const stats::Welford& got, const stats::Welford& want) {
  EXPECT_EQ(got.count(), want.count());
  EXPECT_EQ(got.mean(), want.mean());
  EXPECT_EQ(got.sumSquaredDeviations(), want.sumSquaredDeviations());
}

/// Delegates to `inner` and records which thread drew each sample index.
class ThreadRecordingObjective final : public noise::StochasticObjective {
 public:
  explicit ThreadRecordingObjective(const noise::StochasticObjective& inner) : inner_(inner) {}

  [[nodiscard]] std::size_t dimension() const override { return inner_.dimension(); }
  [[nodiscard]] double sampleDuration() const override { return inner_.sampleDuration(); }
  [[nodiscard]] double sample(std::span<const double> x, noise::SampleKey key) const override {
    {
      std::lock_guard lock(mutex_);
      drawnOn_[key.index] = std::this_thread::get_id();
    }
    return inner_.sample(x, key);
  }

  /// The threads that drew sample indices [first, last).
  [[nodiscard]] std::set<std::thread::id> threads(std::uint64_t first, std::uint64_t last) const {
    std::lock_guard lock(mutex_);
    std::set<std::thread::id> ids;
    for (auto i = first; i < last; ++i) ids.insert(drawnOn_.at(i));
    return ids;
  }

 private:
  const noise::StochasticObjective& inner_;
  mutable std::mutex mutex_;
  mutable std::map<std::uint64_t, std::thread::id> drawnOn_;
};

TEST(VertexServer, RejectsZeroClients) {
  auto obj = test::noisySphere(2, 1.0);
  EXPECT_THROW(VertexServer(obj, 0), std::invalid_argument);
}

TEST(VertexServer, RejectsMoreClientsThanTheCap) {
  // Refused before any helper thread starts.
  auto obj = test::noisySphere(2, 1.0);
  EXPECT_THROW(VertexServer(obj, mw::kMaxVertexClients + 1), std::invalid_argument);
}

TEST(VertexServer, BatchMatchesInlineSampling) {
  auto obj = test::noisySphere(2, 2.0);
  const std::vector<double> x{1.0, -1.0};
  const stats::Welford ref = chunkedReference(obj, x, 5, 0, 300);

  for (int clients : {1, 2, 3, 7}) {
    SCOPED_TRACE(testing::Message() << clients << " clients");
    VertexServer server(obj, clients);
    expectBitwiseEqual(runFolded(server, {x, 5, 0, 300}), ref);
  }
}

TEST(VertexServer, RespectsStartIndex) {
  auto obj = test::noisySphere(2, 2.0);
  const std::vector<double> x{0.5, 0.5};
  VertexServer server(obj, 2);
  stats::Welford merged = runFolded(server, {x, 9, 0, 50});
  merged.merge(runFolded(server, {x, 9, 50, 50}));

  stats::Welford ref = chunkedReference(obj, x, 9, 0, 50);
  ref.merge(chunkedReference(obj, x, 9, 50, 50));
  expectBitwiseEqual(merged, ref);
}

TEST(VertexServer, ZeroCountBatch) {
  auto obj = test::noisySphere(2, 1.0);
  VertexServer server(obj, 3);
  const std::vector<double> x{0.0, 0.0};
  EXPECT_TRUE(server.runBatchChunks({x, 1, 0, 0}).empty());
  EXPECT_EQ(runFolded(server, {x, 1, 0, 0}).count(), 0);
}

TEST(VertexServer, CountSmallerThanClientPool) {
  auto obj = test::noisySphere(2, 1.0);
  VertexServer server(obj, 8);
  const std::vector<double> x{0.0, 0.0};
  expectBitwiseEqual(runFolded(server, {x, 2, 0, 3}), chunkedReference(obj, x, 2, 0, 3));
}

TEST(VertexServer, LoadIsSplitAcrossClients) {
  auto obj = test::noisySphere(2, 1.0);
  VertexServer server(obj, 4);
  const std::vector<double> x{0.0, 0.0};
  // Whole chunks are handed out: 256 samples = 4 chunks, one per client.
  (void)server.runBatchChunks({x, 3, 0, 256});
  const auto counts = server.clientSampleCounts();
  ASSERT_EQ(counts.size(), 4u);
  EXPECT_EQ(std::accumulate(counts.begin(), counts.end(), std::int64_t{0}), 256);
  for (auto c : counts) EXPECT_EQ(c, 64);
}

TEST(VertexServer, CallerComputesTheFirstShare) {
  auto inner = test::noisySphere(2, 1.0);
  const std::vector<double> x{0.5, -0.5};
  const auto caller = std::this_thread::get_id();
  {
    ThreadRecordingObjective obj(inner);
    VertexServer server(obj, 1);
    expectBitwiseEqual(runFolded(server, {x, 3, 0, 192}), chunkedReference(inner, x, 3, 0, 192));
    EXPECT_EQ(obj.threads(0, 192), std::set<std::thread::id>{caller});
    EXPECT_EQ(server.clientCount(), 1);
    EXPECT_EQ(server.clientSampleCounts(), std::vector<std::int64_t>{192});
  }
  {
    // 192 samples = 3 chunks, one per client: chunk 0 on the caller,
    // chunks 1 and 2 on two different helpers.
    ThreadRecordingObjective obj(inner);
    VertexServer server(obj, 3);
    expectBitwiseEqual(runFolded(server, {x, 3, 0, 192}), chunkedReference(inner, x, 3, 0, 192));
    EXPECT_EQ(obj.threads(0, 64), std::set<std::thread::id>{caller});
    const auto second = obj.threads(64, 128);
    const auto third = obj.threads(128, 192);
    ASSERT_EQ(second.size(), 1u);
    ASSERT_EQ(third.size(), 1u);
    EXPECT_NE(*second.begin(), caller);
    EXPECT_NE(*third.begin(), caller);
    EXPECT_NE(*second.begin(), *third.begin());
    EXPECT_EQ(server.clientCount(), 3);
    EXPECT_EQ(server.clientSampleCounts(), (std::vector<std::int64_t>{64, 64, 64}));
  }
}

TEST(VertexServer, ObjectiveExceptionReachesTheCaller) {
  auto inner = test::noisySphere(2, 1.0);
  const std::vector<double> x{1.0, 2.0};
  struct Case {
    int clients;
    std::vector<std::uint64_t> poisoned;  // sample indices of stream 5 that throw
    std::string what;                     // the lowest-index client's exception
  };
  // At Ns = 3 a 192-sample batch gives each client one chunk: indices
  // 0-63 are the caller's, 64-127 and 128-191 the helpers'.
  const Case cases[] = {
      {1, {130}, "poisoned sample 130"},     {3, {10}, "poisoned sample 10"},
      {3, {130}, "poisoned sample 130"},     {3, {70, 130}, "poisoned sample 70"},
      {3, {10, 130}, "poisoned sample 10"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(testing::Message() << c.clients << " clients, " << c.what);
    test::PoisonedObjective obj(inner, 5, c.poisoned);
    VertexServer server(obj, c.clients);
    for (int round = 0; round < 2; ++round) {
      try {
        (void)server.runBatchChunks({x, 5, 0, 192});
        ADD_FAILURE() << "expected the objective's exception";
      } catch (const std::runtime_error& e) {
        EXPECT_EQ(std::string(e.what()), c.what);
      }
      // The server stays usable: the next clean batch is bitwise right.
      expectBitwiseEqual(runFolded(server, {x, 6, 0, 192}),
                         chunkedReference(inner, x, 6, 0, 192));
    }
  }
}

TEST(VertexServer, ManySequentialBatches) {
  auto obj = test::noisySphere(2, 1.0);
  VertexServer server(obj, 2);
  const std::vector<double> x{1.0, 1.0};
  std::int64_t total = 0;
  for (int i = 0; i < 50; ++i) {
    const auto start = static_cast<std::uint64_t>(total);
    expectBitwiseEqual(runFolded(server, {x, 4, start, 10}),
                       chunkedReference(obj, x, 4, start, 10));
    total += 10;
  }
  const auto counts = server.clientSampleCounts();
  EXPECT_EQ(std::accumulate(counts.begin(), counts.end(), std::int64_t{0}), total);
}

}  // namespace
