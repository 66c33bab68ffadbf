#include "mw/vertex_server.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

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

TEST(VertexServer, RejectsZeroClients) {
  auto obj = test::noisySphere(2, 1.0);
  EXPECT_THROW(VertexServer(obj, 0), std::invalid_argument);
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
