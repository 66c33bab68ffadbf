#include "mw/vertex_server.hpp"

#include <algorithm>
#include <stdexcept>

namespace sfopt::mw {

VertexServer::VertexServer(const noise::StochasticObjective& objective, int clients)
    : objective_(objective) {
  if (clients < 1) throw std::invalid_argument("VertexServer: clients must be >= 1");
  const auto n = static_cast<std::size_t>(clients);
  jobs_.resize(n);
  partialChunks_.resize(n);
  clientSamples_.assign(n, 0);
  clients_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    clients_.emplace_back([this, i] { clientLoop(i); });
  }
}

VertexServer::~VertexServer() {
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  jobReady_.notify_all();
  for (auto& t : clients_) t.join();
}

std::vector<stats::Welford> VertexServer::runBatchChunks(
    const core::SamplingBackend::BatchRequest& request) {
  if (request.count < 0) {
    throw std::invalid_argument("VertexServer::runBatchChunks: negative count");
  }
  if (request.count == 0) return {};
  const auto n = static_cast<std::int64_t>(clients_.size());
  const std::int64_t totalChunks = core::evalChunkCount(request.count);
  std::unique_lock lock(mutex_);
  // Hand out whole chunks contiguously; the first (totalChunks % n)
  // clients take one extra chunk.  Only the batch's final chunk can be
  // partial, and it always lands at the end of the last loaded client.
  const std::int64_t base = totalChunks / n;
  const std::int64_t extra = totalChunks % n;
  std::int64_t chunkFirst = 0;
  for (std::int64_t i = 0; i < n; ++i) {
    const std::int64_t myChunks = base + (i < extra ? 1 : 0);
    const std::int64_t sampleOffset = chunkFirst * core::kEvalChunkSamples;
    const std::int64_t myCount =
        myChunks == 0
            ? 0
            : std::min(myChunks * core::kEvalChunkSamples, request.count - sampleOffset);
    jobs_[static_cast<std::size_t>(i)] =
        ClientJob{{request.x.begin(), request.x.end()},
                  request.vertexId,
                  request.startIndex + static_cast<std::uint64_t>(sampleOffset),
                  myCount};
    partialChunks_[static_cast<std::size_t>(i)].clear();
    chunkFirst += myChunks;
  }
  ++generation_;
  remaining_ = static_cast<int>(n);
  jobReady_.notify_all();
  jobDone_.wait(lock, [this] { return remaining_ == 0; });
  std::vector<stats::Welford> chunks;
  chunks.reserve(static_cast<std::size_t>(totalChunks));
  for (const auto& part : partialChunks_) {
    chunks.insert(chunks.end(), part.begin(), part.end());
  }
  return chunks;
}

void VertexServer::clientLoop(std::size_t clientIndex) {
  std::uint64_t seen = 0;
  for (;;) {
    ClientJob job;
    {
      std::unique_lock lock(mutex_);
      jobReady_.wait(lock, [&] { return stopping_ || generation_ > seen; });
      if (stopping_) return;
      seen = generation_;
      job = jobs_[clientIndex];
    }
    // The "simulation": sample the objective outside the lock.  Each
    // client's range starts on the batch's chunk grid, so its chunks are
    // the batch's canonical chunks; their moments (SIMD-dispatched) depend
    // only on the chunk's sample stream, never on which client or worker
    // computed it.
    std::vector<stats::Welford> chunkPartials;
    core::sampleChunks(objective_, job.x, job.vertexId, job.startIndex, job.count,
                       [&chunkPartials](std::span<const double> chunk) {
                         chunkPartials.push_back(core::accumulateEvalChunk(chunk));
                       });
    {
      std::lock_guard lock(mutex_);
      partialChunks_[clientIndex] = std::move(chunkPartials);
      clientSamples_[clientIndex] += job.count;
      if (--remaining_ == 0) jobDone_.notify_all();
    }
  }
}

std::vector<std::int64_t> VertexServer::clientSampleCounts() const {
  std::lock_guard lock(mutex_);
  return clientSamples_;
}

}  // namespace sfopt::mw
