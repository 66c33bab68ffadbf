#include "mw/vertex_server.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace sfopt::mw {

VertexServer::VertexServer(const noise::StochasticObjective& objective, std::int64_t clients)
    : objective_(objective) {
  if (clients < 1 || clients > kMaxVertexClients) {
    throw std::invalid_argument("VertexServer: clients must be in 1.." +
                                std::to_string(kMaxVertexClients));
  }
  const auto n = static_cast<std::size_t>(clients);
  clientSamples_.assign(n, 0);
  partialChunks_.resize(n);
  errors_.resize(n);
  helpers_.reserve(n - 1);
  for (std::size_t i = 1; i < n; ++i) {
    helpers_.emplace_back([this, i] { helperLoop(i); });
  }
}

VertexServer::~VertexServer() {
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  batchReady_.notify_all();
  for (auto& t : helpers_) t.join();
}

std::vector<stats::Welford> VertexServer::runBatchChunks(
    const core::SamplingBackend::BatchRequest& request) {
  if (request.count < 0) {
    throw std::invalid_argument("VertexServer::runBatchChunks: negative count");
  }
  if (request.count == 0) return {};
  if (!helpers_.empty()) {
    {
      std::lock_guard lock(mutex_);
      batch_ = &request;
      ++generation_;
      remaining_ = helpers_.size();
    }
    batchReady_.notify_all();
  }
  // Client 0's range runs here; the helpers' ranges follow it in the
  // batch's chunk order.
  std::vector<stats::Welford> chunks;
  chunks.reserve(static_cast<std::size_t>(core::evalChunkCount(request.count)));
  std::exception_ptr error;
  try {
    sampleShare(request, 0, chunks);
  } catch (...) {
    error = std::current_exception();
  }
  if (!helpers_.empty()) {
    // Wait even if client 0 threw: the helpers still read `request`.
    std::unique_lock lock(mutex_);
    batchDone_.wait(lock, [this] { return remaining_ == 0; });
    for (std::size_t i = 1; i < partialChunks_.size(); ++i) {
      if (!error) error = errors_[i];
      chunks.insert(chunks.end(), partialChunks_[i].begin(), partialChunks_[i].end());
    }
  }
  if (error) std::rethrow_exception(error);
  return chunks;
}

void VertexServer::sampleShare(const core::SamplingBackend::BatchRequest& request,
                               std::size_t client, std::vector<stats::Welford>& chunks) {
  // Whole chunks are handed out contiguously; the first (chunks % Ns)
  // clients take one extra.  Only the batch's final chunk can be partial,
  // and it always lands at the end of the last loaded client.
  const auto n = static_cast<std::int64_t>(clientSamples_.size());
  const auto i = static_cast<std::int64_t>(client);
  const std::int64_t totalChunks = core::evalChunkCount(request.count);
  const std::int64_t base = totalChunks / n;
  const std::int64_t extra = totalChunks % n;
  const std::int64_t offset = (i * base + std::min(i, extra)) * core::kEvalChunkSamples;
  const std::int64_t myChunks = base + (i < extra ? 1 : 0);
  const std::int64_t count =
      std::max<std::int64_t>(0, std::min(myChunks * core::kEvalChunkSamples,
                                         request.count - offset));
  // The "simulation".  The range starts on the batch's chunk grid, so its
  // chunks are the batch's canonical chunks; their moments (SIMD-
  // dispatched) depend only on the chunk's sample stream, never on which
  // client or worker computed it.
  core::sampleChunks(objective_, request.x, request.vertexId,
                     request.startIndex + static_cast<std::uint64_t>(offset), count,
                     [&chunks](std::span<const double> chunk) {
                       chunks.push_back(core::accumulateEvalChunk(chunk));
                     });
  clientSamples_[client] += count;
}

void VertexServer::helperLoop(std::size_t client) {
  std::uint64_t seen = 0;
  for (;;) {
    const core::SamplingBackend::BatchRequest* request = nullptr;
    {
      std::unique_lock lock(mutex_);
      batchReady_.wait(lock, [&] { return stopping_ || generation_ != seen; });
      if (stopping_) return;
      seen = generation_;
      request = batch_;
    }
    std::vector<stats::Welford> chunks;
    std::exception_ptr error;
    try {
      sampleShare(*request, client, chunks);
    } catch (...) {
      error = std::current_exception();
    }
    {
      std::lock_guard lock(mutex_);
      partialChunks_[client] = std::move(chunks);
      errors_[client] = error;
      if (--remaining_ == 0) batchDone_.notify_one();
    }
  }
}

}  // namespace sfopt::mw
