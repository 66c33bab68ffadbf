#include "core/sampling_backend.hpp"

#include <algorithm>
#include <array>

#include "simd/dispatch.hpp"

namespace sfopt::core {

std::vector<stats::Welford> sampleChunks(const noise::StochasticObjective& objective,
                                         const SamplingBackend::BatchRequest& request) {
  std::vector<stats::Welford> chunks;
  chunks.reserve(static_cast<std::size_t>(evalChunkCount(request.count)));
  std::array<double, kEvalChunkSamples> buffer;
  for (std::int64_t done = 0; done < request.count; done += kEvalChunkSamples) {
    const std::span<double> chunk(
        buffer.data(), static_cast<std::size_t>(std::min(request.count - done, kEvalChunkSamples)));
    objective.sampleRun(request.x, request.vertexId,
                        request.startIndex + static_cast<std::uint64_t>(done), chunk);
    chunks.push_back(simd::welfordChunk(chunk));
  }
  return chunks;
}

}  // namespace sfopt::core
