#include "simd/dispatch.hpp"

#include <algorithm>
#include <atomic>

#include "simd/kernels.hpp"
#include "telemetry/telemetry.hpp"

namespace sfopt::simd {

namespace {

std::atomic<std::int64_t> g_welfordChunks{0};
std::atomic<std::int64_t> g_forceBlocks{0};

}  // namespace

namespace detail {

KernelTable kernelsFor(Isa isa) noexcept {
  switch (isa) {
#if defined(__x86_64__) || defined(__i386__)
    case Isa::Sse4:
      return {forcePairsSse4, packPairsSse4, pairTermsSse4, pairDistancesSse4, normalsScalar};
    case Isa::Avx2:
      return {forcePairsAvx2, packPairsAvx2, pairTermsAvx2, pairDistancesAvx2, normalsAvx2};
#endif
    default:
      return {forcePairsScalar, packPairsScalar, pairTermsScalar, pairDistancesScalar,
              normalsScalar};
  }
}

}  // namespace detail

stats::Welford welfordChunk(std::span<const double> samples) {
  g_welfordChunks.fetch_add(1, std::memory_order_relaxed);
  return detail::welfordChunkLanes(samples.data(), static_cast<std::int64_t>(samples.size()));
}

void forcePairs(const ForceConstants& c, const PairSlice& pairs, const SiteRow* xyz0,
                SiteRow* force0, ForceSums& sums) {
  g_forceBlocks.fetch_add(1, std::memory_order_relaxed);
  detail::kernelsFor(activeIsa()).force(c, pairs, xyz0, force0, sums);
}

void pairDistancesSquared(const PairDistanceIn& in, double* r2) {
  detail::kernelsFor(activeIsa()).distances(in, r2);
}

void addNormalRun(std::uint64_t prefix, std::uint64_t firstIndex, double center, double scale,
                  std::span<double> out) {
  // The uniforms of each block of draws are hashed into stack buffers,
  // then the level's kernel runs the math over them.
  constexpr std::int64_t kBlock = 64;
  const detail::NormalsFn normals = detail::kernelsFor(activeIsa()).normals;
  alignas(32) double u1[kBlock];
  alignas(32) double u2[kBlock];
  const auto count = static_cast<std::int64_t>(out.size());
  for (std::int64_t begin = 0; begin < count; begin += kBlock) {
    const std::int64_t n = std::min(kBlock, count - begin);
    detail::uniformPairs(prefix, firstIndex + static_cast<std::uint64_t>(begin), u1, u2, n);
    normals(u1, u2, center, scale, out.data() + begin, n);
  }
}

DispatchCounts dispatchCounts() noexcept {
  return {g_welfordChunks.load(std::memory_order_relaxed),
          g_forceBlocks.load(std::memory_order_relaxed)};
}

void publishTelemetry(telemetry::Telemetry& telemetry) {
  const DispatchCounts counts = dispatchCounts();
  auto& metrics = telemetry.metrics();
  metrics.gauge("simd.isa").set(static_cast<double>(static_cast<int>(activeIsa())));
  metrics.gauge("simd.dispatch.welford_chunks").set(static_cast<double>(counts.welfordChunks));
  metrics.gauge("simd.dispatch.force_blocks").set(static_cast<double>(counts.forceBlocks));
}

}  // namespace sfopt::simd
