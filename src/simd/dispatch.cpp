#include "simd/dispatch.hpp"

#include <atomic>

#include "simd/kernels.hpp"
#include "telemetry/telemetry.hpp"

namespace sfopt::simd {

namespace {

std::atomic<std::int64_t> g_welfordChunks{0};
std::atomic<std::int64_t> g_forceBlocks{0};

struct KernelTable {
  detail::WelfordChunkFn welford;
  detail::ForcePairBlockFn force;
  detail::PairDistancesFn distances;
};

KernelTable tableFor(Isa isa) noexcept {
  switch (isa) {
#if defined(__x86_64__) || defined(__i386__)
    case Isa::Sse4:
      return {detail::welfordChunkSse4, detail::forcePairBlockSse4, detail::pairDistancesSse4};
    case Isa::Avx2:
      return {detail::welfordChunkAvx2, detail::forcePairBlockAvx2, detail::pairDistancesAvx2};
#endif
#if defined(__aarch64__)
    case Isa::Neon:
      return {detail::welfordChunkNeon, detail::forcePairBlockNeon, detail::pairDistancesScalar};
#endif
    default:
      return {detail::welfordChunkScalar, detail::forcePairBlockScalar,
              detail::pairDistancesScalar};
  }
}

}  // namespace

stats::Welford welfordChunk(std::span<const double> samples) {
  g_welfordChunks.fetch_add(1, std::memory_order_relaxed);
  std::int64_t n = 0;
  double mean = 0.0;
  double m2 = 0.0;
  tableFor(activeIsa()).welford(samples.data(), static_cast<std::int64_t>(samples.size()), &n,
                                &mean, &m2);
  return stats::Welford::fromMoments(n, mean, m2);
}

void forcePairBlock(const ForceConstants& c, const ForcePairBlockIn& in,
                    const ForcePairBlockOut& out) {
  g_forceBlocks.fetch_add(1, std::memory_order_relaxed);
  tableFor(activeIsa()).force(c, in, out);
}

void pairDistancesSquared(const PairDistanceIn& in, double* r2) {
  tableFor(activeIsa()).distances(in, r2);
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
