#include "simd/dispatch.hpp"

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
      return {welfordChunkSse4, forcePairsSse4, packPairsSse4, pairTermsSse4, pairDistancesSse4};
    case Isa::Avx2:
      return {welfordChunkAvx2, forcePairsAvx2, packPairsAvx2, pairTermsAvx2, pairDistancesAvx2};
#endif
#if defined(__aarch64__)
    case Isa::Neon:
      return {welfordChunkNeon, forcePairsScalar, packPairsScalar, pairTermsScalar,
              pairDistancesScalar};
#endif
    default:
      return {welfordChunkScalar, forcePairsScalar, packPairsScalar, pairTermsScalar,
              pairDistancesScalar};
  }
}

}  // namespace detail

stats::Welford welfordChunk(std::span<const double> samples) {
  g_welfordChunks.fetch_add(1, std::memory_order_relaxed);
  std::int64_t n = 0;
  double mean = 0.0;
  double m2 = 0.0;
  detail::kernelsFor(activeIsa()).welford(samples.data(), static_cast<std::int64_t>(samples.size()), &n,
                                &mean, &m2);
  return stats::Welford::fromMoments(n, mean, m2);
}

void forcePairs(const ForceConstants& c, const PairSlice& pairs, const SiteRow* xyz0,
                SiteRow* force0, ForceSums& sums) {
  g_forceBlocks.fetch_add(1, std::memory_order_relaxed);
  detail::kernelsFor(activeIsa()).force(c, pairs, xyz0, force0, sums);
}

void pairDistancesSquared(const PairDistanceIn& in, double* r2) {
  detail::kernelsFor(activeIsa()).distances(in, r2);
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
