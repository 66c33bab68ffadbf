#pragma once

#include <cstdint>

#include "simd/force_kernel.hpp"

namespace sfopt::simd::detail {

/// Welford chunk kernel: accumulate `count` samples into (n, mean, m2)
/// moments.  The scalar kernel is the sequential stats::Welford::add
/// stream bit for bit; each vector kernel deinterleaves samples across W
/// lanes (lane l takes samples l, l+W, l+2W, ...), folds the lane
/// accumulators in lane order 0..W-1 with the standard pairwise merge,
/// then adds the count % W tail samples sequentially.  Each kernel's
/// output is a pure function of (samples, count): bitwise reproducible
/// run to run and across threads within its ISA.
using WelfordChunkFn = void (*)(const double* samples, std::int64_t count, std::int64_t* outN,
                                double* outMean, double* outM2);

/// Force pair-block kernel: per-pair outputs only, no accumulation.  Each
/// lane's result is a pure function of that pair's inputs — the same
/// full-width instruction sequence runs regardless of which lane or block
/// position a pair lands in — so any enumeration of the same pair stream
/// produces bitwise-identical per-pair values within an ISA.
///
/// The scalar, SSE4 and AVX2 kernels run three passes: the minimum image,
/// r^2 and the flags for every candidate; a branch-free compaction of the
/// Coulomb-active and LJ-active positions in stream order; then the square
/// roots and divides over those positions only.  Every pair that reaches
/// a compacted pass runs the op sequence of the single-pass formula, in
/// full-width lanes (a short tail group repeats its last pair), so the
/// per-pair values are the single-pass values bit for bit.
using ForcePairBlockFn = void (*)(const ForceConstants& c, const ForcePairBlockIn& in,
                                  const ForcePairBlockOut& out);

/// Squared minimum-image distance of each pair: r2[k] is the
/// ((dx*dx + dy*dy) + dz*dz) of d -= L * round(d / L), per component, the
/// op sequence of md::PeriodicBox::minimumImage followed by normSquared,
/// so every ISA returns those values bit for bit.
using PairDistancesFn = void (*)(const PairDistanceIn& in, double* r2);

void welfordChunkScalar(const double* samples, std::int64_t count, std::int64_t* outN,
                        double* outMean, double* outM2);
void forcePairBlockScalar(const ForceConstants& c, const ForcePairBlockIn& in,
                          const ForcePairBlockOut& out);
void pairDistancesScalar(const PairDistanceIn& in, double* r2);

#if defined(__x86_64__) || defined(__i386__)
void welfordChunkSse4(const double* samples, std::int64_t count, std::int64_t* outN,
                      double* outMean, double* outM2);
void forcePairBlockSse4(const ForceConstants& c, const ForcePairBlockIn& in,
                        const ForcePairBlockOut& out);
void pairDistancesSse4(const PairDistanceIn& in, double* r2);
void welfordChunkAvx2(const double* samples, std::int64_t count, std::int64_t* outN,
                      double* outMean, double* outM2);
void forcePairBlockAvx2(const ForceConstants& c, const ForcePairBlockIn& in,
                        const ForcePairBlockOut& out);
void pairDistancesAvx2(const PairDistanceIn& in, double* r2);
#endif

/// Branch-free compaction shared by the three-pass force kernels: writes
/// the positions k < count whose flag is 1, in stream order, to at[] and
/// returns how many there are.  A non-empty list is then padded with its
/// last position up to the next kForceLaneGroup multiple, so a compacted
/// pass runs whole lane groups (a padded lane repeats a real pair, and
/// writes the same values to the same place).  `at` needs room for
/// count + kForceLaneGroup entries.  `static` so that each kernel TU,
/// compiled for its own ISA, keeps its own copy.
static inline std::int64_t compactPositions(const std::uint8_t* flags, std::int64_t count,
                                            std::int32_t* at) {
  std::int64_t n = 0;
  for (std::int64_t k = 0; k < count; ++k) {
    at[n] = static_cast<std::int32_t>(k);
    n += flags[k];
  }
  for (std::int64_t p = n; n > 0 && p % kForceLaneGroup != 0; ++p) at[p] = at[n - 1];
  return n;
}

// NEON keeps the single-pass force kernel (every term computed for every
// candidate, inactive outputs unspecified) and takes the scalar distance
// kernel.
#if defined(__aarch64__)
void welfordChunkNeon(const double* samples, std::int64_t count, std::int64_t* outN,
                      double* outMean, double* outM2);
void forcePairBlockNeon(const ForceConstants& c, const ForcePairBlockIn& in,
                        const ForcePairBlockOut& out);
#endif

}  // namespace sfopt::simd::detail
