#pragma once

#include <cstdint>
#include <span>

#include "simd/force_kernel.hpp"
#include "simd/isa.hpp"
#include "stats/welford.hpp"

namespace sfopt::telemetry {
class Telemetry;
}

namespace sfopt::simd {

/// Reduce one sample chunk to its Welford moments.  One portable 4-lane
/// reducer serves every ISA (see kernels.hpp), so a chunk's moments are
/// the same bits under every ISA, on every thread and every worker.
[[nodiscard]] stats::Welford welfordChunk(std::span<const double> samples);

/// One nonbonded evaluation over a pair slice with the active ISA's
/// kernel: adds every pair's force into force0 (+ on i, - on j, rows of
/// the xyz0 snapshot's sites) and its energies and virial into `sums`, in
/// stream order (i != j in every pair).  Every ISA runs the same IEEE ops
/// per pair and per sum, so the results are bitwise equal across ISAs.
void forcePairs(const ForceConstants& c, const PairSlice& pairs, const SiteRow* xyz0,
                SiteRow* force0, ForceSums& sums);

/// Squared minimum-image distances of `in.pairs.count` site pairs with
/// the active ISA's kernel, written to r2[0..count) (r2 needs room for
/// count rounded up to kForceLaneGroup).  Bitwise equal under every ISA
/// to normSquared(PeriodicBox::minimumImage(a, b)).
void pairDistancesSquared(const PairDistanceIn& in, double* r2);

/// Process-wide dispatch totals (relaxed counters; for telemetry/tests).
struct DispatchCounts {
  std::int64_t welfordChunks = 0;  ///< welfordChunk calls: one per chunk reduction
  std::int64_t forceBlocks = 0;    ///< forcePairs calls: one per nonbonded evaluation
};
[[nodiscard]] DispatchCounts dispatchCounts() noexcept;

/// Publish the active ISA and dispatch totals into a metrics registry:
///   simd.isa                    gauge, numeric Isa enum value
///   simd.dispatch.welford_chunks gauge, total dispatched chunks
///   simd.dispatch.force_blocks   gauge, total forcePairs calls
void publishTelemetry(telemetry::Telemetry& telemetry);

}  // namespace sfopt::simd
