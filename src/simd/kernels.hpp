#pragma once

#include <cstdint>

#if defined(__x86_64__) || defined(__i386__)
#include <emmintrin.h>
#endif

#include "simd/force_kernel.hpp"
#include "simd/isa.hpp"
#include "stats/welford.hpp"

namespace sfopt::simd::detail {

/// Lanes of the Welford chunk reducer, fixed for every ISA.  Four is
/// AVX2's width, so the recorded AVX2 results keep their bits.
inline constexpr int kWelfordLanes = 4;

/// The Welford chunk reducer, one plain C++ function for every ISA: lane l
/// (of kWelfordLanes) runs the Welford::add stream over samples l, l+4,
/// l+8, ..., the lanes are merged in order 0..3 with Welford::merge, and
/// the count % 4 tail samples are added with Welford::add; a chunk of
/// fewer than four samples is the plain Welford::add stream.  The result
/// is a pure function of (samples, count), whatever the ISA, thread or
/// worker.
[[nodiscard]] stats::Welford welfordChunkLanes(const double* samples, std::int64_t count);

/// What pass 1 of the force kernel leaves for the rest of it, over a
/// slice of `count` pairs, in caller-owned arrays.  Per position k < count
/// (room for count rounded up to kForceLaneGroup): the minimum-image
/// displacement r_i - r_j at d[k] (pad 0), its square norm r2[k] and
/// qq[k] = c.qq[species[k]].  Then three position lists, each in stream
/// order and padded with its last entry up to a lane-group multiple when
/// non-empty (room for count + kForceLaneGroup): `hit` holds the positions
/// with r2 < rc2, `coulomb` those hits with qq != 0, and `lj` the O-O hits.
struct PackedPairs {
  SiteRow* d = nullptr;
  double* r2 = nullptr;
  double* qq = nullptr;
  std::int32_t* hit = nullptr;
  std::int32_t* coulomb = nullptr;
  std::int32_t* lj = nullptr;
  std::int64_t hits = 0;      ///< written by pass 1
  std::int64_t coulombs = 0;  ///< written by pass 1
  std::int64_t ljs = 0;       ///< written by pass 1
};

/// The divide pass's outputs: energy and force scale per entry of the
/// packed Coulomb and LJ lists (room for each list's padded length).  The
/// force on site i from one term is (dx, dy, dz) * scale, and minus that
/// on j.
struct PairTerms {
  double* coulombE = nullptr;
  double* coulombS = nullptr;
  double* ljE = nullptr;
  double* ljS = nullptr;
};

/// Pass 1: the minimum image, r^2 and qq of every pair, and the three
/// packed lists.  The scalar kernel packs one position at a time; the
/// vector kernels turn each group of four compare results into a 4-bit
/// movemask and store that mask's lane indices from a 16-entry table.
using PackPairsFn = void (*)(const ForceConstants& c, const PairSlice& pairs,
                             const SiteRow* xyz0, PackedPairs& out);

/// The divide pass: the Coulomb square root and four divides over the
/// packed Coulomb list, the LJ square root and three divides over the
/// packed LJ list, in whole lane groups.  Each entry runs the per-pair op
/// sequence of the force-shifted formulas, so its values do not depend on
/// its lane, its block or the ISA.
using PairTermsFn = void (*)(const ForceConstants& c, const PackedPairs& packed,
                             const PairTerms& out);

/// Force kernel: one nonbonded evaluation over a pair slice.  Runs pass 1,
/// the divide pass and the drain over each block of kForceBlockPairs
/// pairs.  The drain walks the hits in stream order, adds each Coulomb
/// then LJ term into `sums` and its force into force0 (+ on i, - on j).
/// Site i's force stays in registers across each run of consecutive hits
/// with first site i and is stored once per run.  No pair of the run
/// touches site i otherwise (j != i), so every site's sum takes the same
/// ops in the same order as in a drain that stores after every pair; the
/// pair tables are i-major, which makes the runs long.
using ForcePairsFn = void (*)(const ForceConstants& c, const PairSlice& pairs,
                              const SiteRow* xyz0, SiteRow* force0, ForceSums& sums);

/// Squared minimum-image distance of each pair: r2[k] is the
/// ((dx*dx + dy*dy) + dz*dz) of d -= L * round(d / L), per component, the
/// op sequence of md::PeriodicBox::minimumImage followed by normSquared,
/// so every ISA returns those values bit for bit.  r2 needs room for count
/// rounded up to kForceLaneGroup.
using PairDistancesFn = void (*)(const PairDistanceIn& in, double* r2);

/// One level's kernels.
struct KernelTable {
  ForcePairsFn force;
  PackPairsFn pack;
  PairTermsFn terms;
  PairDistancesFn distances;
};

/// The kernels of `isa`, which the running CPU must support.
[[nodiscard]] KernelTable kernelsFor(Isa isa) noexcept;

void packPairsScalar(const ForceConstants& c, const PairSlice& pairs, const SiteRow* xyz0,
                     PackedPairs& out);
void pairTermsScalar(const ForceConstants& c, const PackedPairs& packed, const PairTerms& out);
void forcePairsScalar(const ForceConstants& c, const PairSlice& pairs, const SiteRow* xyz0,
                      SiteRow* force0, ForceSums& sums);
void pairDistancesScalar(const PairDistanceIn& in, double* r2);

#if defined(__x86_64__) || defined(__i386__)
void packPairsSse4(const ForceConstants& c, const PairSlice& pairs, const SiteRow* xyz0,
                   PackedPairs& out);
void pairTermsSse4(const ForceConstants& c, const PackedPairs& packed, const PairTerms& out);
void forcePairsSse4(const ForceConstants& c, const PairSlice& pairs, const SiteRow* xyz0,
                    SiteRow* force0, ForceSums& sums);
void pairDistancesSse4(const PairDistanceIn& in, double* r2);
void packPairsAvx2(const ForceConstants& c, const PairSlice& pairs, const SiteRow* xyz0,
                   PackedPairs& out);
void pairTermsAvx2(const ForceConstants& c, const PackedPairs& packed, const PairTerms& out);
void forcePairsAvx2(const ForceConstants& c, const PairSlice& pairs, const SiteRow* xyz0,
                    SiteRow* force0, ForceSums& sums);
void pairDistancesAvx2(const PairDistanceIn& in, double* r2);
#endif

// The helpers below are shared by the kernel TUs.  Functions are
// `static` so that each TU, compiled for its own ISA, keeps its own copy:
// an inline or template definition with external linkage could be merged
// across TUs by the linker and run AVX2 code on a CPU without it.

/// The lane indices of the set bits of a 4-bit movemask, ascending (the
/// rest 0), and how many there are: the packing table of the vector pass 1.
struct alignas(16) LanePack {
  std::int32_t lanes[4];
  std::int32_t count;
};
struct LanePackTable {
  LanePack at[16];
};
static constexpr LanePackTable makeLanePacks() {
  LanePackTable t{};
  for (int m = 0; m < 16; ++m) {
    int n = 0;
    for (int l = 0; l < 4; ++l) {
      if ((m >> l) & 1) t.at[m].lanes[n++] = l;
    }
    t.at[m].count = n;
  }
  return t;
}
static constexpr LanePackTable kLanePacks = makeLanePacks();

#if defined(__x86_64__) || defined(__i386__)
/// Append the positions base + l of the set bits l of a 4-bit mask to
/// at[0..] (one 16-byte store from the lane table); returns how many.
/// SSE2 only, so it compiles in every x86 kernel TU.
static inline std::int64_t packLanes(std::int32_t* at, std::int64_t base, int mask) {
  const LanePack& lanes = kLanePacks.at[mask];
  const __m128i v = _mm_add_epi32(_mm_load_si128(reinterpret_cast<const __m128i*>(lanes.lanes)),
                                  _mm_set1_epi32(static_cast<std::int32_t>(base)));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(at), v);
  return lanes.count;
}
#endif

/// Pad a non-empty packed list with its last entry up to the next
/// lane-group multiple, so the divide pass runs whole lane groups (a
/// padded lane repeats a real entry and its outputs are never read).
static inline void padPacked(std::int32_t* at, std::int64_t n) {
  for (std::int64_t p = n; n > 0 && p % kForceLaneGroup != 0; ++p) at[p] = at[n - 1];
}

/// The drain of one block: every hit in stream order, its Coulomb term
/// (when qq != 0) then its LJ term (when O-O); each adds its energy, its
/// force (dx, dy, dz) * scale on i and minus that on j, and its virial
/// (dx*fx + dy*fy) + dz*fz.  Site i's force is held across each run of
/// hits with first site i.
static inline void drainBlock(const PairSlice& pairs, const PackedPairs& p, const PairTerms& t,
                              SiteRow* force0, ForceSums& sums) {
  double coulomb = sums.coulomb;
  double lj = sums.lennardJones;
  double virial = sums.virial;
  std::int64_t mc = 0;
  std::int64_t ml = 0;
  std::int64_t h = 0;
  while (h < p.hits) {
    const std::int32_t i = pairs.i[p.hit[h]];
    double fx = force0[i].x;
    double fy = force0[i].y;
    double fz = force0[i].z;
    do {
      const std::int32_t k = p.hit[h];
      const double dx = p.d[k].x;
      const double dy = p.d[k].y;
      const double dz = p.d[k].z;
      SiteRow& fj = force0[pairs.j[k]];
      const auto apply = [&](double scale) {
        const double x = dx * scale;
        const double y = dy * scale;
        const double z = dz * scale;
        fx += x;
        fy += y;
        fz += z;
        fj.x -= x;
        fj.y -= y;
        fj.z -= z;
        virial += (dx * x + dy * y) + dz * z;
      };
      if (p.qq[k] != 0.0) {
        coulomb += t.coulombE[mc];
        apply(t.coulombS[mc++]);
      }
      if (pairs.species[k] == kPairOO) {
        lj += t.ljE[ml];
        apply(t.ljS[ml++]);
      }
    } while (++h < p.hits && pairs.i[p.hit[h]] == i);
    force0[i].x = fx;
    force0[i].y = fy;
    force0[i].z = fz;
  }
  sums = {coulomb, lj, virial};
}

/// The force kernel's block loop: pass 1, the divide pass and the drain
/// over each block of kForceBlockPairs pairs, on stack scratch (left
/// uninitialized: each pass writes every entry the next one reads).
template <PackPairsFn Pack, PairTermsFn Terms>
static void forcePairsInBlocks(const ForceConstants& c, const PairSlice& pairs,
                               const SiteRow* xyz0, SiteRow* force0, ForceSums& sums) {
  constexpr std::int64_t kRoom = kForceBlockPairs + kForceLaneGroup;
  SiteRow d[kForceBlockPairs];
  alignas(32) double r2[kForceBlockPairs];
  alignas(32) double qq[kForceBlockPairs];
  alignas(16) std::int32_t hit[kRoom];
  alignas(16) std::int32_t coulomb[kRoom];
  alignas(16) std::int32_t lj[kRoom];
  alignas(32) double coulombE[kRoom];
  alignas(32) double coulombS[kRoom];
  alignas(32) double ljE[kRoom];
  alignas(32) double ljS[kRoom];
  const PairTerms terms{coulombE, coulombS, ljE, ljS};
  for (std::int64_t begin = 0; begin < pairs.count; begin += kForceBlockPairs) {
    const std::int64_t left = pairs.count - begin;
    const PairSlice block{pairs.i + begin, pairs.j + begin, pairs.species + begin,
                          left < kForceBlockPairs ? left : kForceBlockPairs};
    PackedPairs packed{d, r2, qq, hit, coulomb, lj};
    Pack(c, block, xyz0, packed);
    Terms(c, packed, terms);
    drainBlock(block, packed, terms, force0, sums);
  }
}

}  // namespace sfopt::simd::detail
