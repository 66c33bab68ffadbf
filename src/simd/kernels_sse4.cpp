// SSE4.1 kernels (2-lane double).  Compiled with -msse4.1 and
// -ffp-contract=off: every lane op is an explicit IEEE instruction, so a
// pair/sample's result depends only on its own inputs, never on which
// lane or block position it landed in.

#if defined(__x86_64__) || defined(__i386__)

#include <smmintrin.h>

#include <cstring>

#include "simd/kernels.hpp"
#include "stats/welford.hpp"

namespace sfopt::simd::detail {

void welfordChunkSse4(const double* samples, std::int64_t count, std::int64_t* outN,
                      double* outMean, double* outM2) {
  const std::int64_t main = count - count % 2;
  __m128d cnt = _mm_setzero_pd();
  __m128d mean = _mm_setzero_pd();
  __m128d m2 = _mm_setzero_pd();
  const __m128d one = _mm_set1_pd(1.0);
  for (std::int64_t k = 0; k < main; k += 2) {
    const __m128d x = _mm_loadu_pd(samples + k);
    cnt = _mm_add_pd(cnt, one);
    const __m128d delta = _mm_sub_pd(x, mean);
    mean = _mm_add_pd(mean, _mm_div_pd(delta, cnt));
    m2 = _mm_add_pd(m2, _mm_mul_pd(delta, _mm_sub_pd(x, mean)));
  }
  alignas(16) double cntL[2];
  alignas(16) double meanL[2];
  alignas(16) double m2L[2];
  _mm_store_pd(cntL, cnt);
  _mm_store_pd(meanL, mean);
  _mm_store_pd(m2L, m2);
  // Canonical reduction: fold lanes 0..1 in order, then the tail samples
  // sequentially.
  stats::Welford merged;
  for (int l = 0; l < 2; ++l) {
    merged.merge(
        stats::Welford::fromMoments(static_cast<std::int64_t>(cntL[l]), meanL[l], m2L[l]));
  }
  for (std::int64_t k = main; k < count; ++k) merged.add(samples[k]);
  *outN = merged.count();
  *outMean = merged.mean();
  *outM2 = merged.sumSquaredDeviations();
}

namespace {

constexpr int kRound = _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC;

/// d -= L * round(d / L), per lane: md::PeriodicBox::minimumImage's op
/// sequence on one component pair.
__m128d wrapImage(__m128d d, __m128d edge, __m128d invEdge) {
  return _mm_sub_pd(d, _mm_mul_pd(edge, _mm_round_pd(_mm_mul_pd(d, invEdge), kRound)));
}

/// Minimum-image displacement of one pair as two halves, (dx, dy) and
/// (dz, 0), read from 32-byte snapshot rows.
struct Image {
  __m128d xy, z0;
};

Image minimumImage(__m128d edge, __m128d invEdge, const SiteRow& a, const SiteRow& b) {
  return {wrapImage(_mm_sub_pd(_mm_loadu_pd(&a.x), _mm_loadu_pd(&b.x)), edge, invEdge),
          wrapImage(_mm_sub_pd(_mm_loadu_pd(&a.z), _mm_loadu_pd(&b.z)), edge, invEdge)};
}

/// r^2 of two pairs, ((dx*dx + dy*dy) + dz*dz) per lane.
__m128d normSquared2(const Image& a, const Image& b) {
  const __m128d dx = _mm_unpacklo_pd(a.xy, b.xy);
  const __m128d dy = _mm_unpackhi_pd(a.xy, b.xy);
  const __m128d dz = _mm_unpacklo_pd(a.z0, b.z0);
  return _mm_add_pd(_mm_add_pd(_mm_mul_pd(dx, dx), _mm_mul_pd(dy, dy)), _mm_mul_pd(dz, dz));
}

__m128d load2(const double* p, std::int32_t a, std::int32_t b) { return _mm_set_pd(p[b], p[a]); }

}  // namespace

void packPairsSse4(const ForceConstants& c, const PairSlice& pairs, const SiteRow* xyz0,
                   PackedPairs& out) {
  const __m128d edge = _mm_set1_pd(c.boxEdge);
  const __m128d invEdge = _mm_set1_pd(c.invBoxEdge);
  const __m128d rc2 = _mm_set1_pd(c.rc2);
  const __m128d zero = _mm_setzero_pd();
  const PairSlice p = pairs;
  std::int64_t hits = 0;
  std::int64_t coulombs = 0;
  std::int64_t ljs = 0;
  // Four pairs per step, two per vector; the two compare masks make one
  // 4-bit mask for the lane table.
  for (std::int64_t k = 0; k < p.count; k += 4) {
    int within = 0;
    int charged = 0;
    for (int half = 0; half < 4; half += 2) {
      const std::int64_t a = k + half;
      const Image da = minimumImage(edge, invEdge, xyz0[p.i[a]], xyz0[p.j[a]]);
      const Image db = minimumImage(edge, invEdge, xyz0[p.i[a + 1]], xyz0[p.j[a + 1]]);
      _mm_storeu_pd(&out.d[a].x, da.xy);
      _mm_storeu_pd(&out.d[a].z, da.z0);
      _mm_storeu_pd(&out.d[a + 1].x, db.xy);
      _mm_storeu_pd(&out.d[a + 1].z, db.z0);
      const __m128d r2 = normSquared2(da, db);
      const __m128d qq = _mm_set_pd(c.qq[p.species[a + 1]], c.qq[p.species[a]]);
      _mm_storeu_pd(out.r2 + a, r2);
      _mm_storeu_pd(out.qq + a, qq);
      within |= _mm_movemask_pd(_mm_cmplt_pd(r2, rc2)) << half;
      charged |= _mm_movemask_pd(_mm_cmpneq_pd(qq, zero)) << half;
    }
    std::uint32_t species4 = 0;
    std::memcpy(&species4, p.species + k, sizeof species4);
    const int oxygenPairs =
        _mm_movemask_epi8(_mm_cmpeq_epi8(_mm_cvtsi32_si128(static_cast<int>(species4)),
                                         _mm_setzero_si128())) &
        0xF;
    if (p.count - k < 4) within &= (1 << (p.count - k)) - 1;
    hits += packLanes(out.hit + hits, k, within);
    coulombs += packLanes(out.coulomb + coulombs, k, within & charged);
    ljs += packLanes(out.lj + ljs, k, within & oxygenPairs);
  }
  padPacked(out.hit, hits);
  padPacked(out.coulomb, coulombs);
  padPacked(out.lj, ljs);
  out.hits = hits;
  out.coulombs = coulombs;
  out.ljs = ljs;
}

void pairTermsSse4(const ForceConstants& c, const PackedPairs& packed, const PairTerms& out) {
  const __m128d rcV = _mm_set1_pd(c.rc);
  const __m128d rc2V = _mm_set1_pd(c.rc2);
  const __m128d invRcV = _mm_set1_pd(c.invRc);
  const __m128d invRc2V = _mm_set1_pd(c.invRc2);
  const __m128d s2V = _mm_set1_pd(c.s2);
  const __m128d eps4V = _mm_set1_pd(c.eps4);
  const __m128d eps24V = _mm_set1_pd(c.eps24);
  const __m128d ljErcV = _mm_set1_pd(c.ljErc);
  const __m128d ljFrcV = _mm_set1_pd(c.ljFrc);
  const __m128d one = _mm_set1_pd(1.0);
  const __m128d two = _mm_set1_pd(2.0);
  for (std::int64_t m = 0; m < packed.coulombs; m += 2) {
    const std::int32_t k0 = packed.coulomb[m];
    const std::int32_t k1 = packed.coulomb[m + 1];
    const __m128d r2 = load2(packed.r2, k0, k1);
    const __m128d qq = load2(packed.qq, k0, k1);
    const __m128d r = _mm_sqrt_pd(r2);
    const __m128d coulombE = _mm_mul_pd(
        qq, _mm_add_pd(_mm_sub_pd(_mm_div_pd(one, r), invRcV),
                       _mm_div_pd(_mm_sub_pd(r, rcV), rc2V)));
    const __m128d coulombF = _mm_mul_pd(qq, _mm_sub_pd(_mm_div_pd(one, r2), invRc2V));
    _mm_storeu_pd(out.coulombE + m, coulombE);
    _mm_storeu_pd(out.coulombS + m, _mm_div_pd(coulombF, r));
  }
  for (std::int64_t m = 0; m < packed.ljs; m += 2) {
    const __m128d r2 = load2(packed.r2, packed.lj[m], packed.lj[m + 1]);
    const __m128d r = _mm_sqrt_pd(r2);
    const __m128d inv2 = _mm_div_pd(s2V, r2);
    const __m128d inv6 = _mm_mul_pd(_mm_mul_pd(inv2, inv2), inv2);
    const __m128d inv12 = _mm_mul_pd(inv6, inv6);
    const __m128d ljE0 = _mm_mul_pd(eps4V, _mm_sub_pd(inv12, inv6));
    const __m128d ljFOverR =
        _mm_div_pd(_mm_mul_pd(eps24V, _mm_sub_pd(_mm_mul_pd(two, inv12), inv6)), r2);
    const __m128d ljF = _mm_sub_pd(_mm_mul_pd(ljFOverR, r), ljFrcV);
    _mm_storeu_pd(out.ljE + m, _mm_add_pd(_mm_sub_pd(ljE0, ljErcV),
                                          _mm_mul_pd(ljFrcV, _mm_sub_pd(r, rcV))));
    _mm_storeu_pd(out.ljS + m, _mm_div_pd(ljF, r));
  }
}

void forcePairsSse4(const ForceConstants& c, const PairSlice& pairs, const SiteRow* xyz0,
                    SiteRow* force0, ForceSums& sums) {
  forcePairsInBlocks<packPairsSse4, pairTermsSse4>(c, pairs, xyz0, force0, sums);
}

void pairDistancesSse4(const PairDistanceIn& in, double* r2) {
  const __m128d edge = _mm_set1_pd(in.boxEdge);
  const __m128d invEdge = _mm_set1_pd(in.invBoxEdge);
  const PairSlice& p = in.pairs;
  for (std::int64_t k = 0; k < p.count; k += 2) {
    const Image a = minimumImage(edge, invEdge, in.xyz0[p.i[k]], in.xyz0[p.j[k]]);
    const Image b = minimumImage(edge, invEdge, in.xyz0[p.i[k + 1]], in.xyz0[p.j[k + 1]]);
    _mm_storeu_pd(r2 + k, normSquared2(a, b));
  }
}

}  // namespace sfopt::simd::detail

#endif  // x86
