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

__m128d load2(const double* p, std::size_t a, std::size_t b) { return _mm_set_pd(p[b], p[a]); }

/// Minimum-image displacement and its square norm, two pairs: the op
/// sequence of md::PeriodicBox::minimumImage followed by normSquared.
struct Image2 {
  __m128d dx, dy, dz, r2;
};

Image2 minimumImage2(__m128d edge, __m128d invEdge, const double* x, const double* y,
                     const double* z, std::size_t i0, std::size_t i1, std::size_t j0,
                     std::size_t j1) {
  __m128d dx = _mm_sub_pd(load2(x, i0, i1), load2(x, j0, j1));
  __m128d dy = _mm_sub_pd(load2(y, i0, i1), load2(y, j0, j1));
  __m128d dz = _mm_sub_pd(load2(z, i0, i1), load2(z, j0, j1));
  dx = _mm_sub_pd(dx, _mm_mul_pd(edge, _mm_round_pd(_mm_mul_pd(dx, invEdge), kRound)));
  dy = _mm_sub_pd(dy, _mm_mul_pd(edge, _mm_round_pd(_mm_mul_pd(dy, invEdge), kRound)));
  dz = _mm_sub_pd(dz, _mm_mul_pd(edge, _mm_round_pd(_mm_mul_pd(dz, invEdge), kRound)));
  const __m128d r2 =
      _mm_add_pd(_mm_add_pd(_mm_mul_pd(dx, dx), _mm_mul_pd(dy, dy)), _mm_mul_pd(dz, dz));
  return {dx, dy, dz, r2};
}

/// Byte l of entry m is bit l of m: a 2-lane movemask as two 0/1 flags,
/// written with one store.
constexpr std::uint16_t kMaskBytes[4] = {0x0000, 0x0001, 0x0100, 0x0101};

void storeFlags(std::uint8_t* p, __m128d mask) {
  std::memcpy(p, &kMaskBytes[_mm_movemask_pd(mask)], sizeof(std::uint16_t));
}

}  // namespace

void forcePairBlockSse4(const ForceConstants& c, const ForcePairBlockIn& in,
                        const ForcePairBlockOut& out) {
  const __m128d edge = _mm_set1_pd(c.boxEdge);
  const __m128d invEdge = _mm_set1_pd(c.invBoxEdge);
  const __m128d rcV = _mm_set1_pd(c.rc);
  const __m128d rc2V = _mm_set1_pd(c.rc2);
  const __m128d invRcV = _mm_set1_pd(c.invRc);
  const __m128d invRc2V = _mm_set1_pd(c.invRc2);
  const __m128d s2V = _mm_set1_pd(c.s2);
  const __m128d eps4V = _mm_set1_pd(c.eps4);
  const __m128d eps24V = _mm_set1_pd(c.eps24);
  const __m128d ljErcV = _mm_set1_pd(c.ljErc);
  const __m128d ljFrcV = _mm_set1_pd(c.ljFrc);
  const __m128d qScaleV = _mm_set1_pd(c.coulombScale);
  const __m128d one = _mm_set1_pd(1.0);
  const __m128d two = _mm_set1_pd(2.0);
  const __m128d half = _mm_set1_pd(0.5);
  const __m128d zero = _mm_setzero_pd();
  // Local copies: the byte flag stores could alias the structs' fields,
  // which would make the compiler reload every pointer after each one.
  const ForcePairBlockIn src = in;
  const ForcePairBlockOut dst = out;

  // Pass 1: displacement, r^2, qq and the flags of every candidate.
  alignas(16) double r2s[kForceBlockPairs];
  alignas(16) double qqs[kForceBlockPairs];
  for (std::int64_t k = 0; k < src.count; k += 2) {
    const auto i0 = static_cast<std::size_t>(src.i[k]);
    const auto i1 = static_cast<std::size_t>(src.i[k + 1]);
    const auto j0 = static_cast<std::size_t>(src.j[k]);
    const auto j1 = static_cast<std::size_t>(src.j[k + 1]);
    const Image2 d = minimumImage2(edge, invEdge, src.x, src.y, src.z, i0, i1, j0, j1);
    const __m128d qq =
        _mm_mul_pd(_mm_mul_pd(qScaleV, load2(src.q, i0, i1)), load2(src.q, j0, j1));
    const __m128d oo = _mm_mul_pd(load2(src.oxy, i0, i1), load2(src.oxy, j0, j1));
    const __m128d within = _mm_cmplt_pd(d.r2, rc2V);
    _mm_storeu_pd(dst.dx + k, d.dx);
    _mm_storeu_pd(dst.dy + k, d.dy);
    _mm_storeu_pd(dst.dz + k, d.dz);
    _mm_storeu_pd(dst.coulombE + k, zero);
    _mm_storeu_pd(dst.coulombS + k, zero);
    _mm_storeu_pd(dst.ljE + k, zero);
    _mm_storeu_pd(dst.ljS + k, zero);
    _mm_store_pd(r2s + k, d.r2);
    _mm_store_pd(qqs + k, qq);
    storeFlags(dst.withinCutoff + k, within);
    storeFlags(dst.coulombActive + k, _mm_and_pd(within, _mm_cmpneq_pd(qq, zero)));
    storeFlags(dst.ljActive + k, _mm_and_pd(within, _mm_cmpgt_pd(oo, half)));
  }

  // Pass 2: the active positions of each term, in stream order.
  std::int32_t coulombAt[kForceBlockPairs + kForceLaneGroup];
  std::int32_t ljAt[kForceBlockPairs + kForceLaneGroup];
  const std::int64_t coulombCount = compactPositions(dst.coulombActive, src.count, coulombAt);
  const std::int64_t ljCount = compactPositions(dst.ljActive, src.count, ljAt);

  // Pass 3: the square roots and divides, over active positions only.
  alignas(16) double e[2];
  alignas(16) double s[2];
  for (std::int64_t m = 0; m < coulombCount; m += 2) {
    const auto k0 = static_cast<std::size_t>(coulombAt[m]);
    const auto k1 = static_cast<std::size_t>(coulombAt[m + 1]);
    const __m128d r2 = load2(r2s, k0, k1);
    const __m128d qq = load2(qqs, k0, k1);
    const __m128d r = _mm_sqrt_pd(r2);
    const __m128d coulombE = _mm_mul_pd(
        qq, _mm_add_pd(_mm_sub_pd(_mm_div_pd(one, r), invRcV),
                       _mm_div_pd(_mm_sub_pd(r, rcV), rc2V)));
    const __m128d coulombF = _mm_mul_pd(qq, _mm_sub_pd(_mm_div_pd(one, r2), invRc2V));
    _mm_store_pd(e, coulombE);
    _mm_store_pd(s, _mm_div_pd(coulombF, r));
    dst.coulombE[k0] = e[0];
    dst.coulombS[k0] = s[0];
    dst.coulombE[k1] = e[1];
    dst.coulombS[k1] = s[1];
  }
  for (std::int64_t m = 0; m < ljCount; m += 2) {
    const auto k0 = static_cast<std::size_t>(ljAt[m]);
    const auto k1 = static_cast<std::size_t>(ljAt[m + 1]);
    const __m128d r2 = load2(r2s, k0, k1);
    const __m128d r = _mm_sqrt_pd(r2);
    const __m128d inv2 = _mm_div_pd(s2V, r2);
    const __m128d inv6 = _mm_mul_pd(_mm_mul_pd(inv2, inv2), inv2);
    const __m128d inv12 = _mm_mul_pd(inv6, inv6);
    const __m128d ljE0 = _mm_mul_pd(eps4V, _mm_sub_pd(inv12, inv6));
    const __m128d ljFOverR =
        _mm_div_pd(_mm_mul_pd(eps24V, _mm_sub_pd(_mm_mul_pd(two, inv12), inv6)), r2);
    const __m128d ljF = _mm_sub_pd(_mm_mul_pd(ljFOverR, r), ljFrcV);
    _mm_store_pd(e, _mm_add_pd(_mm_sub_pd(ljE0, ljErcV), _mm_mul_pd(ljFrcV, _mm_sub_pd(r, rcV))));
    _mm_store_pd(s, _mm_div_pd(ljF, r));
    dst.ljE[k0] = e[0];
    dst.ljS[k0] = s[0];
    dst.ljE[k1] = e[1];
    dst.ljS[k1] = s[1];
  }
}

void pairDistancesSse4(const PairDistanceIn& in, double* r2) {
  const __m128d edge = _mm_set1_pd(in.boxEdge);
  const __m128d invEdge = _mm_set1_pd(in.invBoxEdge);
  for (std::int64_t k = 0; k < in.count; k += 2) {
    const Image2 d = minimumImage2(
        edge, invEdge, in.x, in.y, in.z, static_cast<std::size_t>(in.i[k]),
        static_cast<std::size_t>(in.i[k + 1]), static_cast<std::size_t>(in.j[k]),
        static_cast<std::size_t>(in.j[k + 1]));
    _mm_storeu_pd(r2 + k, d.r2);
  }
}

}  // namespace sfopt::simd::detail

#endif  // x86
