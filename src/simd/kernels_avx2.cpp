// AVX2 kernels (4-lane double).  Compiled per-TU with -mavx2 -mfma so the
// rest of the tree stays baseline-ISA, and -ffp-contract=off so the
// compiler cannot fuse the explicit mul/add sequences — every lane op is
// the exact IEEE instruction written here, making each pair/sample's
// result independent of its lane and block position.

#if defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>

#include <cstring>

#include "simd/kernels.hpp"
#include "stats/welford.hpp"

namespace sfopt::simd::detail {

void welfordChunkAvx2(const double* samples, std::int64_t count, std::int64_t* outN,
                      double* outMean, double* outM2) {
  const std::int64_t main = count - count % 4;
  __m256d cnt = _mm256_setzero_pd();
  __m256d mean = _mm256_setzero_pd();
  __m256d m2 = _mm256_setzero_pd();
  const __m256d one = _mm256_set1_pd(1.0);
  for (std::int64_t k = 0; k < main; k += 4) {
    const __m256d x = _mm256_loadu_pd(samples + k);
    cnt = _mm256_add_pd(cnt, one);
    const __m256d delta = _mm256_sub_pd(x, mean);
    mean = _mm256_add_pd(mean, _mm256_div_pd(delta, cnt));
    m2 = _mm256_add_pd(m2, _mm256_mul_pd(delta, _mm256_sub_pd(x, mean)));
  }
  alignas(32) double cntL[4];
  alignas(32) double meanL[4];
  alignas(32) double m2L[4];
  _mm256_store_pd(cntL, cnt);
  _mm256_store_pd(meanL, mean);
  _mm256_store_pd(m2L, m2);
  // Canonical reduction: fold lanes 0..3 in order, then the tail samples
  // sequentially.
  stats::Welford merged;
  for (int l = 0; l < 4; ++l) {
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

/// Minimum-image displacement and its square norm, four pairs: the op
/// sequence of md::PeriodicBox::minimumImage followed by normSquared.
struct Image4 {
  __m256d dx, dy, dz, r2;
};

Image4 minimumImage4(__m256d edge, __m256d invEdge, const double* x, const double* y,
                     const double* z, __m128i vi, __m128i vj) {
  __m256d dx = _mm256_sub_pd(_mm256_i32gather_pd(x, vi, 8), _mm256_i32gather_pd(x, vj, 8));
  __m256d dy = _mm256_sub_pd(_mm256_i32gather_pd(y, vi, 8), _mm256_i32gather_pd(y, vj, 8));
  __m256d dz = _mm256_sub_pd(_mm256_i32gather_pd(z, vi, 8), _mm256_i32gather_pd(z, vj, 8));
  dx = _mm256_sub_pd(dx, _mm256_mul_pd(edge, _mm256_round_pd(_mm256_mul_pd(dx, invEdge), kRound)));
  dy = _mm256_sub_pd(dy, _mm256_mul_pd(edge, _mm256_round_pd(_mm256_mul_pd(dy, invEdge), kRound)));
  dz = _mm256_sub_pd(dz, _mm256_mul_pd(edge, _mm256_round_pd(_mm256_mul_pd(dz, invEdge), kRound)));
  const __m256d r2 = _mm256_add_pd(_mm256_add_pd(_mm256_mul_pd(dx, dx), _mm256_mul_pd(dy, dy)),
                                   _mm256_mul_pd(dz, dz));
  return {dx, dy, dz, r2};
}

__m128i loadIndices(const std::int32_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

/// Byte l of entry m is bit l of m: a 4-lane movemask as four 0/1 flags,
/// written with one store.
constexpr std::uint32_t kMaskBytes[16] = {
    0x00000000, 0x00000001, 0x00000100, 0x00000101, 0x00010000, 0x00010001,
    0x00010100, 0x00010101, 0x01000000, 0x01000001, 0x01000100, 0x01000101,
    0x01010000, 0x01010001, 0x01010100, 0x01010101};

void storeFlags(std::uint8_t* p, __m256d mask) {
  std::memcpy(p, &kMaskBytes[_mm256_movemask_pd(mask)], sizeof(std::uint32_t));
}

}  // namespace

void forcePairBlockAvx2(const ForceConstants& c, const ForcePairBlockIn& in,
                        const ForcePairBlockOut& out) {
  const __m256d edge = _mm256_set1_pd(c.boxEdge);
  const __m256d invEdge = _mm256_set1_pd(c.invBoxEdge);
  const __m256d rcV = _mm256_set1_pd(c.rc);
  const __m256d rc2V = _mm256_set1_pd(c.rc2);
  const __m256d invRcV = _mm256_set1_pd(c.invRc);
  const __m256d invRc2V = _mm256_set1_pd(c.invRc2);
  const __m256d s2V = _mm256_set1_pd(c.s2);
  const __m256d eps4V = _mm256_set1_pd(c.eps4);
  const __m256d eps24V = _mm256_set1_pd(c.eps24);
  const __m256d ljErcV = _mm256_set1_pd(c.ljErc);
  const __m256d ljFrcV = _mm256_set1_pd(c.ljFrc);
  const __m256d qScaleV = _mm256_set1_pd(c.coulombScale);
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d two = _mm256_set1_pd(2.0);
  const __m256d half = _mm256_set1_pd(0.5);
  const __m256d zero = _mm256_setzero_pd();
  // Local copies: the byte flag stores could alias the structs' fields,
  // which would make the compiler reload every pointer after each one.
  const ForcePairBlockIn src = in;
  const ForcePairBlockOut dst = out;

  // Pass 1: displacement, r^2, qq and the flags of every candidate.
  alignas(32) double r2s[kForceBlockPairs];
  alignas(32) double qqs[kForceBlockPairs];
  for (std::int64_t k = 0; k < src.count; k += 4) {
    const __m128i vi = loadIndices(src.i + k);
    const __m128i vj = loadIndices(src.j + k);
    const Image4 d = minimumImage4(edge, invEdge, src.x, src.y, src.z, vi, vj);
    const __m256d qq = _mm256_mul_pd(_mm256_mul_pd(qScaleV, _mm256_i32gather_pd(src.q, vi, 8)),
                                     _mm256_i32gather_pd(src.q, vj, 8));
    const __m256d oo = _mm256_mul_pd(_mm256_i32gather_pd(src.oxy, vi, 8),
                                     _mm256_i32gather_pd(src.oxy, vj, 8));
    const __m256d within = _mm256_cmp_pd(d.r2, rc2V, _CMP_LT_OQ);
    _mm256_storeu_pd(dst.dx + k, d.dx);
    _mm256_storeu_pd(dst.dy + k, d.dy);
    _mm256_storeu_pd(dst.dz + k, d.dz);
    _mm256_storeu_pd(dst.coulombE + k, zero);
    _mm256_storeu_pd(dst.coulombS + k, zero);
    _mm256_storeu_pd(dst.ljE + k, zero);
    _mm256_storeu_pd(dst.ljS + k, zero);
    _mm256_store_pd(r2s + k, d.r2);
    _mm256_store_pd(qqs + k, qq);
    storeFlags(dst.withinCutoff + k, within);
    storeFlags(dst.coulombActive + k,
               _mm256_and_pd(within, _mm256_cmp_pd(qq, zero, _CMP_NEQ_OQ)));
    storeFlags(dst.ljActive + k, _mm256_and_pd(within, _mm256_cmp_pd(oo, half, _CMP_GT_OQ)));
  }

  // Pass 2: the active positions of each term, in stream order.
  alignas(16) std::int32_t coulombAt[kForceBlockPairs + kForceLaneGroup];
  alignas(16) std::int32_t ljAt[kForceBlockPairs + kForceLaneGroup];
  const std::int64_t coulombCount = compactPositions(dst.coulombActive, src.count, coulombAt);
  const std::int64_t ljCount = compactPositions(dst.ljActive, src.count, ljAt);

  // Pass 3: the square roots and divides, over active positions only.
  alignas(32) double e[4];
  alignas(32) double s[4];
  for (std::int64_t m = 0; m < coulombCount; m += 4) {
    const __m128i at = loadIndices(coulombAt + m);
    const __m256d r2 = _mm256_i32gather_pd(r2s, at, 8);
    const __m256d qq = _mm256_i32gather_pd(qqs, at, 8);
    const __m256d r = _mm256_sqrt_pd(r2);
    const __m256d coulombE = _mm256_mul_pd(
        qq, _mm256_add_pd(_mm256_sub_pd(_mm256_div_pd(one, r), invRcV),
                          _mm256_div_pd(_mm256_sub_pd(r, rcV), rc2V)));
    const __m256d coulombF = _mm256_mul_pd(qq, _mm256_sub_pd(_mm256_div_pd(one, r2), invRc2V));
    _mm256_store_pd(e, coulombE);
    _mm256_store_pd(s, _mm256_div_pd(coulombF, r));
    for (int l = 0; l < 4; ++l) {
      const auto k = static_cast<std::size_t>(coulombAt[m + l]);
      dst.coulombE[k] = e[l];
      dst.coulombS[k] = s[l];
    }
  }
  for (std::int64_t m = 0; m < ljCount; m += 4) {
    const __m128i at = loadIndices(ljAt + m);
    const __m256d r2 = _mm256_i32gather_pd(r2s, at, 8);
    const __m256d r = _mm256_sqrt_pd(r2);
    const __m256d inv2 = _mm256_div_pd(s2V, r2);
    const __m256d inv6 = _mm256_mul_pd(_mm256_mul_pd(inv2, inv2), inv2);
    const __m256d inv12 = _mm256_mul_pd(inv6, inv6);
    const __m256d ljE0 = _mm256_mul_pd(eps4V, _mm256_sub_pd(inv12, inv6));
    const __m256d ljFOverR =
        _mm256_div_pd(_mm256_mul_pd(eps24V, _mm256_sub_pd(_mm256_mul_pd(two, inv12), inv6)), r2);
    const __m256d ljF = _mm256_sub_pd(_mm256_mul_pd(ljFOverR, r), ljFrcV);
    _mm256_store_pd(e, _mm256_add_pd(_mm256_sub_pd(ljE0, ljErcV),
                                     _mm256_mul_pd(ljFrcV, _mm256_sub_pd(r, rcV))));
    _mm256_store_pd(s, _mm256_div_pd(ljF, r));
    for (int l = 0; l < 4; ++l) {
      const auto k = static_cast<std::size_t>(ljAt[m + l]);
      dst.ljE[k] = e[l];
      dst.ljS[k] = s[l];
    }
  }
}

void pairDistancesAvx2(const PairDistanceIn& in, double* r2) {
  const __m256d edge = _mm256_set1_pd(in.boxEdge);
  const __m256d invEdge = _mm256_set1_pd(in.invBoxEdge);
  for (std::int64_t k = 0; k < in.count; k += 4) {
    const Image4 d = minimumImage4(edge, invEdge, in.x, in.y, in.z, loadIndices(in.i + k),
                                   loadIndices(in.j + k));
    _mm256_storeu_pd(r2 + k, d.r2);
  }
}

}  // namespace sfopt::simd::detail

#endif  // x86
