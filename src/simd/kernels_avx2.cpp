// AVX2 kernels (4-lane double).  Compiled per-TU with -mavx2 -mfma so the
// rest of the tree stays baseline-ISA, and -ffp-contract=off so the
// compiler cannot fuse the explicit mul/add sequences — every lane op is
// the exact IEEE instruction written here, making each pair's or draw's
// result independent of its lane and block position.

#if defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>

#include <cstring>

#include "simd/kernels.hpp"

namespace sfopt::simd::detail {

namespace {

constexpr int kRound = _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC;

/// Minimum-image displacement of one pair from two 32-byte snapshot rows,
/// as (dx, dy, dz, 0): md::PeriodicBox::minimumImage's op sequence on each
/// component.
__m256d minimumImage(__m256d edge, __m256d invEdge, const SiteRow& a, const SiteRow& b) {
  const __m256d d = _mm256_sub_pd(_mm256_loadu_pd(&a.x), _mm256_loadu_pd(&b.x));
  return _mm256_sub_pd(d, _mm256_mul_pd(edge, _mm256_round_pd(_mm256_mul_pd(d, invEdge), kRound)));
}

/// r^2 of four displacement rows, ((dx*dx + dy*dy) + dz*dz) per lane,
/// after a 4x4 transpose of the rows into dx, dy and dz vectors.
__m256d normSquared4(__m256d d0, __m256d d1, __m256d d2, __m256d d3) {
  const __m256d t0 = _mm256_unpacklo_pd(d0, d1);  // dx0 dx1 dz0 dz1
  const __m256d t1 = _mm256_unpackhi_pd(d0, d1);  // dy0 dy1 0 0
  const __m256d t2 = _mm256_unpacklo_pd(d2, d3);  // dx2 dx3 dz2 dz3
  const __m256d t3 = _mm256_unpackhi_pd(d2, d3);  // dy2 dy3 0 0
  const __m256d dx = _mm256_permute2f128_pd(t0, t2, 0x20);
  const __m256d dy = _mm256_permute2f128_pd(t1, t3, 0x20);
  const __m256d dz = _mm256_permute2f128_pd(t0, t2, 0x31);
  return _mm256_add_pd(_mm256_add_pd(_mm256_mul_pd(dx, dx), _mm256_mul_pd(dy, dy)),
                       _mm256_mul_pd(dz, dz));
}

__m128i loadIndices(const std::int32_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

}  // namespace

void packPairsAvx2(const ForceConstants& c, const PairSlice& pairs, const SiteRow* xyz0,
                   PackedPairs& out) {
  const __m256d edge = _mm256_set1_pd(c.boxEdge);
  const __m256d invEdge = _mm256_set1_pd(c.invBoxEdge);
  const __m256d rc2 = _mm256_set1_pd(c.rc2);
  const __m256d zero = _mm256_setzero_pd();
  const PairSlice p = pairs;
  std::int64_t hits = 0;
  std::int64_t coulombs = 0;
  std::int64_t ljs = 0;
  for (std::int64_t k = 0; k < p.count; k += 4) {
    const __m256d d0 = minimumImage(edge, invEdge, xyz0[p.i[k]], xyz0[p.j[k]]);
    const __m256d d1 = minimumImage(edge, invEdge, xyz0[p.i[k + 1]], xyz0[p.j[k + 1]]);
    const __m256d d2 = minimumImage(edge, invEdge, xyz0[p.i[k + 2]], xyz0[p.j[k + 2]]);
    const __m256d d3 = minimumImage(edge, invEdge, xyz0[p.i[k + 3]], xyz0[p.j[k + 3]]);
    _mm256_storeu_pd(&out.d[k].x, d0);
    _mm256_storeu_pd(&out.d[k + 1].x, d1);
    _mm256_storeu_pd(&out.d[k + 2].x, d2);
    _mm256_storeu_pd(&out.d[k + 3].x, d3);
    const __m256d r2 = normSquared4(d0, d1, d2, d3);
    std::uint32_t species4 = 0;
    std::memcpy(&species4, p.species + k, sizeof species4);
    const __m128i species = _mm_cvtepu8_epi32(_mm_cvtsi32_si128(static_cast<int>(species4)));
    const __m256d qq = _mm256_i32gather_pd(c.qq, species, 8);
    _mm256_storeu_pd(out.r2 + k, r2);
    _mm256_storeu_pd(out.qq + k, qq);
    int within = _mm256_movemask_pd(_mm256_cmp_pd(r2, rc2, _CMP_LT_OQ));
    if (p.count - k < 4) within &= (1 << (p.count - k)) - 1;
    const int charged = _mm256_movemask_pd(_mm256_cmp_pd(qq, zero, _CMP_NEQ_OQ));
    const int oxygenPairs =
        _mm_movemask_ps(_mm_castsi128_ps(_mm_cmpeq_epi32(species, _mm_setzero_si128())));
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

void pairTermsAvx2(const ForceConstants& c, const PackedPairs& packed, const PairTerms& out) {
  const __m256d rcV = _mm256_set1_pd(c.rc);
  const __m256d rc2V = _mm256_set1_pd(c.rc2);
  const __m256d invRcV = _mm256_set1_pd(c.invRc);
  const __m256d invRc2V = _mm256_set1_pd(c.invRc2);
  const __m256d s2V = _mm256_set1_pd(c.s2);
  const __m256d eps4V = _mm256_set1_pd(c.eps4);
  const __m256d eps24V = _mm256_set1_pd(c.eps24);
  const __m256d ljErcV = _mm256_set1_pd(c.ljErc);
  const __m256d ljFrcV = _mm256_set1_pd(c.ljFrc);
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d two = _mm256_set1_pd(2.0);
  for (std::int64_t m = 0; m < packed.coulombs; m += 4) {
    const __m128i at = loadIndices(packed.coulomb + m);
    const __m256d r2 = _mm256_i32gather_pd(packed.r2, at, 8);
    const __m256d qq = _mm256_i32gather_pd(packed.qq, at, 8);
    const __m256d r = _mm256_sqrt_pd(r2);
    const __m256d coulombE = _mm256_mul_pd(
        qq, _mm256_add_pd(_mm256_sub_pd(_mm256_div_pd(one, r), invRcV),
                          _mm256_div_pd(_mm256_sub_pd(r, rcV), rc2V)));
    const __m256d coulombF = _mm256_mul_pd(qq, _mm256_sub_pd(_mm256_div_pd(one, r2), invRc2V));
    _mm256_storeu_pd(out.coulombE + m, coulombE);
    _mm256_storeu_pd(out.coulombS + m, _mm256_div_pd(coulombF, r));
  }
  for (std::int64_t m = 0; m < packed.ljs; m += 4) {
    const __m256d r2 = _mm256_i32gather_pd(packed.r2, loadIndices(packed.lj + m), 8);
    const __m256d r = _mm256_sqrt_pd(r2);
    const __m256d inv2 = _mm256_div_pd(s2V, r2);
    const __m256d inv6 = _mm256_mul_pd(_mm256_mul_pd(inv2, inv2), inv2);
    const __m256d inv12 = _mm256_mul_pd(inv6, inv6);
    const __m256d ljE0 = _mm256_mul_pd(eps4V, _mm256_sub_pd(inv12, inv6));
    const __m256d ljFOverR =
        _mm256_div_pd(_mm256_mul_pd(eps24V, _mm256_sub_pd(_mm256_mul_pd(two, inv12), inv6)), r2);
    const __m256d ljF = _mm256_sub_pd(_mm256_mul_pd(ljFOverR, r), ljFrcV);
    _mm256_storeu_pd(out.ljE + m, _mm256_add_pd(_mm256_sub_pd(ljE0, ljErcV),
                                                _mm256_mul_pd(ljFrcV, _mm256_sub_pd(r, rcV))));
    _mm256_storeu_pd(out.ljS + m, _mm256_div_pd(ljF, r));
  }
}

void forcePairsAvx2(const ForceConstants& c, const PairSlice& pairs, const SiteRow* xyz0,
                    SiteRow* force0, ForceSums& sums) {
  forcePairsInBlocks<packPairsAvx2, pairTermsAvx2>(c, pairs, xyz0, force0, sums);
}

void pairDistancesAvx2(const PairDistanceIn& in, double* r2) {
  const __m256d edge = _mm256_set1_pd(in.boxEdge);
  const __m256d invEdge = _mm256_set1_pd(in.invBoxEdge);
  const PairSlice& p = in.pairs;
  const SiteRow* xyz0 = in.xyz0;
  for (std::int64_t k = 0; k < p.count; k += 4) {
    _mm256_storeu_pd(
        r2 + k, normSquared4(minimumImage(edge, invEdge, xyz0[p.i[k]], xyz0[p.j[k]]),
                             minimumImage(edge, invEdge, xyz0[p.i[k + 1]], xyz0[p.j[k + 1]]),
                             minimumImage(edge, invEdge, xyz0[p.i[k + 2]], xyz0[p.j[k + 2]]),
                             minimumImage(edge, invEdge, xyz0[p.i[k + 3]], xyz0[p.j[k + 3]])));
  }
}

namespace {

// Short names for the noise kernel's lane ops, so its formulas read like
// the scalar reference they copy op for op.
__m256d splat(double v) { return _mm256_set1_pd(v); }
__m256i splat64(long long v) { return _mm256_set1_epi64x(v); }
__m256d add(__m256d a, __m256d b) { return _mm256_add_pd(a, b); }
__m256d sub(__m256d a, __m256d b) { return _mm256_sub_pd(a, b); }
__m256d mul(__m256d a, __m256d b) { return _mm256_mul_pd(a, b); }
__m256d mul(double a, __m256d b) { return _mm256_mul_pd(splat(a), b); }
__m256d add(double a, __m256d b) { return _mm256_add_pd(splat(a), b); }

/// logFixed of kernels_scalar.cpp in four lanes.  The biased exponent
/// k + 1023 is an integer in [0, 2048], so the double with 2^52's bits
/// or'ed with it is 2^52 + k + 1023 exactly, and subtracting 2^52 + 1023
/// leaves k.
__m256d logFixed4(__m256d x) {
  using namespace fdlibm;
  const __m256i bits = _mm256_castpd_si256(x);
  const __m256i high = _mm256_srli_epi64(bits, 32);
  const __m256i mantissaHigh = _mm256_and_si256(high, splat64(0xfffff));
  const __m256i halve =
      _mm256_and_si256(_mm256_add_epi64(mantissaHigh, splat64(0x95f64)), splat64(0x100000));
  const __m256i kBiased =
      _mm256_add_epi64(_mm256_srli_epi64(high, 20), _mm256_srli_epi64(halve, 20));
  const __m256d dk = sub(_mm256_castsi256_pd(_mm256_or_si256(kBiased, splat64(0x4330000000000000))),
                         splat(0x1p52 + 1023.0));
  const __m256i newHigh =
      _mm256_or_si256(mantissaHigh, _mm256_xor_si256(halve, splat64(0x3ff00000)));
  const __m256i normalized = _mm256_or_si256(_mm256_slli_epi64(newHigh, 32),
                                             _mm256_and_si256(bits, splat64(0xffffffff)));
  const __m256d f = sub(_mm256_castsi256_pd(normalized), splat(1.0));
  const __m256d hfsq = mul(mul(0.5, f), f);
  const __m256d s = _mm256_div_pd(f, add(2.0, f));
  const __m256d z = mul(s, s);
  const __m256d w = mul(z, z);
  const __m256d t1 = mul(w, add(kLg2, mul(w, add(kLg4, mul(kLg6, w)))));
  const __m256d t2 = mul(z, add(kLg1, mul(w, add(kLg3, mul(w, add(kLg5, mul(kLg7, w)))))));
  const __m256d r = add(t2, t1);
  return add(add(sub(add(mul(s, add(hfsq, r)), mul(kLn2Lo, dk)), hfsq), f), mul(kLn2Hi, dk));
}

/// cosTwoPiFixed of kernels_scalar.cpp in four lanes: a blend picks sin a
/// in lanes with odd q, and an xor of bit 1 of q + 1 into the sign bit
/// negates quadrants 1 and 2.
__m256d cosTwoPiFixed4(__m256d u) {
  using namespace fdlibm;
  const __m256d t = mul(4.0, u);
  const __m256d shifted = add(kRoundIt, t);
  const __m256d r = sub(t, sub(shifted, splat(kRoundIt)));
  const __m256d a = add(mul(kPio2Hi, r), mul(kPio2Lo, r));
  const __m256d z = mul(a, a);
  const __m256d w = mul(z, z);
  const __m256d rs =
      add(add(kS2, mul(z, add(kS3, mul(kS4, z)))), mul(mul(z, w), add(kS5, mul(kS6, z))));
  const __m256d sinA = add(a, mul(mul(z, a), add(kS1, mul(z, rs))));
  const __m256d rc = add(mul(z, add(kC1, mul(z, add(kC2, mul(kC3, z))))),
                         mul(mul(w, w), add(kC4, mul(z, add(kC5, mul(kC6, z))))));
  const __m256d hz = mul(0.5, z);
  const __m256d oneMinusHz = sub(splat(1.0), hz);
  const __m256d cosA = add(oneMinusHz, add(sub(sub(splat(1.0), oneMinusHz), hz), mul(z, rc)));
  const __m256i q = _mm256_castpd_si256(shifted);
  const __m256i one = splat64(1);
  const __m256d odd = _mm256_castsi256_pd(_mm256_cmpeq_epi64(_mm256_and_si256(q, one), one));
  const __m256i sign =
      _mm256_slli_epi64(_mm256_and_si256(_mm256_add_epi64(q, one), splat64(2)), 62);
  return _mm256_xor_pd(_mm256_blendv_pd(cosA, sinA, odd), _mm256_castsi256_pd(sign));
}

__m256d normals4(__m256d u1, __m256d u2, __m256d center, __m256d scale) {
  const __m256d z = mul(_mm256_sqrt_pd(mul(-2.0, logFixed4(u1))), cosTwoPiFixed4(u2));
  return add(center, mul(scale, z));
}

}  // namespace

void normalsAvx2(const double* u1, const double* u2, double center, double scale, double* out,
                 std::int64_t count) {
  const __m256d centerV = splat(center);
  const __m256d scaleV = splat(scale);
  std::int64_t k = 0;
  for (; k + 4 <= count; k += 4) {
    _mm256_storeu_pd(out + k, normals4(_mm256_loadu_pd(u1 + k), _mm256_loadu_pd(u2 + k), centerV,
                                       scaleV));
  }
  // The count % 4 tail, a single draw included, takes the scalar
  // reference, the same op sequence: a masked 4-lane tail cost a single
  // draw 82-84 ns against 45-47 ns this way.
  normalsScalar(u1 + k, u2 + k, center, scale, out + k, count - k);
}

}  // namespace sfopt::simd::detail

#endif  // x86
