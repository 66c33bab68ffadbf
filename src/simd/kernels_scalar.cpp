// Portable reference kernels.  The Welford kernel is the sequential
// stats::Welford::add stream bit for bit; the force and distance kernels
// are the exact per-lane math of the vector kernels written in plain C,
// one pair at a time, the force kernel in the same passes and drain.
// Compiled with -ffp-contract=off so no FMA contraction can make this TU
// disagree with the baseline-ISA code elsewhere in the tree.

#include <cmath>

#include "simd/kernels.hpp"

namespace sfopt::simd::detail {

void welfordChunkScalar(const double* samples, std::int64_t count, std::int64_t* outN,
                        double* outMean, double* outM2) {
  std::int64_t n = 0;
  double mean = 0.0;
  double m2 = 0.0;
  for (std::int64_t k = 0; k < count; ++k) {
    const double x = samples[k];
    ++n;
    const double delta = x - mean;
    mean += delta / static_cast<double>(n);
    m2 += delta * (x - mean);
  }
  *outN = n;
  *outMean = mean;
  *outM2 = m2;
}

namespace {

/// std::nearbyint under the default round-to-nearest-even mode, without
/// the libm call: adding and removing 2^52 (with x's sign) rounds any
/// |x| < 2^52 to an integer, copysign restores the sign of a zero result,
/// and larger magnitudes, infinities and NaN are already their own value.
inline double roundToNearest(double x) {
  constexpr double kTwo52 = 0x1p52;
  if (!(std::fabs(x) < kTwo52)) return x;
  const double t = std::copysign(kTwo52, x);
  return std::copysign((x + t) - t, x);
}

/// Minimum-image displacement of one pair: the op sequence of
/// md::PeriodicBox::minimumImage, with roundToNearest standing in for its
/// bit-identical std::nearbyint.
struct Image {
  double dx, dy, dz;
};

inline Image minimumImage(double edge, double invEdge, const SiteRow& a, const SiteRow& b) {
  double dx = a.x - b.x;
  double dy = a.y - b.y;
  double dz = a.z - b.z;
  dx -= edge * roundToNearest(dx * invEdge);
  dy -= edge * roundToNearest(dy * invEdge);
  dz -= edge * roundToNearest(dz * invEdge);
  return {dx, dy, dz};
}

/// normSquared's op sequence.
inline double normSquared(const Image& d) { return (d.dx * d.dx + d.dy * d.dy) + d.dz * d.dz; }

}  // namespace

// The kernels below copy what they read from the structs into locals: a
// double or int32 store through an output array could alias a struct's
// field, which would make the compiler reload every one after each store.

void packPairsScalar(const ForceConstants& c, const PairSlice& pairs, const SiteRow* xyz0,
                     PackedPairs& out) {
  const double edge = c.boxEdge;
  const double invEdge = c.invBoxEdge;
  const double rc2 = c.rc2;
  const double qqOf[4] = {c.qq[0], c.qq[1], c.qq[2], c.qq[3]};
  const PairSlice p = pairs;
  const PackedPairs dst = out;
  std::int64_t hits = 0;
  std::int64_t coulombs = 0;
  std::int64_t ljs = 0;
  for (std::int64_t k = 0; k < p.count; ++k) {
    const Image d = minimumImage(edge, invEdge, xyz0[p.i[k]], xyz0[p.j[k]]);
    const double r2 = normSquared(d);
    const double qq = qqOf[p.species[k]];
    dst.d[k].x = d.dx;
    dst.d[k].y = d.dy;
    dst.d[k].z = d.dz;
    dst.d[k].pad = 0.0;
    dst.r2[k] = r2;
    dst.qq[k] = qq;
    const auto at = static_cast<std::int32_t>(k);
    const int within = r2 < rc2;
    dst.hit[hits] = at;
    dst.coulomb[coulombs] = at;
    dst.lj[ljs] = at;
    hits += within;
    coulombs += within & (qq != 0.0);
    ljs += within & (p.species[k] == kPairOO);
  }
  padPacked(dst.hit, hits);
  padPacked(dst.coulomb, coulombs);
  padPacked(dst.lj, ljs);
  out.hits = hits;
  out.coulombs = coulombs;
  out.ljs = ljs;
}

void pairTermsScalar(const ForceConstants& constants, const PackedPairs& packed,
                     const PairTerms& out) {
  const ForceConstants c = constants;
  const PackedPairs src = packed;
  const PairTerms dst = out;
  // Coulomb, force-shifted: V = qq (1/r - 1/rc + (r - rc)/rc^2).
  for (std::int64_t m = 0; m < src.coulombs; ++m) {
    const std::int32_t k = src.coulomb[m];
    const double r2 = src.r2[k];
    const double r = std::sqrt(r2);
    const double qq = src.qq[k];
    const double coulombF = qq * (1.0 / r2 - c.invRc2);
    dst.coulombE[m] = qq * ((1.0 / r - c.invRc) + (r - c.rc) / c.rc2);
    dst.coulombS[m] = coulombF / r;
  }
  // Lennard-Jones (O-O only), force-shifted.
  for (std::int64_t m = 0; m < src.ljs; ++m) {
    const double r2 = src.r2[src.lj[m]];
    const double r = std::sqrt(r2);
    const double inv2 = c.s2 / r2;
    const double inv6 = (inv2 * inv2) * inv2;
    const double inv12 = inv6 * inv6;
    const double ljE0 = c.eps4 * (inv12 - inv6);
    const double ljFOverR = c.eps24 * (2.0 * inv12 - inv6) / r2;
    const double ljF = ljFOverR * r - c.ljFrc;
    dst.ljE[m] = (ljE0 - c.ljErc) + c.ljFrc * (r - c.rc);
    dst.ljS[m] = ljF / r;
  }
}

void forcePairsScalar(const ForceConstants& c, const PairSlice& pairs, const SiteRow* xyz0,
                      SiteRow* force0, ForceSums& sums) {
  forcePairsInBlocks<packPairsScalar, pairTermsScalar>(c, pairs, xyz0, force0, sums);
}

void pairDistancesScalar(const PairDistanceIn& in, double* r2) {
  const PairDistanceIn src = in;
  for (std::int64_t k = 0; k < src.pairs.count; ++k) {
    r2[k] = normSquared(minimumImage(src.boxEdge, src.invBoxEdge, src.xyz0[src.pairs.i[k]],
                                     src.xyz0[src.pairs.j[k]]));
  }
}

}  // namespace sfopt::simd::detail
