// Portable reference kernels.  The Welford kernel is the sequential
// stats::Welford::add stream bit for bit; the force and distance kernels
// are the exact per-lane math of the vector kernels written in plain C,
// one pair at a time, the force kernel in the same three passes.
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

/// Minimum-image displacement and its square norm, one pair: the op
/// sequence of md::PeriodicBox::minimumImage followed by normSquared, with
/// roundToNearest standing in for its bit-identical std::nearbyint.
struct Image {
  double dx, dy, dz, r2;
};

inline Image minimumImage(double edge, double invEdge, const double* x, const double* y,
                          const double* z, std::size_t i, std::size_t j) {
  double dx = x[i] - x[j];
  double dy = y[i] - y[j];
  double dz = z[i] - z[j];
  dx -= edge * roundToNearest(dx * invEdge);
  dy -= edge * roundToNearest(dy * invEdge);
  dz -= edge * roundToNearest(dz * invEdge);
  return {dx, dy, dz, (dx * dx + dy * dy) + dz * dz};
}

}  // namespace

void forcePairBlockScalar(const ForceConstants& c, const ForcePairBlockIn& in,
                          const ForcePairBlockOut& out) {
  // Local copies: the byte flag stores could alias the structs' fields,
  // which would make the compiler reload every pointer after each one.
  const ForcePairBlockIn src = in;
  const ForcePairBlockOut dst = out;

  // Pass 1: displacement, r^2, qq and the flags of every candidate.
  double r2s[kForceBlockPairs];
  double qqs[kForceBlockPairs];
  for (std::int64_t k = 0; k < src.count; ++k) {
    const auto i = static_cast<std::size_t>(src.i[k]);
    const auto j = static_cast<std::size_t>(src.j[k]);
    const Image d = minimumImage(c.boxEdge, c.invBoxEdge, src.x, src.y, src.z, i, j);
    const double qq = (c.coulombScale * src.q[i]) * src.q[j];
    const bool within = d.r2 < c.rc2;
    dst.dx[k] = d.dx;
    dst.dy[k] = d.dy;
    dst.dz[k] = d.dz;
    dst.coulombE[k] = 0.0;
    dst.coulombS[k] = 0.0;
    dst.ljE[k] = 0.0;
    dst.ljS[k] = 0.0;
    dst.withinCutoff[k] = within;
    dst.coulombActive[k] = within & (qq != 0.0);
    dst.ljActive[k] = within & (src.oxy[i] * src.oxy[j] > 0.5);
    r2s[k] = d.r2;
    qqs[k] = qq;
  }

  // Pass 2: the active positions of each term, in stream order.
  std::int32_t coulombAt[kForceBlockPairs + kForceLaneGroup];
  std::int32_t ljAt[kForceBlockPairs + kForceLaneGroup];
  const std::int64_t coulombCount = compactPositions(dst.coulombActive, src.count, coulombAt);
  const std::int64_t ljCount = compactPositions(dst.ljActive, src.count, ljAt);

  // Pass 3: Coulomb, force-shifted: V = C q q (1/r - 1/rc + (r - rc)/rc^2).
  for (std::int64_t m = 0; m < coulombCount; ++m) {
    const auto k = static_cast<std::size_t>(coulombAt[m]);
    const double r2 = r2s[k];
    const double r = std::sqrt(r2);
    const double qq = qqs[k];
    const double coulombF = qq * (1.0 / r2 - c.invRc2);
    dst.coulombE[k] = qq * ((1.0 / r - c.invRc) + (r - c.rc) / c.rc2);
    dst.coulombS[k] = coulombF / r;
  }
  // Lennard-Jones (O-O only), force-shifted.
  for (std::int64_t m = 0; m < ljCount; ++m) {
    const auto k = static_cast<std::size_t>(ljAt[m]);
    const double r2 = r2s[k];
    const double r = std::sqrt(r2);
    const double inv2 = c.s2 / r2;
    const double inv6 = (inv2 * inv2) * inv2;
    const double inv12 = inv6 * inv6;
    const double ljE0 = c.eps4 * (inv12 - inv6);
    const double ljFOverR = c.eps24 * (2.0 * inv12 - inv6) / r2;
    const double ljF = ljFOverR * r - c.ljFrc;
    dst.ljE[k] = (ljE0 - c.ljErc) + c.ljFrc * (r - c.rc);
    dst.ljS[k] = ljF / r;
  }
}

void pairDistancesScalar(const PairDistanceIn& in, double* r2) {
  for (std::int64_t k = 0; k < in.count; ++k) {
    r2[k] = minimumImage(in.boxEdge, in.invBoxEdge, in.x, in.y, in.z,
                         static_cast<std::size_t>(in.i[k]), static_cast<std::size_t>(in.j[k]))
                .r2;
  }
}

}  // namespace sfopt::simd::detail
