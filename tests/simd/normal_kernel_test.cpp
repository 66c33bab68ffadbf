// The Gaussian noise kernel behind simd::addNormalRun: every level's
// lanes are the scalar reference's op sequence bit for bit, at the edges
// of its log and cos reductions too; the draws stay within 1e-14 of
// libm's Box-Muller (noise::gaussianAt) and keep the standard normal's
// moments and tails.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <numbers>
#include <span>
#include <vector>

#include "noise/rng.hpp"
#include "simd/dispatch.hpp"
#include "simd/isa.hpp"
#include "simd/kernels.hpp"
#include "stats/welford.hpp"

namespace {

using namespace sfopt;

struct IsaGuard {
  simd::Isa saved = simd::activeIsa();
  ~IsaGuard() { simd::setActiveIsa(saved); }
};

std::uint64_t bitsOf(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Every level's normals kernel against normalsScalar, bitwise, over
/// uniforms u1, u2 at each start offset and length up to their size.
void expectLanesMatchScalar(const std::vector<double>& u1, const std::vector<double>& u2,
                            double center, double scale) {
  const auto size = static_cast<std::int64_t>(u1.size());
  std::vector<double> want(u1.size());
  simd::detail::normalsScalar(u1.data(), u2.data(), center, scale, want.data(), size);
  for (const simd::Isa isa : simd::supportedIsas()) {
    const simd::detail::NormalsFn normals = simd::detail::kernelsFor(isa).normals;
    for (std::int64_t offset = 0; offset < 4 && offset <= size; ++offset) {
      for (std::int64_t n = 0; offset + n <= size; ++n) {
        // Sentinels on both sides: a kernel writes exactly its count.
        std::vector<double> got(static_cast<std::size_t>(n) + 2, -7.5);
        normals(u1.data() + offset, u2.data() + offset, center, scale, got.data() + 1, n);
        ASSERT_EQ(got.front(), -7.5);
        ASSERT_EQ(got.back(), -7.5);
        for (std::int64_t i = 0; i < n; ++i) {
          const std::size_t at = static_cast<std::size_t>(offset + i);
          ASSERT_EQ(bitsOf(got[static_cast<std::size_t>(i) + 1]), bitsOf(want[at]))
              << simd::isaName(isa) << " offset " << offset << " length " << n << " entry " << i
              << ": u1 " << u1[at] << ", u2 " << u2[at];
        }
      }
    }
  }
}

double libmBoxMuller(double u1, double u2) {
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * std::numbers::pi * u2);
}

TEST(SimdNormalKernel, LanesAreTheScalarReferenceBitwise) {
  const std::uint64_t prefix = noise::CounterRng(0x5f0b).streamPrefix(9);
  for (const std::uint64_t first : {0ULL, (1ULL << 40) + 3}) {
    std::vector<double> u1(70);
    std::vector<double> u2(70);
    simd::detail::uniformPairs(prefix, first, u1.data(), u2.data(), 70);
    expectLanesMatchScalar(u1, u2, 0.0, 1.0);
    expectLanesMatchScalar(u1, u2, 0x1.e1988e0370322p+8, 0.37);
  }
}

/// u1 at the ends of its range and on both sides of the mantissa cut at
/// sqrt(2)/2 (above it, log halves the mantissa), in two binades.
std::vector<double> edgeU1() {
  return {0x1.0p-54,
          0x1.0p-54 + 0x1.0p-106,
          std::nextafter(1.0, 0.0),
          1.0,
          0.5,
          std::bit_cast<double>(std::uint64_t{0x3fe6a09bffffffff}),
          std::bit_cast<double>(std::uint64_t{0x3fe6a09c00000000}),
          std::numbers::sqrt2 / 2.0,
          std::bit_cast<double>(std::uint64_t{0x3f56a09bffffffff}),
          std::bit_cast<double>(std::uint64_t{0x3f56a09c00000000}),
          0.1,
          0.9};
}

/// u2 at the quadrant points of 4u, the rounding ties between them (1/8:
/// 4u = 1/2 rounds to 0, 3/8 and 5/8 to 2), one ulp around 1/4, and the
/// end of its range.
std::vector<double> edgeU2() {
  return {0.0,
          0x1.0p-53,
          0.125,
          std::nextafter(0.25, 0.0),
          0.25,
          std::nextafter(0.25, 1.0),
          0.375,
          0.5,
          0.625,
          0.75,
          0.875,
          std::nextafter(1.0, 0.0)};
}

TEST(SimdNormalKernel, EdgeInputsAreBitwiseAcrossIsasAndNearLibm) {
  std::vector<double> u1;
  std::vector<double> u2;
  for (const double a : edgeU1()) {
    for (const double b : edgeU2()) {
      u1.push_back(a);
      u2.push_back(b);
    }
  }
  expectLanesMatchScalar(u1, u2, 0.0, 1.0);

  std::vector<double> z(u1.size());
  simd::detail::normalsScalar(u1.data(), u2.data(), 0.0, 1.0, z.data(),
                              static_cast<std::int64_t>(z.size()));
  for (std::size_t k = 0; k < z.size(); ++k) {
    EXPECT_NEAR(z[k], libmBoxMuller(u1[k], u2[k]), 1e-14) << "u1 " << u1[k] << ", u2 " << u2[k];
  }
}

TEST(SimdNormalKernel, QuadrantPointsAreExact) {
  // cos(2 pi u) reduces 4u exactly: at u = 0, 1/4, 1/2, 3/4 the cosine is
  // exactly 1, 0, -1, 0, so the draw there is +-sqrt(-2 log u1) or zero.
  for (const double a : edgeU1()) {
    const std::vector<double> u1(4, a);
    const std::vector<double> u2{0.0, 0.25, 0.5, 0.75};
    std::vector<double> z(4);
    simd::detail::normalsScalar(u1.data(), u2.data(), 0.0, 1.0, z.data(), 4);
    EXPECT_GE(z[0], 0.0) << "u1 " << a;
    EXPECT_EQ(z[1], 0.0) << "u1 " << a;
    EXPECT_EQ(z[2], -z[0]) << "u1 " << a;
    EXPECT_EQ(z[3], 0.0) << "u1 " << a;
  }
  // log(1) is +0 and the draw at u1 = 1 is a zero: out is the center.
  const double one = 1.0;
  const double quarter = 0.125;
  double out = 0.0;
  simd::detail::normalsScalar(&one, &quarter, 3.5, 2.0, &out, 1);
  EXPECT_EQ(out, 3.5);
}

TEST(SimdNormalKernel, WithinOneEMinus14OfLibmGaussianAt) {
  // 2^20 keys over four streams, in 64-draw runs through the dispatcher.
  const noise::CounterRng rng(0x5f0b);
  constexpr std::uint64_t kPerStream = 1ULL << 18;
  std::vector<double> out(64);
  double worst = 0.0;
  for (std::uint64_t stream = 0; stream < 4; ++stream) {
    const std::uint64_t prefix = rng.streamPrefix(stream * 7919 + 1);
    const std::uint64_t base = stream == 3 ? (1ULL << 40) + 3 : 0;
    for (std::uint64_t first = base; first < base + kPerStream; first += 64) {
      simd::addNormalRun(prefix, first, 0.0, 1.0, out);
      for (std::size_t i = 0; i < out.size(); ++i) {
        const double err = std::fabs(out[i] - noise::gaussianAt(prefix, first + i));
        if (err > worst) worst = err;
        ASSERT_LE(err, 1e-14) << "stream " << stream << ", index " << first + i;
      }
    }
  }
  RecordProperty("max_abs_difference", testing::PrintToString(worst));
}

TEST(SimdNormalKernel, RunsGiveEachDrawTheBitsOfASingleDraw) {
  const std::uint64_t prefix = noise::CounterRng(31).streamPrefix(4);
  for (const std::uint64_t first : {0ULL, 7ULL, (1ULL << 40) + 3}) {
    std::vector<double> single(200);
    {
      IsaGuard guard;
      simd::setActiveIsa(simd::Isa::Scalar);
      for (std::size_t i = 0; i < single.size(); ++i) {
        simd::addNormalRun(prefix, first + i, 1.8125, 2.0, std::span<double>(&single[i], 1));
      }
    }
    for (const simd::Isa isa : simd::supportedIsas()) {
      IsaGuard guard;
      simd::setActiveIsa(isa);
      for (const std::size_t n : {1, 2, 3, 4, 5, 9, 63, 64, 65, 129, 200}) {
        std::vector<double> run(n);
        simd::addNormalRun(prefix, first, 1.8125, 2.0, run);
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(bitsOf(run[i]), bitsOf(single[i]))
              << simd::isaName(isa) << " first " << first << " length " << n << " draw " << i;
        }
      }
    }
  }
}

std::vector<double> standardDraws(std::uint64_t seed, std::size_t n) {
  std::vector<double> z(n);
  simd::addNormalRun(noise::CounterRng(seed).streamPrefix(0), 0, 0.0, 1.0, z);
  return z;
}

TEST(SimdNormalKernel, MomentsMatchStandardNormal) {
  stats::Welford w;
  for (const double z : standardDraws(11, 100000)) w.add(z);
  EXPECT_NEAR(w.mean(), 0.0, 0.02);
  EXPECT_NEAR(w.variance(), 1.0, 0.03);
}

TEST(SimdNormalKernel, TailFractionReasonable) {
  // ~4.55% of standard normal draws lie beyond 2 sigma.
  const std::vector<double> z = standardDraws(17, 100000);
  int beyond = 0;
  for (const double v : z) beyond += std::fabs(v) > 2.0 ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(beyond) / static_cast<double>(z.size()), 0.0455, 0.01);
}

}  // namespace
