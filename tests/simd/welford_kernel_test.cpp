#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <vector>

#include "simd/dispatch.hpp"
#include "simd/isa.hpp"
#include "stats/welford.hpp"

namespace {

using namespace sfopt;

struct IsaGuard {
  simd::Isa saved = simd::activeIsa();
  ~IsaGuard() { simd::setActiveIsa(saved); }
};

stats::Welford chunkWith(simd::Isa isa, const std::vector<double>& samples) {
  IsaGuard guard;
  simd::setActiveIsa(isa);
  return simd::welfordChunk(samples);
}

/// The 4-lane order, written out independently of the library: lane l
/// takes samples l, l+4, ... through Welford::add, the lanes merge 0..3,
/// and the count % 4 tail is added one sample at a time.
stats::Welford fourLaneReference(const std::vector<double>& samples) {
  const std::size_t main = samples.size() - samples.size() % 4;
  stats::Welford lanes[4];
  for (std::size_t k = 0; k < main; ++k) lanes[k % 4].add(samples[k]);
  stats::Welford merged;
  for (const stats::Welford& lane : lanes) merged.merge(lane);
  for (std::size_t k = main; k < samples.size(); ++k) merged.add(samples[k]);
  return merged;
}

/// Randomized chunks spanning several magnitudes, plus adversarial
/// values: exact zeros, denormals, and sign flips.
std::vector<double> adversarialSamples(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::normal_distribution<double> dist(0.5, 2.0);
  std::vector<double> samples(n);
  for (std::size_t i = 0; i < n; ++i) {
    switch (i % 7) {
      case 3:
        samples[i] = 0.0;
        break;
      case 5:
        samples[i] = std::numeric_limits<double>::denorm_min() *
                     static_cast<double>(1 + (i % 13));
        break;
      case 6:
        samples[i] = dist(rng) * 1e12;
        break;
      default:
        samples[i] = dist(rng);
        break;
    }
  }
  return samples;
}

void expectBitwiseEqual(const stats::Welford& got, const stats::Welford& want, simd::Isa isa,
                        std::size_t n) {
  EXPECT_EQ(got.count(), want.count()) << simd::isaName(isa) << " n=" << n;
  EXPECT_EQ(got.mean(), want.mean()) << simd::isaName(isa) << " n=" << n;
  EXPECT_EQ(got.sumSquaredDeviations(), want.sumSquaredDeviations())
      << simd::isaName(isa) << " n=" << n;
}

TEST(SimdWelford, EveryIsaIsTheFourLaneReferenceBitwise) {
  for (std::size_t n = 0; n <= 1000; ++n) {
    const auto samples = adversarialSamples(n, 40 + n);
    const auto want = fourLaneReference(samples);
    for (const simd::Isa isa : simd::supportedIsas()) {
      expectBitwiseEqual(chunkWith(isa, samples), want, isa, n);
    }
  }
}

TEST(SimdWelford, ChunksShorterThanTheLaneWidthMatchScalarBitwise) {
  // No lane takes a sample, so the tail alone must be the sequential
  // Welford::add stream.
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{2},
                              std::size_t{3}}) {
    const auto samples = adversarialSamples(n, 100 + n);
    stats::Welford want;
    for (const double x : samples) want.add(x);
    for (const simd::Isa isa : simd::supportedIsas()) {
      expectBitwiseEqual(chunkWith(isa, samples), want, isa, n);
    }
  }
}

TEST(SimdWelford, EachIsaIsBitwiseReproducibleRunToRun) {
  const auto samples = adversarialSamples(333, 11);
  for (const simd::Isa isa : simd::supportedIsas()) {
    expectBitwiseEqual(chunkWith(isa, samples), chunkWith(isa, samples), isa, samples.size());
  }
}

}  // namespace
