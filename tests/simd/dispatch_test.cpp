#include "simd/dispatch.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "simd/isa.hpp"
#include "telemetry/telemetry.hpp"

namespace {

using namespace sfopt;

/// Restores the active ISA on scope exit, so a test that pins dispatch
/// cannot leak its choice into the rest of the suite.
struct IsaGuard {
  simd::Isa saved = simd::activeIsa();
  ~IsaGuard() { simd::setActiveIsa(saved); }
};

constexpr simd::Isa kAllIsas[] = {simd::Isa::Scalar, simd::Isa::Sse4, simd::Isa::Avx2};

TEST(SimdIsa, NamesRoundTrip) {
  for (const simd::Isa isa : kAllIsas) {
    simd::Isa parsed{};
    ASSERT_TRUE(simd::parseIsaName(simd::isaName(isa), parsed)) << simd::isaName(isa);
    EXPECT_EQ(parsed, isa);
  }
  simd::Isa parsed{};
  EXPECT_FALSE(simd::parseIsaName("bogus", parsed));
  EXPECT_FALSE(simd::parseIsaName("", parsed));
  EXPECT_FALSE(simd::parseIsaName("AVX2", parsed));  // names are lower-case
  EXPECT_FALSE(simd::parseIsaName("neon", parsed));  // aarch64 runs the scalar kernels
}

TEST(SimdIsa, ScalarIsAlwaysSupportedAndListedFirst) {
  EXPECT_TRUE(simd::isaSupported(simd::Isa::Scalar));
  const auto supported = simd::supportedIsas();
  ASSERT_FALSE(supported.empty());
  EXPECT_EQ(supported.front(), simd::Isa::Scalar);
  for (const simd::Isa isa : supported) EXPECT_TRUE(simd::isaSupported(isa));
}

TEST(SimdIsa, DetectedIsaIsSupportedAndWidest) {
  const simd::Isa best = simd::detectBestIsa();
  EXPECT_TRUE(simd::isaSupported(best));
  EXPECT_EQ(simd::supportedIsas().back(), best);
}

TEST(SimdIsa, ActiveIsaIsAlwaysSupported) {
  EXPECT_TRUE(simd::isaSupported(simd::activeIsa()));
}

TEST(SimdIsa, SetActiveIsaPinsEachSupportedLevel) {
  IsaGuard guard;
  for (const simd::Isa isa : simd::supportedIsas()) {
    simd::setActiveIsa(isa);
    EXPECT_EQ(simd::activeIsa(), isa);
  }
}

TEST(SimdIsa, SetActiveIsaRejectsUnsupportedLevels) {
  IsaGuard guard;
  const simd::Isa before = simd::activeIsa();
  for (const simd::Isa isa : kAllIsas) {
    if (simd::isaSupported(isa)) continue;
    EXPECT_THROW(simd::setActiveIsa(isa), std::invalid_argument) << simd::isaName(isa);
    // A rejected request must leave the previous level active.
    EXPECT_EQ(simd::activeIsa(), before);
  }
}

TEST(SimdIsa, SetActiveIsaByNameRejectsUnknownNamesListingOptions) {
  IsaGuard guard;
  try {
    simd::setActiveIsaByName("bogus");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("supported"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("scalar"), std::string::npos);
  }
}

TEST(SimdDispatch, CountsGrowAndTelemetryPublishesGauges) {
  IsaGuard guard;
  simd::setActiveIsa(simd::Isa::Scalar);
  const auto before = simd::dispatchCounts();
  const std::vector<double> samples{1.0, 2.0, 3.0, 4.0};
  (void)simd::welfordChunk(samples);
  const auto after = simd::dispatchCounts();
  EXPECT_EQ(after.welfordChunks, before.welfordChunks + 1);
  EXPECT_GE(after.forceBlocks, before.forceBlocks);

  telemetry::Telemetry spine;
  simd::publishTelemetry(spine);
  bool sawIsa = false;
  bool sawWelford = false;
  for (const auto& m : spine.metrics().snapshot()) {
    if (m.name == "simd.isa") {
      sawIsa = true;
      EXPECT_EQ(m.numValue, static_cast<double>(simd::Isa::Scalar));
    }
    if (m.name == "simd.dispatch.welford_chunks") {
      sawWelford = true;
      EXPECT_GE(m.numValue, static_cast<double>(after.welfordChunks));
    }
  }
  EXPECT_TRUE(sawIsa);
  EXPECT_TRUE(sawWelford);
}

}  // namespace
