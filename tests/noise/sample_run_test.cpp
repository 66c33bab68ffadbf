// The sampleRun contract: out[i] is bit for bit sample(x, {stream,
// firstIndex + i}) for every objective, whether it overrides sampleRun
// (per-run work hoisted out of the loop) or inherits the per-sample loop.
// The Gaussian objectives draw through simd::addNormalRun, so their cases
// run under every supported ISA and must give the scalar level's bits.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "noise/heteroscedastic_function.hpp"
#include "noise/noisy_function.hpp"
#include "simd/isa.hpp"
#include "testfunctions/functions.hpp"
#include "water/cost.hpp"
#include "water/md_objective.hpp"

namespace {

using namespace sfopt;

constexpr std::uint64_t kFirstIndices[] = {0, 7, (1ULL << 40) + 3};
// 2-9 cover every lane tail of the 4-lane noise kernel.
constexpr std::size_t kLengths[] = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 63, 64, 65, 1000};

/// Checks the contract for every (length, first index) pair, and that a
/// run writes exactly its own span: sentinels on both sides stay put.
void expectRunMatchesLoop(const noise::StochasticObjective& obj, const std::vector<double>& x,
                          std::uint64_t stream, std::span<const std::size_t> lengths) {
  constexpr double kSentinel = -12345.0;
  for (const std::uint64_t first : kFirstIndices) {
    for (const std::size_t n : lengths) {
      SCOPED_TRACE(testing::Message() << "first " << first << ", length " << n);
      std::vector<double> buffer(n + 2, kSentinel);
      obj.sampleRun(x, stream, first, std::span<double>(buffer).subspan(1, n));
      EXPECT_EQ(buffer.front(), kSentinel);
      EXPECT_EQ(buffer.back(), kSentinel);
      for (std::size_t i = 0; i < n; ++i) {
        const double one = obj.sample(x, {stream, first + i});
        ASSERT_EQ(std::bit_cast<std::uint64_t>(buffer[i + 1]), std::bit_cast<std::uint64_t>(one))
            << "sample " << i << ": run " << buffer[i + 1] << " vs single " << one;
      }
    }
  }
}

struct IsaGuard {
  simd::Isa saved = simd::activeIsa();
  ~IsaGuard() { simd::setActiveIsa(saved); }
};

/// The contract under every supported ISA, and a 1000-draw run at index
/// 2^40 + 3 under each that is the scalar level's run bit for bit.
void expectRunMatchesLoopUnderEveryIsa(const noise::StochasticObjective& obj,
                                       const std::vector<double>& x, std::uint64_t stream) {
  std::vector<double> scalarRun;
  for (const simd::Isa isa : simd::supportedIsas()) {  // Scalar first
    SCOPED_TRACE(simd::isaName(isa));
    IsaGuard guard;
    simd::setActiveIsa(isa);
    expectRunMatchesLoop(obj, x, stream, kLengths);
    std::vector<double> run(1000);
    obj.sampleRun(x, stream, kFirstIndices[2], run);
    if (scalarRun.empty()) scalarRun = run;
    for (std::size_t i = 0; i < run.size(); ++i) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(run[i]), std::bit_cast<std::uint64_t>(scalarRun[i]))
          << "sample " << i << ": " << run[i] << " vs scalar " << scalarRun[i];
    }
  }
}

/// A decorator that overrides only sample(), so it inherits the default
/// per-sample sampleRun loop.
class PerSampleOnly final : public noise::StochasticObjective {
 public:
  explicit PerSampleOnly(const noise::StochasticObjective& inner) : inner_(inner) {}
  [[nodiscard]] std::size_t dimension() const override { return inner_.dimension(); }
  [[nodiscard]] double sampleDuration() const override { return inner_.sampleDuration(); }
  [[nodiscard]] double sample(std::span<const double> x, noise::SampleKey key) const override {
    return inner_.sample(x, key);
  }

 private:
  const noise::StochasticObjective& inner_;
};

noise::NoisyFunction noisyRosenbrock() {
  noise::NoisyFunction::Options o;
  o.sigma0 = 0.7;
  o.sampleDuration = 0.3;
  o.seed = 31;
  return noise::NoisyFunction(
      3, [](std::span<const double> x) { return testfunctions::rosenbrock(x); }, o);
}

TEST(SampleRun, NoisyFunctionRunIsBitwiseThePerSampleLoop) {
  expectRunMatchesLoopUnderEveryIsa(noisyRosenbrock(), {0.3, -1.1, 2.5}, 4);
}

TEST(SampleRun, HeteroscedasticFunctionRunIsBitwiseThePerSampleLoop) {
  noise::HeteroscedasticFunction::Options o;
  o.sampleDuration = 2.5;
  o.seed = 8;
  const noise::HeteroscedasticFunction obj(
      2, [](std::span<const double> x) { return testfunctions::sphere(x); },
      [](std::span<const double> x) { return 0.3 + std::hypot(x[0], x[1]); }, o);
  expectRunMatchesLoopUnderEveryIsa(obj, {1.7, -0.9}, 12);
}

TEST(SampleRun, WaterCostObjectiveRunIsBitwiseThePerSampleLoop) {
  water::WaterCostObjective::Options o;
  o.sigma0 = 0.37;
  o.sampleDuration = 1.5;
  const water::WaterCostObjective obj(o);
  expectRunMatchesLoopUnderEveryIsa(obj, {0.186, 3.40, 0.45}, 2);
}

TEST(SampleRun, DecoratorOverridingOnlySampleUsesTheDefaultLoop) {
  const noise::NoisyFunction inner = noisyRosenbrock();
  const PerSampleOnly obj(inner);
  expectRunMatchesLoop(obj, {0.3, -1.1, 2.5}, 4, kLengths);
  // The default loop reaches the wrapped objective's own values.
  std::vector<double> run(65);
  obj.sampleRun(std::vector<double>{0.3, -1.1, 2.5}, 4, 7, run);
  std::vector<double> direct(65);
  inner.sampleRun(std::vector<double>{0.3, -1.1, 2.5}, 4, 7, direct);
  EXPECT_EQ(run, direct);
}

TEST(SampleRun, MdWaterObjectiveKeepsTheDefaultLoop) {
  // Each MD sample is a full protocol run (tens of ms on the tiny
  // protocol), so only short runs: the default loop has no length-
  // dependent path to cover beyond them.
  water::MdWaterObjective::Options o;
  o.simulation.molecules = 27;
  o.simulation.cutoff = 4.5;
  o.simulation.rdfRMax = 4.5;
  o.simulation.rdfBins = 45;
  o.simulation.equilibrationSteps = 200;
  o.simulation.productionSteps = 200;
  o.simulation.sampleEvery = 10;
  const water::MdWaterObjective obj(o);
  constexpr std::size_t kShortLengths[] = {0, 1, 2};
  expectRunMatchesLoop(obj, {0.155, 3.15, 0.52}, 1, kShortLengths);
}

}  // namespace
