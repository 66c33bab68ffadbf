#include "core/sampling_context.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <utility>
#include <vector>

#include "core/noise_probe.hpp"
#include "core/sampling_backend.hpp"
#include "tests/core/test_helpers.hpp"

namespace {

using namespace sfopt;
using core::SamplingContext;
using core::SigmaMode;
using core::Vertex;

TEST(SamplingContext, CreateVertexSamplesAndCounts) {
  auto obj = test::noisySphere(2, 1.0);
  SamplingContext ctx(obj);
  auto v = ctx.createVertex({1.0, 1.0}, 5);
  EXPECT_EQ(v->sampleCount(), 5);
  EXPECT_EQ(ctx.totalSamples(), 5);
  EXPECT_DOUBLE_EQ(ctx.now(), 0.0);  // creation does not advance the clock
}

TEST(SamplingContext, VertexIdsAreUnique) {
  auto obj = test::noisySphere(2, 1.0);
  SamplingContext ctx(obj);
  auto a = ctx.createVertex({0.0, 0.0}, 1);
  auto b = ctx.createVertex({0.0, 0.0}, 1);
  EXPECT_NE(a->id(), b->id());
  EXPECT_EQ(ctx.verticesCreated(), 2);
}

TEST(SamplingContext, DimensionMismatchThrows) {
  auto obj = test::noisySphere(3, 1.0);
  SamplingContext ctx(obj);
  EXPECT_THROW((void)ctx.createVertex({1.0, 1.0}, 1), std::invalid_argument);
}

TEST(SamplingContext, RefineRespectsCap) {
  auto obj = test::noisySphere(2, 1.0);
  SamplingContext::Options opts;
  opts.maxSamplesPerVertex = 10;
  SamplingContext ctx(obj, opts);
  auto v = ctx.createVertex({0.0, 0.0}, 4);
  EXPECT_EQ(ctx.refine(*v, 100), 6);  // only room for 6 more
  EXPECT_EQ(v->sampleCount(), 10);
  EXPECT_TRUE(ctx.atSampleCap(*v));
  EXPECT_EQ(ctx.refine(*v, 5), 0);
}

TEST(SamplingContext, CoSampleChargesMaxDuration) {
  auto obj = test::noisySphere(2, 1.0);  // sampleDuration = 1
  SamplingContext ctx(obj);
  auto a = ctx.createVertex({0.0, 0.0}, 1);
  auto b = ctx.createVertex({1.0, 1.0}, 1);
  ctx.coSample({{a.get(), 10}, {b.get(), 3}});
  // Concurrent refinement: wall time advances by max(10, 3) * dt = 10.
  EXPECT_DOUBLE_EQ(ctx.now(), 10.0);
  EXPECT_EQ(a->sampleCount(), 11);
  EXPECT_EQ(b->sampleCount(), 4);
}

TEST(SamplingContext, CoSampleMaxIsOverSamplesActuallyTaken) {
  auto obj = test::noisySphere(2, 1.0);
  SamplingContext::Options opts;
  opts.maxSamplesPerVertex = 5;
  SamplingContext ctx(obj, opts);
  auto a = ctx.createVertex({0.0, 0.0}, 4);
  auto b = ctx.createVertex({1.0, 1.0}, 1);
  ctx.coSample({{a.get(), 100}, {b.get(), 2}});
  // a could only take 1 more (cap 5); b took 2; charge max = 2.
  EXPECT_DOUBLE_EQ(ctx.now(), 2.0);
}

TEST(SamplingContext, SigmaEstimatedVsExact) {
  auto obj = test::noisySphere(2, 4.0);
  SamplingContext estCtx(obj, {.sigmaMode = SigmaMode::Estimated});
  SamplingContext exactCtx(obj, {.sigmaMode = SigmaMode::Exact});
  auto v = estCtx.createVertex({0.5, 0.5}, 64);
  // Exact: sigma0 / sqrt(64) = 0.5.
  EXPECT_DOUBLE_EQ(exactCtx.sigma(*v), 0.5);
  // Estimated should be in the same ballpark (loose tolerance).
  EXPECT_NEAR(estCtx.sigma(*v), 0.5, 0.35);
}

TEST(SamplingContext, TrueValuePassesThrough) {
  auto obj = test::noisySphere(2, 1.0);
  SamplingContext ctx(obj);
  auto v = ctx.createVertex({3.0, 4.0}, 1);
  ASSERT_TRUE(ctx.trueValue(*v).has_value());
  EXPECT_DOUBLE_EQ(*ctx.trueValue(*v), 25.0);
}

TEST(SamplingContext, EstimateConvergesToTrueValue) {
  auto obj = test::noisySphere(2, 5.0);
  SamplingContext ctx(obj);
  auto v = ctx.createVertex({1.0, 2.0}, 2);
  ctx.refine(*v, 40000);
  EXPECT_NEAR(v->mean(), 5.0, 0.15);
  EXPECT_LT(ctx.sigma(*v), 0.05);
}

TEST(SamplingContext, RejectsBadOptions) {
  auto obj = test::noisySphere(2, 1.0);
  SamplingContext::Options opts;
  opts.maxSamplesPerVertex = 0;
  EXPECT_THROW(SamplingContext(obj, opts), std::invalid_argument);
}

TEST(SamplingContext, CoSampleCoalescesDuplicateVertices) {
  // Regression: two requests for the same vertex used to become two
  // batches starting at the same sampleCount, i.e. the same SampleKeys
  // drawn twice.  They must coalesce into one contiguous batch.
  auto obj = test::noisySphere(2, 1.0);
  SamplingContext ctx(obj);
  auto a = ctx.createVertex({0.5, -0.5}, 1);
  ctx.coSample({{a.get(), 5}, {a.get(), 3}});
  EXPECT_EQ(a->sampleCount(), 9);
  // One vertex running both draws back-to-back: the charge is the sum.
  EXPECT_DOUBLE_EQ(ctx.now(), 8.0);

  // The moments are exactly those of the same refinement issued once.
  SamplingContext ref(obj);
  auto b = ref.createVertex({0.5, -0.5}, 1);
  (void)ref.refine(*b, 8);
  ASSERT_EQ(a->id(), b->id());
  EXPECT_EQ(a->mean(), b->mean());
  EXPECT_EQ(a->sampleCount(), b->sampleCount());
}

TEST(SamplingContext, CoalescedDuplicatesRespectTheCap) {
  auto obj = test::noisySphere(2, 1.0);
  SamplingContext::Options opts;
  opts.maxSamplesPerVertex = 10;
  SamplingContext ctx(obj, opts);
  auto a = ctx.createVertex({0.0, 0.0}, 4);
  ctx.coSample({{a.get(), 5}, {a.get(), 100}});
  EXPECT_EQ(a->sampleCount(), 10);   // summed take clamped to the room left
  EXPECT_DOUBLE_EQ(ctx.now(), 6.0);  // charged what was actually taken
}

TEST(SamplingContext, DuplicatesChargeTheirSummedTakeAgainstTheMax) {
  auto obj = test::noisySphere(2, 1.0);
  SamplingContext ctx(obj);
  auto a = ctx.createVertex({0.0, 0.0}, 1);
  auto b = ctx.createVertex({1.0, 1.0}, 1);
  ctx.coSample({{a.get(), 5}, {b.get(), 3}, {a.get(), 5}});
  // a's coalesced take is 10, b's is 3; the round costs max(10, 3).
  EXPECT_DOUBLE_EQ(ctx.now(), 10.0);
  EXPECT_EQ(a->sampleCount(), 11);
  EXPECT_EQ(b->sampleCount(), 4);
}

TEST(SamplingContext, InlineSamplingIsTheSequentialAddStream) {
  // Inline sampling draws in 64-sample runs but absorbs them one by one in
  // index order: the vertex moments equal the per-sample Welford::add
  // stream bit for bit, across run boundaries and for every entry point.
  auto obj = test::noisyRosenbrock(2, 3.0);
  SamplingContext ctx(obj);
  auto v = ctx.createVertex({0.5, -0.5}, 63);
  (void)ctx.refine(*v, 2);
  ctx.coSample({{v.get(), 200}, {v.get(), 1}});
  stats::Welford ref;
  for (std::uint64_t i = 0; i < 266; ++i) ref.add(obj.sample(v->point(), {v->id(), i}));
  EXPECT_EQ(v->accumulator().count(), ref.count());
  EXPECT_EQ(v->accumulator().mean(), ref.mean());
  EXPECT_EQ(v->accumulator().sumSquaredDeviations(), ref.sumSquaredDeviations());
}

TEST(SamplingContext, NoiseProbeIsTheSequentialAddStream) {
  auto obj = test::noisySphere(2, 2.0);
  const core::Point x{1.0, 2.0};
  const core::NoiseProbe probe = core::probeNoise(obj, x, 1000, 17);
  stats::Welford ref;
  for (std::uint64_t i = 0; i < 1000; ++i) ref.add(obj.sample(x, {17, i}));
  EXPECT_EQ(probe.meanEstimate, ref.mean());
  EXPECT_EQ(probe.standardError, ref.standardError());
}

TEST(SamplingContext, NegativeRefineThrows) {
  auto obj = test::noisySphere(2, 1.0);
  SamplingContext ctx(obj);
  auto v = ctx.createVertex({0.0, 0.0}, 1);
  EXPECT_THROW((void)ctx.refine(*v, -1), std::invalid_argument);
}

/// A fabric with its own silence rule, as `--recv-timeout 600` gives the
/// MW driver.  It computes each batch on submit, stays silent on the first
/// poll, and records how long every poll was allowed to wait.
class PatientBackend final : public core::SamplingBackend {
 public:
  static constexpr double kSilenceRuleSeconds = 600.0;

  explicit PatientBackend(const noise::StochasticObjective& objective) : objective_(objective) {}

  std::uint64_t submit(const BatchRequest& request) override {
    Completion c{nextTicket_++, {}};
    core::sampleChunks(objective_, request.x, request.vertexId, request.startIndex,
                       request.count, [&c](std::span<const double> samples) {
                         c.chunks.push_back(core::accumulateEvalChunk(samples));
                       });
    ready_.push_back(std::move(c));
    return nextTicket_ - 1;
  }

  std::vector<Completion> poll(double timeoutSeconds) override {
    waits.push_back(timeoutSeconds);
    if (waits.size() == 1) return {};
    return std::exchange(ready_, {});
  }

  [[nodiscard]] int parallelism() const override { return 1; }

  std::vector<double> waits;

 private:
  const noise::StochasticObjective& objective_;
  std::uint64_t nextTicket_ = 1;
  std::vector<Completion> ready_;
};

TEST(SamplingContext, BackendSilenceIsTheBackendsToJudge) {
  // The context's scheduler must let every wait run at least as long as
  // the backend's own silence rule, so that rule alone decides when
  // silence is fatal; a bound of the scheduler's would cut it short.
  auto obj = test::noisySphere(2, 1.0);
  PatientBackend backend(obj);
  SamplingContext::Options opts;
  opts.backend = &backend;
  SamplingContext ctx(obj, opts);
  auto v = ctx.createVertex({1.0, 1.0}, 100);
  EXPECT_EQ(v->sampleCount(), 100);
  ASSERT_GE(backend.waits.size(), 2u);
  for (const double w : backend.waits) EXPECT_GE(w, PatientBackend::kSilenceRuleSeconds);
}

}  // namespace
