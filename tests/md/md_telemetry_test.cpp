// MD-layer telemetry: the MdPerfCounters fold into the registry and the
// two protocol phases emit spans.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "md/simulation.hpp"
#include "md/system.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/sink.hpp"
#include "telemetry/telemetry.hpp"

namespace {

using namespace sfopt;

class CaptureSink final : public telemetry::EventSink {
 public:
  void emit(const telemetry::Event& e) override { events.push_back(e); }
  std::vector<telemetry::Event> events;
};

md::SimulationConfig tinyConfig() {
  md::SimulationConfig cfg;
  cfg.molecules = 32;
  cfg.cutoff = 4.0;
  cfg.equilibrationSteps = 30;
  cfg.productionSteps = 60;
  cfg.sampleEvery = 10;
  return cfg;
}

TEST(MdTelemetry, PerfCountersFoldIntoRegistry) {
  CaptureSink sink;
  telemetry::Telemetry tel(sink);
  md::SimulationConfig cfg = tinyConfig();
  cfg.telemetry = &tel;

  const md::WaterObservables obs = md::simulateWater(md::tip4pPublished(), cfg);

  auto& reg = tel.metrics();
  EXPECT_EQ(reg.counter("md.force_evaluations").value(), obs.perf.forceEvaluations);
  EXPECT_EQ(reg.counter("md.pairs_evaluated").value(), obs.perf.pairsEvaluated);
  EXPECT_EQ(reg.counter("md.neighbor_rebuilds").value(), obs.perf.neighborRebuilds);
  EXPECT_DOUBLE_EQ(reg.gauge("md.max_drift_seen").value(), obs.perf.maxDriftSeen);
  EXPECT_DOUBLE_EQ(reg.gauge("md.pairs_per_evaluation").value(),
                   obs.perf.pairsPerEvaluation());

  auto& evalSeconds = reg.histogram("md.force_eval_seconds",
                                    telemetry::Histogram::exponentialBounds(1e-6, 10.0, 7));
  EXPECT_EQ(evalSeconds.count(), obs.perf.forceEvaluations);
  // Both sides sum the same per-evaluation wall times but in separate
  // accumulators, so they can drift a few ULPs apart; 4 ULPs
  // (EXPECT_DOUBLE_EQ) is occasionally too tight for ~100 additions.
  EXPECT_NEAR(evalSeconds.sum(), obs.perf.forceSeconds,
              1e-12 * std::max(1.0, obs.perf.forceSeconds));
}

TEST(MdTelemetry, ProtocolPhasesEmitSpans) {
  CaptureSink sink;
  telemetry::Telemetry tel(sink);
  md::SimulationConfig cfg = tinyConfig();
  cfg.telemetry = &tel;

  const md::WaterObservables obs = md::simulateWater(md::tip4pPublished(), cfg);

  int equilibration = 0;
  int production = 0;
  for (const auto& e : sink.events) {
    if (e.type != "span") continue;
    if (e.name == "md.equilibration") {
      ++equilibration;
      EXPECT_EQ(e.num("steps"), static_cast<double>(cfg.equilibrationSteps));
      EXPECT_EQ(e.num("molecules"), static_cast<double>(cfg.molecules));
    } else if (e.name == "md.production") {
      ++production;
      EXPECT_EQ(e.num("steps"), static_cast<double>(cfg.productionSteps));
      EXPECT_EQ(e.num("frames"), static_cast<double>(obs.productionFrames));
    }
  }
  EXPECT_EQ(equilibration, 1);
  EXPECT_EQ(production, 1);
}

TEST(MdTelemetry, NullTelemetryIsZeroCost) {
  md::SimulationConfig cfg = tinyConfig();
  const md::WaterObservables obs = md::simulateWater(md::tip4pPublished(), cfg);
  EXPECT_GT(obs.perf.forceEvaluations, 0);
}

}  // namespace
