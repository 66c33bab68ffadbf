// End-to-end water wall-time baseline: the full pipeline the paper's
// chapter 3 case study exercises — stochastic simplex -> eq. 3.4 cost ->
// molecular dynamics — timed as a whole, not per layer.  Two shapes:
//
//   e2e.md.*        the REAL MD engine behind the cost (tiny 8-molecule
//                   protocol; every force loop, neighbor rebuild and
//                   Welford fold on the clock), MN driving 6 moves.
//   e2e.surrogate.* the fitted surrogate behind the same cost, PC+MN
//                   driving a full Table 3.4-style reparameterization to
//                   convergence.  A sample is cheap, but a run draws
//                   millions of them, so most of this shape's time is
//                   sampling itself (the noise draws and the surrogate
//                   cost), plus the optimizer spine around it (simplex
//                   logic, scheduling, moment folds) — not the physics.
//
// The counter-keyed noise makes every repetition identical work, so the
// median is a clean wall-time for bench_diff to watch: a regression here
// means some layer of the pipeline got slower end to end.
//
// Usage: e2e_water [repetitions] [--json PATH]   (default 3)

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/bench_json.hpp"
#include "common/harness.hpp"
#include "core/algorithms.hpp"
#include "water/cost.hpp"
#include "water/md_objective.hpp"

using namespace sfopt;

namespace {

/// Median-time one optimization run and report seconds plus the derived
/// sampling rate (samples from the run itself: reps do identical work).
void timeShape(const char* name, int reps, bench::BenchReport& report,
               const std::function<core::OptimizationResult()>& run) {
  const core::OptimizationResult probe = run();  // warm-up + shape of the work
  const double sec = bench::medianSeconds(reps, [&] { (void)run(); });
  const double samplesPerSec = static_cast<double>(probe.totalSamples) / sec;
  report.add(std::string(name) + ".seconds", sec, "s");
  report.add(std::string(name) + ".samples_per_sec", samplesPerSec, "samples/s");
  std::printf("%-16s %10.3f s  %12.0f samples/s  (%lld iterations, %lld samples, %s)\n",
              name, sec, samplesPerSec, static_cast<long long>(probe.iterations),
              static_cast<long long>(probe.totalSamples),
              toString(probe.reason).data());
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  const std::string jsonPath = bench::extractJsonPath(args);
  const int reps = args.empty() ? 3 : std::atoi(args[0].c_str());

  bench::printHeader("End-to-end water reparameterization wall time");
  std::printf("median of %d repetitions per shape\n\n", reps);

  bench::BenchReport report;
  report.bench = "e2e_water";
  report.repetitions = reps;

  // Shape 1: the honest pipeline.  Same tiny protocol as the end-to-end
  // test, a couple more moves so the timing is dominated by MD, not setup.
  {
    water::MdWaterObjective::Options objOpts;
    objOpts.simulation.molecules = 16;
    objOpts.simulation.cutoff = 3.0;
    objOpts.simulation.rdfRMax = 3.0;
    objOpts.simulation.rdfBins = 30;
    objOpts.simulation.equilibrationSteps = 120;
    objOpts.simulation.productionSteps = 240;
    objOpts.simulation.sampleEvery = 10;
    const water::MdWaterObjective objective(objOpts);

    const std::vector<core::Point> start{
        {0.20, 3.05, 0.50},
        {0.12, 3.30, 0.55},
        {0.17, 3.15, 0.45},
        {0.14, 3.20, 0.58},
    };
    core::MaxNoiseOptions o;
    o.common.termination.tolerance = 0.0;
    o.common.termination.maxIterations = 8;
    o.common.initialSamplesPerVertex = 2;
    o.common.sampling.maxSamplesPerVertex = 4;
    timeShape("e2e.md", reps, report,
              [&] { return core::runMaxNoise(objective, start, o); });
  }

  // Shape 2: the surrogate-backed Table 3.4 run, PC+MN from the poor
  // initial simplex with the table34_water bench's budget.
  {
    water::WaterCostObjective::Options objOpts;
    objOpts.sigma0 = 0.2;
    const water::WaterCostObjective objective(objOpts);

    const auto allRows = water::table34InitialPoints();
    const std::vector<core::Point> start(allRows.begin(), allRows.begin() + 4);

    core::PCOptions pcmn;
    pcmn.maxNoiseGate = true;
    pcmn.common.termination.tolerance = 1e-3;
    pcmn.common.termination.maxIterations = 400;
    pcmn.common.termination.maxSamples = 4'000'000;
    pcmn.common.sampling.maxSamplesPerVertex = 400'000;
    timeShape("e2e.surrogate", reps, report,
              [&] { return core::runPointToPoint(objective, start, pcmn); });
  }

  std::printf(
      "\nShape check: e2e.md is physics-bound (force loops and neighbor\n"
      "rebuilds), e2e.surrogate is sampling-bound (noise draws and the\n"
      "surrogate cost); a regression in only one of them points at the layer\n"
      "to blame.\n");

  if (!jsonPath.empty()) {
    if (!report.writeJson(jsonPath)) return 1;
    std::printf("json: %zu results -> %s\n", report.results.size(), jsonPath.c_str());
  }
  return 0;
}
