// Google-benchmark microbenchmarks for the performance-critical pieces:
// objective sampling (single draws and 64-sample runs), simplex
// bookkeeping, the MW wire protocol, and the MD engine's force loop.
// These back the efficiency claims in DESIGN.md (e.g. "ordering d+1
// points is always cheaper than an objective sample").

#include <benchmark/benchmark.h>

#include <array>
#include <memory>

#include "core/initial_simplex.hpp"
#include "core/sampling_context.hpp"
#include "core/simplex.hpp"
#include "md/forces.hpp"
#include "md/integrator.hpp"
#include "md/observables.hpp"
#include "mw/message_buffer.hpp"
#include "noise/noisy_function.hpp"
#include "stats/welford.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/telemetry.hpp"
#include "testfunctions/functions.hpp"
#include "water/cost.hpp"

namespace {

using namespace sfopt;

void BM_RosenbrockEval(benchmark::State& state) {
  const std::vector<double> x(static_cast<std::size_t>(state.range(0)), 0.5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(testfunctions::rosenbrock(x));
  }
}
BENCHMARK(BM_RosenbrockEval)->Arg(4)->Arg(20)->Arg(100);

void BM_NoisySample(benchmark::State& state) {
  noise::NoisyFunction::Options o;
  o.sigma0 = 100.0;
  noise::NoisyFunction f(4, [](std::span<const double> p) { return testfunctions::rosenbrock(p); },
                         o);
  const std::vector<double> x{0.5, 0.5, 0.5, 0.5};
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.sample(x, {1, i++}));
  }
}
BENCHMARK(BM_NoisySample);

// One 64-sample run per iteration (one canonical chunk), reported as
// samples/s: f(x) and the stream prefix are paid once per run.
void BM_NoisySampleRun(benchmark::State& state) {
  noise::NoisyFunction::Options o;
  o.sigma0 = 100.0;
  noise::NoisyFunction f(4, [](std::span<const double> p) { return testfunctions::rosenbrock(p); },
                         o);
  const std::vector<double> x{0.5, 0.5, 0.5, 0.5};
  std::array<double, 64> out;
  std::uint64_t first = 0;
  for (auto _ : state) {
    f.sampleRun(x, 1, first, out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
    first += out.size();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(out.size()));
}
BENCHMARK(BM_NoisySampleRun);

// The Table 3.4 water cost: one sample() per iteration, which evaluates
// the surrogate every call ...
void BM_WaterSample(benchmark::State& state) {
  const water::WaterCostObjective f;
  const std::vector<double> x{0.210, 3.00, 0.54};
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.sample(x, {1, i++}));
  }
}
BENCHMARK(BM_WaterSample);

// ... against 64-sample runs (samples/s), which evaluate it once per run.
void BM_WaterSampleRun(benchmark::State& state) {
  const water::WaterCostObjective f;
  const std::vector<double> x{0.210, 3.00, 0.54};
  std::array<double, 64> out;
  std::uint64_t first = 0;
  for (auto _ : state) {
    f.sampleRun(x, 1, first, out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
    first += out.size();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(out.size()));
}
BENCHMARK(BM_WaterSampleRun);

void BM_WelfordAdd(benchmark::State& state) {
  stats::Welford w;
  double x = 0.0;
  for (auto _ : state) {
    w.add(x);
    x += 0.1;
  }
  benchmark::DoNotOptimize(w.mean());
}
BENCHMARK(BM_WelfordAdd);

void BM_SimplexOrdering(benchmark::State& state) {
  const auto d = static_cast<std::size_t>(state.range(0));
  noise::NoisyFunction::Options o;
  noise::NoisyFunction f(d, [](std::span<const double> p) { return testfunctions::sphere(p); },
                         o);
  core::SamplingContext ctx(f);
  std::vector<std::unique_ptr<core::Vertex>> vs;
  noise::RngStream rng(1, 0);
  for (const auto& p : core::randomSimplexPoints(d, -2.0, 2.0, rng)) {
    vs.push_back(ctx.createVertex(p, 2));
  }
  core::Simplex s(std::move(vs));
  for (auto _ : state) {
    benchmark::DoNotOptimize(s.ordering());
  }
}
BENCHMARK(BM_SimplexOrdering)->Arg(4)->Arg(20)->Arg(100);

void BM_SimplexDiameter(benchmark::State& state) {
  const auto d = static_cast<std::size_t>(state.range(0));
  noise::NoisyFunction::Options o;
  noise::NoisyFunction f(d, [](std::span<const double> p) { return testfunctions::sphere(p); },
                         o);
  core::SamplingContext ctx(f);
  std::vector<std::unique_ptr<core::Vertex>> vs;
  noise::RngStream rng(1, 0);
  for (const auto& p : core::randomSimplexPoints(d, -2.0, 2.0, rng)) {
    vs.push_back(ctx.createVertex(p, 2));
  }
  core::Simplex s(std::move(vs));
  for (auto _ : state) {
    benchmark::DoNotOptimize(s.diameter());
  }
}
BENCHMARK(BM_SimplexDiameter)->Arg(4)->Arg(20);

void BM_ReflectPoint(benchmark::State& state) {
  const std::vector<double> cent(100, 0.5);
  const std::vector<double> worst(100, 1.5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::reflectPoint(cent, worst));
  }
}
BENCHMARK(BM_ReflectPoint);

void BM_MessageBufferRoundTrip(benchmark::State& state) {
  const std::vector<double> payload(static_cast<std::size_t>(state.range(0)), 1.25);
  for (auto _ : state) {
    mw::MessageBuffer buf;
    buf.pack(std::uint64_t{7});
    buf.pack(std::span<const double>(payload));
    benchmark::DoNotOptimize(buf.unpackUint64());
    benchmark::DoNotOptimize(buf.unpackDoubleVector());
  }
}
BENCHMARK(BM_MessageBufferRoundTrip)->Arg(4)->Arg(100);

void BM_MdForceEvaluation(benchmark::State& state) {
  auto sys = md::buildWaterLattice(static_cast<int>(state.range(0)), 0.997, 298.0,
                                   md::tip4pPublished(), 4.0, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(md::computeForces(sys));
  }
  state.SetItemsProcessed(state.iterations() * sys.sites() * (sys.sites() - 1) / 2);
}
BENCHMARK(BM_MdForceEvaluation)->Arg(27)->Arg(64);

void BM_MdNeighborRebuild(benchmark::State& state) {
  // range(0): molecules; range(1): 0 = brute-force scan, 1 = cell list.
  auto sys = md::buildWaterLattice(static_cast<int>(state.range(0)), 0.997, 298.0,
                                   md::tip4pPublished(), 4.0, 3);
  const auto strategy = state.range(1) == 0 ? md::NeighborStrategy::kBruteForce
                                            : md::NeighborStrategy::kCellList;
  md::NeighborList list(4.0, 1.0, strategy);
  for (auto _ : state) {
    list.rebuild(sys);
  }
  state.counters["pairs"] = static_cast<double>(list.pairs().size());
  state.counters["cells_per_dim"] = list.cellsPerDim();
  state.counters["avg_occupancy"] = list.averageCellOccupancy();
  state.SetItemsProcessed(state.iterations() * sys.sites());
}
// The cell list needs >= 3 cells/dim: 216 molecules (~18.6 A box) upward
// at the 5 A list radius.
BENCHMARK(BM_MdNeighborRebuild)->Args({64, 0})->Args({216, 0})->Args({216, 1})->Args({512, 0})->Args({512, 1});

void BM_MdForceNeighborList(benchmark::State& state) {
  // range(0): molecules; range(1): force threads (1 = serial path);
  // range(2): 1 = per-evaluation telemetry attached (no-op sink), i.e. the
  // exact instrumentation VelocityVerlet::evaluateForces performs.  The
  // telemetry=1 twins guard the observability overhead claim: with the sink
  // disabled, the cost is a few relaxed atomic adds per force evaluation
  // and must stay under 2% of the uninstrumented kernel time.
  auto sys = md::buildWaterLattice(static_cast<int>(state.range(0)), 0.997, 298.0,
                                   md::tip4pPublished(), 4.0, 3);
  md::NeighborList list(4.0, 1.0);
  list.rebuild(sys);
  const int threads = static_cast<int>(state.range(1));
  md::ParallelForceKernel kernel(threads);
  const bool instrumented = state.range(2) == 1;
  telemetry::Telemetry tel;  // no-op sink, metrics only
  telemetry::Counter* evals = nullptr;
  telemetry::Counter* pairsCounter = nullptr;
  telemetry::Histogram* evalSeconds = nullptr;
  if (instrumented) {
    evals = &tel.metrics().counter("md.force_evaluations");
    pairsCounter = &tel.metrics().counter("md.pairs_evaluated");
    evalSeconds = &tel.metrics().histogram(
        "md.force_eval_seconds", telemetry::Histogram::exponentialBounds(1e-6, 10.0, 7));
  }
  std::int64_t pairs = 0;
  for (auto _ : state) {
    const auto f = kernel.compute(sys, list);
    if (instrumented) {
      evals->add(1);
      pairsCounter->add(f.pairsEvaluated);
      evalSeconds->observe(f.evalSeconds);
    }
    pairs = f.pairsEvaluated;
    benchmark::DoNotOptimize(f.potential);
  }
  state.counters["pairs_per_eval"] = static_cast<double>(pairs);
  state.counters["threads"] = threads;
  state.counters["telemetry"] = instrumented ? 1 : 0;
  state.SetItemsProcessed(state.iterations() * pairs);
}
BENCHMARK(BM_MdForceNeighborList)
    ->Args({216, 1, 0})
    ->Args({216, 1, 1})
    ->Args({216, 4, 0})
    ->Args({512, 1, 0})
    ->Args({512, 1, 1})
    ->Args({512, 2, 0})
    ->Args({512, 4, 0})
    ->Args({512, 4, 1});

void BM_MdStep(benchmark::State& state) {
  auto sys = md::buildWaterLattice(27, 0.997, 298.0, md::tip4pPublished(), 4.0, 3);
  md::VelocityVerlet vv(sys, {.dtPs = 0.0002, .targetTemperatureK = 298.0});
  for (auto _ : state) {
    benchmark::DoNotOptimize(vv.step());
  }
}
BENCHMARK(BM_MdStep);

void BM_RdfFrame(benchmark::State& state) {
  auto sys = md::buildWaterLattice(64, 0.997, 298.0, md::tip4pPublished(), 5.0, 3);
  md::RdfAccumulator rdf(5.0, 50);
  for (auto _ : state) {
    rdf.addFrame(sys);
  }
  benchmark::DoNotOptimize(rdf.frames());
}
BENCHMARK(BM_RdfFrame);

}  // namespace

BENCHMARK_MAIN();
