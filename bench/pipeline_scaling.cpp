// Asynchronous evaluation pipeline study: does sharding one dominant
// refinement batch across MW workers actually keep them busy, and does
// speculative prefetch of the next round overlap decide with evaluate?
//
// Part 1 compares mw.worker_idle_fraction and wall time for sharded
// (--shard-min-samples 64) vs unsharded batches at 1, 2 and 4 workers.
// Both arms run through the scheduler every backend refine takes, so the
// arms differ in sharding alone and the figures stay comparable with the
// committed BENCH_pipeline.json.
//
// Part 2 runs PC with speculation on/off and reports the speculation hit
// rate alongside engine.pc.rounds_per_comparison — the overlap does not
// change the trajectory (bitwise-equivalence is enforced by tests), so
// the win shows up purely in wall time and worker occupancy.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/bench_json.hpp"
#include "common/harness.hpp"
#include "core/initial_simplex.hpp"
#include "core/sampling_context.hpp"
#include "mw/parallel_runner.hpp"
#include "mw/sampling_service.hpp"
#include "telemetry/telemetry.hpp"

using namespace sfopt;

namespace {

const telemetry::MetricSnapshot* findMetric(const std::vector<telemetry::MetricSnapshot>& all,
                                            const std::string& name) {
  for (const auto& m : all) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

double histogramMean(const std::vector<telemetry::MetricSnapshot>& all,
                     const std::string& name) {
  const auto* m = findMetric(all, name);
  if (m == nullptr || m->count == 0) return 0.0;
  return m->numValue / static_cast<double>(m->count);
}

double gaugeValue(const std::vector<telemetry::MetricSnapshot>& all, const std::string& name) {
  const auto* m = findMetric(all, name);
  return m != nullptr ? m->numValue : 0.0;
}

std::int64_t counterValue(const std::vector<telemetry::MetricSnapshot>& all,
                          const std::string& name) {
  const auto* m = findMetric(all, name);
  return m != nullptr ? m->intValue : 0;
}

struct ShardRow {
  int workers;
  bool sharded;
  double wallSeconds;
  double idleFraction;
  double shardsPerBatch;
  long long samples;
};

/// The paper's worst case for worker occupancy, distilled: every round
/// co-samples one dominant vertex (a big refinement the gate demanded) next
/// to a few small trial refreshes.  Unsharded, the dominant batch is a
/// single indivisible task and W-1 workers wait for it; sharded, its chunks
/// spread across the fleet.  Both arms run through the async scheduler (the
/// unsharded arm uses an unreachable threshold), so they differ in sharding
/// alone.
ShardRow runShardArm(int workers, bool sharded) {
  constexpr int kRounds = 24;
  constexpr std::int64_t kDominant = 32'768;
  constexpr std::int64_t kSmall = 64;

  auto objective = bench::noisyRosenbrock(6, 1.0, 8811);
  telemetry::Telemetry spine;

  mw::CommWorld comm(workers + 1);
  std::vector<std::unique_ptr<mw::SamplingWorker>> workerObjs;
  for (int w = 0; w < workers; ++w) {
    workerObjs.push_back(std::make_unique<mw::SamplingWorker>(comm, w + 1, objective, 1));
  }
  std::vector<std::thread> threads;
  for (auto& w : workerObjs) {
    threads.emplace_back([&worker = *w] { worker.run(); });
  }

  mw::MWDriver driver(comm);
  driver.setTelemetry(&spine);
  mw::MWSamplingBackend backend(driver);

  core::SamplingContext::Options o;
  o.backend = &backend;
  o.shardMinSamples = sharded ? 64 : 0;
  o.maxSamplesPerVertex = std::numeric_limits<std::int64_t>::max() / 2;
  o.telemetry = &spine;
  core::SamplingContext ctx(objective, o);

  auto dominant = ctx.createVertex(core::Point(6, 0.5), kSmall);
  auto t1 = ctx.createVertex(core::Point(6, -0.5), kSmall);
  auto t2 = ctx.createVertex(core::Point(6, 1.0), kSmall);
  auto t3 = ctx.createVertex(core::Point(6, -1.0), kSmall);

  const auto begin = std::chrono::steady_clock::now();
  for (int round = 0; round < kRounds; ++round) {
    ctx.coSample({{dominant.get(), kDominant},
                  {t1.get(), kSmall},
                  {t2.get(), kSmall},
                  {t3.get(), kSmall}});
  }
  const double wallSeconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - begin).count();

  const auto metrics = spine.metrics().snapshot();
  const ShardRow row{workers, sharded, wallSeconds,
                     histogramMean(metrics, "mw.worker_idle_fraction"),
                     histogramMean(metrics, "eval.shards_per_batch"),
                     static_cast<long long>(ctx.totalSamples())};
  driver.shutdown();
  for (auto& t : threads) t.join();
  return row;
}

struct SpecRow {
  bool speculate;
  double wallSeconds;
  double hitRate;
  long long hits;
  long long misses;
  double roundsPerComparison;
  long long steps;
};

SpecRow runSpeculationArm(bool speculate) {
  auto objective = bench::noisyRosenbrock(4, 3.0, 4422);
  noise::RngStream startRng(422, 7);
  const auto start = core::randomSimplexPoints(4, -2.0, 2.0, startRng);

  core::PCOptions opts;
  opts.common.termination.tolerance = 1e-3;
  opts.common.termination.maxIterations = 80;
  opts.common.termination.maxSamples = 4'000'000;
  opts.common.sampling.maxSamplesPerVertex = 16'384;
  opts.common.sampling.shardMinSamples = 64;
  opts.common.sampling.speculate = speculate;

  telemetry::Telemetry spine;
  opts.common.telemetry = &spine;
  mw::MWRunConfig cfg;
  cfg.workers = 4;
  cfg.telemetry = &spine;

  const auto run = mw::runSimplexOverMW(objective, start, opts, cfg);
  const auto metrics = spine.metrics().snapshot();
  return {speculate,
          run.masterWallSeconds,
          gaugeValue(metrics, "eval.speculation_hit_rate"),
          counterValue(metrics, "eval.speculation_hits"),
          counterValue(metrics, "eval.speculation_misses"),
          histogramMean(metrics, "engine.pc.rounds_per_comparison"),
          static_cast<long long>(run.optimization.iterations)};
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  const std::string jsonPath = bench::extractJsonPath(args);
  std::vector<int> workerCounts{1, 2, 4};
  if (!args.empty()) {
    workerCounts.clear();
    for (const auto& a : args) workerCounts.push_back(std::atoi(a.c_str()));
  }

  bench::BenchReport report;
  report.bench = "pipeline_scaling";
  report.repetitions = 1;

  bench::printHeader("Pipeline scaling - sharding one dominant refine across workers");
  std::printf("\n%-8s %-10s %-10s %-12s %-14s %-10s\n", "workers", "sharded", "wall(s)",
              "idle frac", "shards/batch", "samples");
  for (int w : workerCounts) {
    for (const bool sharded : {false, true}) {
      const auto row = runShardArm(w, sharded);
      std::printf("%-8d %-10s %-10.3f %-12.3f %-14.2f %-10lld\n", row.workers,
                  row.sharded ? "yes" : "no", row.wallSeconds, row.idleFraction,
                  row.shardsPerBatch, row.samples);
      const std::string prefix = "pipeline.shard.W" + std::to_string(row.workers) +
                                 (row.sharded ? ".sharded" : ".unsharded");
      report.add(prefix + ".wall_seconds", row.wallSeconds, "s");
      report.add(prefix + ".idle_fraction", row.idleFraction, "fraction");
    }
  }
  std::printf(
      "\nShape check: with several workers and one dominant refine batch per\n"
      "round, the unsharded arm parks the rest of the fleet while the big\n"
      "task runs (high idle fraction); the sharded arm splits it into chunk\n"
      "shards and keeps everyone fed (idle fraction drops, shards/batch\n"
      "approaches (W+3)/4 for this workload).  Occupancy is the honest\n"
      "observable here: in-process workers share this host's cores, so the\n"
      "wall-time win appears on a real fleet, not in this table.  Results\n"
      "are bitwise identical either way (canonical chunk merge).\n");

  bench::printHeader("Speculative prefetch - PC decide/evaluate overlap (4 workers)");
  std::printf("\n%-10s %-10s %-10s %-8s %-8s %-18s %-8s\n", "speculate", "wall(s)",
              "hit rate", "hits", "misses", "rounds/comparison", "steps");
  for (const bool speculate : {false, true}) {
    const auto row = runSpeculationArm(speculate);
    std::printf("%-10s %-10.3f %-10.2f %-8lld %-8lld %-18.2f %-8lld\n",
                row.speculate ? "on" : "off", row.wallSeconds, row.hitRate, row.hits,
                row.misses, row.roundsPerComparison, row.steps);
    const std::string prefix =
        std::string("pipeline.speculate.") + (row.speculate ? "on" : "off");
    report.add(prefix + ".wall_seconds", row.wallSeconds, "s");
    report.add(prefix + ".hit_rate", row.hitRate, "fraction");
  }
  std::printf(
      "\nShape check: speculation pre-stages the next PC round's resample while\n"
      "the engine is still deciding, so a healthy fraction of rounds find their\n"
      "samples already computed (hit rate well above zero).  Staged batches are\n"
      "only charged to the sample counter and virtual clock when consumed, so\n"
      "rounds/comparison and the whole trajectory are identical between the two\n"
      "arms -- the hit rate is pure decide/evaluate overlap.\n");
  if (!jsonPath.empty()) {
    if (!report.writeJson(jsonPath)) return 1;
    std::printf("json: %zu results -> %s\n", report.results.size(), jsonPath.c_str());
  }
  return 0;
}
