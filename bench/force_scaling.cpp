// Scaling study of the MD hot path, swept over system size: neighbor-list
// construction (brute-force O(N^2) scan vs linked-cell O(N)), one RDF
// frame, and the nonbonded force evaluation per SIMD ISA.  Every
// stochastic objective sample runs the force kernel a few hundred times,
// so per-eval wall time here is the unit cost of the whole optimization
// stack.  The first size is the md_tcp_speculative bench job's shape (16
// molecules, rc = 3 A); 216 and 343 molecules sit on either side of the
// auto strategy's brute/cell crossover (3 and 4 cells per dimension).
//
// Every timing replays distinct frames of a short NVT trajectory rather
// than one frozen configuration, which would let the CPU learn every
// pair's in/out-of-cutoff outcome (at the 16-molecule shape on a 4-vCPU
// AVX2 Xeon, a frozen evaluation read 5-7% cheaper than a replayed one
// before the kernels took their branches out of the pair loop).  A
// force pass evaluates each recorded frame once, with the neighbor list
// kept current between frames (untimed), and reports the mean seconds per
// evaluation; rebuild and RDF passes probe kProbeFrames of those frames.
// Each reported value is the median over the passes.  The ISA sweep runs
// the same pair stream under each dispatch level the host supports, the
// levels taking turns pass by pass (results stay bitwise identical across
// levels).
//
// Usage: force_scaling [repetitions] [--json PATH]   (default 25)

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/bench_json.hpp"
#include "md/forces.hpp"
#include "md/integrator.hpp"
#include "md/neighbor_list.hpp"
#include "md/observables.hpp"
#include "md/system.hpp"
#include "simd/isa.hpp"

namespace {

using namespace sfopt;
using namespace sfopt::md;
using Clock = std::chrono::steady_clock;

constexpr int kWarmupSteps = 120;   ///< NVT steps before the first recorded frame
constexpr int kFrames = 240;        ///< recorded frames, one per step
constexpr int kProbeFrames = 8;     ///< frames per rebuild / RDF pass
constexpr double kRdfBinWidth = 0.1;

struct Shape {
  int molecules;
  double cutoff;
};

double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

/// The simulation's automatic skin: min(1 A, 90% of the room between the
/// cutoff and half the box edge).
double autoSkin(const WaterSystem& sys) {
  return std::min(1.0, 0.9 * (sys.box().edge() / 2.0 - sys.cutoff()));
}

/// Positions of kFrames consecutive steps of an NVT run at 298 K, after
/// kWarmupSteps steps from the lattice start.
std::vector<std::vector<Vec3>> recordFrames(WaterSystem& sys) {
  VelocityVerlet::Options o;
  o.targetTemperatureK = 298.0;
  o.useNeighborList = true;
  o.neighborSkin = autoSkin(sys);
  VelocityVerlet integrator(sys, o);
  (void)integrator.run(kWarmupSteps);
  std::vector<std::vector<Vec3>> frames;
  frames.reserve(kFrames);
  for (int f = 0; f < kFrames; ++f) {
    (void)integrator.step();
    frames.push_back(sys.positions);
  }
  return frames;
}

/// One pass: the mean of `fn`'s returned seconds, called once on each of
/// every `stride`-th frame.
template <typename Fn>
double replayPass(WaterSystem& sys, const std::vector<std::vector<Vec3>>& frames, int stride,
                  Fn&& fn) {
  double total = 0.0;
  int calls = 0;
  for (std::size_t f = 0; f < frames.size(); f += static_cast<std::size_t>(stride)) {
    sys.positions = frames[f];
    total += fn();
    ++calls;
  }
  return total / calls;
}

/// Median over `reps` passes.
template <typename Fn>
double replaySeconds(WaterSystem& sys, const std::vector<std::vector<Vec3>>& frames,
                     int stride, int reps, Fn&& fn) {
  std::vector<double> passes;
  for (int r = 0; r < reps; ++r) passes.push_back(replayPass(sys, frames, stride, fn));
  return median(passes);
}

void runShape(const Shape& shape, int reps, bench::BenchReport& report) {
  WaterSystem sys = buildWaterLattice(shape.molecules, 0.997, 298.0, tip4pPublished(),
                                      shape.cutoff, 3);
  const double skin = autoSkin(sys);
  const std::vector<std::vector<Vec3>> frames = recordFrames(sys);
  const std::string tag = "force.N" + std::to_string(shape.molecules);
  const int probeStride = kFrames / kProbeFrames;

  // --- Neighbor-list rebuild: brute force vs cell list. ---
  NeighborList brute(shape.cutoff, skin, NeighborStrategy::kBruteForce);
  const double bruteSec = replaySeconds(sys, frames, probeStride, reps, [&] {
    const auto t0 = Clock::now();
    brute.rebuild(sys);
    return secondsSince(t0);
  });
  NeighborList autoList(shape.cutoff, skin);  // cell list when the box admits it
  const double autoSec = replaySeconds(sys, frames, probeStride, reps, [&] {
    const auto t0 = Clock::now();
    autoList.rebuild(sys);
    return secondsSince(t0);
  });
  std::printf("N=%3d rc=%.1f  rebuild: brute %9.1f us | %s %9.1f us | speedup x%5.2f",
              shape.molecules, shape.cutoff, bruteSec * 1e6,
              autoList.lastRebuildUsedCells() ? "cells" : "brute(fallback)", autoSec * 1e6,
              bruteSec / autoSec);
  if (autoList.lastRebuildUsedCells()) {
    std::printf("  (%d^3 cells, avg occ %.1f)", autoList.cellsPerDim(),
                autoList.averageCellOccupancy());
  }
  std::printf("  [%zu pairs]\n", autoList.table().size());
  report.add(tag + ".rebuild.brute.seconds", bruteSec, "s");
  report.add(tag + ".rebuild.auto.seconds", autoSec, "s");

  // --- One RDF frame (every intermolecular pair, r < rc binned). ---
  RdfAccumulator rdf(shape.cutoff, static_cast<int>(shape.cutoff / kRdfBinWidth));
  const double rdfSec = replaySeconds(sys, frames, probeStride, reps, [&] {
    const auto t0 = Clock::now();
    rdf.addFrame(sys);
    return secondsSince(t0);
  });
  std::printf("N=%3d rc=%.1f  rdf frame: %9.1f us\n", shape.molecules, shape.cutoff,
              rdfSec * 1e6);
  report.add(tag + ".rdf.seconds", rdfSec, "s");

  // --- Force evaluation per SIMD ISA, over every recorded frame.  The
  // ISAs take turns pass by pass, so a burst of load from another tenant
  // of a shared host lands on all of them alike. ---
  NeighborList list(shape.cutoff, skin);
  ForceScratch scratch;  // persists across evaluations, as in an integrator
  const std::vector<simd::Isa> isas = simd::supportedIsas();
  std::vector<std::vector<double>> passes(isas.size());
  for (int r = 0; r < reps; ++r) {
    for (std::size_t a = 0; a < isas.size(); ++a) {
      simd::setActiveIsa(isas[a]);
      passes[a].push_back(replayPass(sys, frames, 1, [&] {
        (void)list.update(sys);
        const auto t0 = Clock::now();
        (void)computeForces(sys, list, scratch);
        return secondsSince(t0);
      }));
    }
  }
  double scalarSec = 0.0;
  std::printf("N=%3d rc=%.1f  force:  ", shape.molecules, shape.cutoff);
  for (std::size_t a = 0; a < isas.size(); ++a) {
    const simd::Isa isa = isas[a];
    const double sec = median(passes[a]);
    if (isa == simd::Isa::Scalar) scalarSec = sec;
    std::printf(" %s %8.2f us (x%4.2f) |", simd::isaName(isa), sec * 1e6, scalarSec / sec);
    const std::string prefix = tag + ".replay." + simd::isaName(isa);
    report.add(prefix + ".seconds", sec, "s");
    report.add(prefix + ".speedup_vs_scalar", scalarSec / sec, "x");
  }
  simd::setActiveIsa(simd::detectBestIsa());
  std::printf("  [%zu list pairs]\n", list.table().size());
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  const std::string jsonPath = bench::extractJsonPath(args);
  const int reps = !args.empty() ? std::atoi(args[0].c_str()) : 25;
  std::printf("force_scaling: skin min(1 A, 90%% of half-edge - rc), replay of %d NVT "
              "frames after %d steps, median of %d passes\n",
              kFrames, kWarmupSteps, reps);
  std::printf("(the auto strategy takes the cell list from 4 cells/dim at the list radius, "
              "343 molecules here, and the brute scan below)\n\n");

  bench::BenchReport report;
  report.bench = "force_scaling";
  report.repetitions = reps;
  for (const Shape shape :
       {Shape{16, 3.0}, Shape{64, 4.0}, Shape{216, 4.0}, Shape{343, 4.0}, Shape{512, 4.0}}) {
    runShape(shape, reps, report);
  }
  if (!jsonPath.empty()) {
    if (!report.writeJson(jsonPath)) return 1;
    std::printf("\njson: %zu results -> %s\n", report.results.size(), jsonPath.c_str());
  }
  return 0;
}
