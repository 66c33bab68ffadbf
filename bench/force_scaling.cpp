// Scaling study of the MD hot path: neighbor-list construction
// (brute-force O(N^2) scan vs linked-cell O(N)) and the nonbonded force
// evaluation per SIMD ISA, swept over system size.  Every stochastic
// objective sample runs this kernel a few hundred times, so per-eval wall
// time here is the unit cost of the whole optimization stack.
//
// The ISA sweep times the same pair loop under each dispatch level the
// host supports; scalar is the legacy loop, the vector levels run the
// blocked simd::forcePairBlock kernel with its pinned lane-reduction
// order (results stay bitwise reproducible within an ISA).
//
// Usage: force_scaling [repetitions] [--json PATH]   (default 25)

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/bench_json.hpp"
#include "md/forces.hpp"
#include "md/neighbor_list.hpp"
#include "md/system.hpp"
#include "simd/isa.hpp"

namespace {

using namespace sfopt;
using namespace sfopt::md;

constexpr double kCutoff = 4.0;
constexpr double kSkin = 1.0;

void runSystemSize(int molecules, int reps, bench::BenchReport& report) {
  WaterSystem sys = buildWaterLattice(molecules, 0.997, 298.0, tip4pPublished(),
                                      kCutoff, 3);
  const std::string tag = "force.N" + std::to_string(molecules);

  // --- Neighbor-list rebuild: brute force vs cell list. ---
  NeighborList brute(kCutoff, kSkin, NeighborStrategy::kBruteForce);
  const double bruteSec = bench::medianSeconds(reps, [&] { brute.rebuild(sys); });
  NeighborList autoList(kCutoff, kSkin);  // cell list when the box admits it
  const double autoSec = bench::medianSeconds(reps, [&] { autoList.rebuild(sys); });
  std::printf("N=%3d  rebuild: brute %9.1f us | %s %9.1f us | speedup x%5.2f",
              molecules, bruteSec * 1e6,
              autoList.lastRebuildUsedCells() ? "cells" : "brute(fallback)",
              autoSec * 1e6, bruteSec / autoSec);
  if (autoList.lastRebuildUsedCells()) {
    std::printf("  (%d^3 cells, avg occ %.1f)", autoList.cellsPerDim(),
                autoList.averageCellOccupancy());
  }
  std::printf("  [%zu pairs]\n", autoList.pairs().size());
  report.add(tag + ".rebuild.brute.seconds", bruteSec, "s");
  report.add(tag + ".rebuild.auto.seconds", autoSec, "s");

  // --- Force evaluation per SIMD ISA. ---
  double scalarSec = 0.0;
  std::printf("N=%3d  force:  ", molecules);
  for (const simd::Isa isa : simd::supportedIsas()) {
    simd::setActiveIsa(isa);
    const double sec =
        bench::medianSeconds(reps, [&] { (void)computeForces(sys, autoList); });
    if (isa == simd::Isa::Scalar) scalarSec = sec;
    std::printf(" %s %8.1f us (x%4.2f) |", simd::isaName(isa), sec * 1e6,
                scalarSec / sec);
    const std::string prefix = tag + ".serial." + simd::isaName(isa);
    report.add(prefix + ".seconds", sec, "s");
    report.add(prefix + ".speedup_vs_scalar", scalarSec / sec, "x");
  }
  simd::setActiveIsa(simd::detectBestIsa());
  const double pairsPerSec =
      static_cast<double>(autoList.pairs().size()) / scalarSec;
  std::printf("  [%.1f Mpairs/s scalar]\n", pairsPerSec / 1e6);
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  const std::string jsonPath = bench::extractJsonPath(args);
  const int reps = !args.empty() ? std::atoi(args[0].c_str()) : 25;
  std::printf("force_scaling: cutoff %.1f A + skin %.1f A, median of %d reps\n",
              kCutoff, kSkin, reps);
  std::printf("(64 molecules -> box ~12.4 A admits only 2 cells/dim at the 5 A list "
              "radius, so the auto strategy falls back to the brute scan there)\n\n");

  bench::BenchReport report;
  report.bench = "force_scaling";
  report.repetitions = reps;
  for (int molecules : {64, 216, 512}) {
    runSystemSize(molecules, reps, report);
  }
  if (!jsonPath.empty()) {
    if (!report.writeJson(jsonPath)) return 1;
    std::printf("\njson: %zu results -> %s\n", report.results.size(), jsonPath.c_str());
  }
  return 0;
}
