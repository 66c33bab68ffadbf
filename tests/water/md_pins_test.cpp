// Bitwise pins of the real-MD sample path at the md_tcp_speculative bench
// shape (16 molecules, rc = 3 A, 120 NVT + 240 NVE steps).  The values
// were recorded before the force kernel, the pair-stream drain, the
// neighbor-list rebuild and the RDF moved to the compacted three-pass
// kernels, so any rewrite of those paths that changes one trajectory bit
// fails here.  The pins hold under every ISA (CI reruns the suite with
// SFOPT_ISA=scalar and SFOPT_ISA=sse4).

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "md/simulation.hpp"
#include "water/cost.hpp"
#include "water/md_objective.hpp"

namespace {

using namespace sfopt;

md::SimulationConfig benchShape(std::uint64_t seed) {
  md::SimulationConfig c;
  c.molecules = 16;
  c.cutoff = 3.0;
  c.rdfRMax = 3.0;
  c.rdfBins = 30;
  c.equilibrationSteps = 120;
  c.productionSteps = 240;
  c.sampleEvery = 10;
  c.seed = seed;
  return c;
}

double sumOf(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return s;
}

std::string hex(double v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

void expectBits(double got, double pinned, const char* what) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got), std::bit_cast<std::uint64_t>(pinned))
      << what << ": got " << hex(got) << ", pinned " << hex(pinned);
}

struct ObservablePins {
  std::uint64_t seed;
  double u, p, t, d, drift, gOO, gOH, gHH;
};

TEST(SimulateWater, BitwisePinnedAtBenchShape) {
  const std::vector<double> point{0.20, 3.05, 0.50};
  const ObservablePins pins[] = {
      {41, -0x1.ffe6aa21f19edp+3, -0x1.4ab836556d97ap+12, 0x1.5c26386822eap+8,
       0x1.1afc17d5a4a28p-14, -0x1.1f9797ae92cabp-1, 0x1.c7b67dbc71ff5p+3,
       0x1.c65d54bf3a511p+3, 0x1.e96b98f8f3d04p+3},
      {4242, -0x1.0164fed3f9fbp+4, 0x1.ead3d1a3b7b2cp+8, 0x1.96ec1fe9548fp+8,
       0x1.45b2181f99403p-14, -0x1.adc1e95a78d56p-2, 0x1.cc2d28a69851fp+3,
       0x1.d2f5f3c49478ep+3, 0x1.e61d44ef81d61p+3},
  };
  for (const ObservablePins& pin : pins) {
    SCOPED_TRACE("seed " + std::to_string(pin.seed));
    const md::WaterObservables obs =
        md::simulateWater(water::paramsFromPoint(point), benchShape(pin.seed));
    expectBits(obs.potentialPerMoleculeKcal, pin.u, "U");
    expectBits(obs.pressureAtm, pin.p, "P");
    expectBits(obs.temperatureK, pin.t, "T");
    expectBits(obs.diffusionCm2PerS, pin.d, "D");
    expectBits(obs.nveDriftKcalPerPs, pin.drift, "drift");
    expectBits(sumOf(obs.gOO.g), pin.gOO, "sum g_OO");
    expectBits(sumOf(obs.gOH.g), pin.gOH, "sum g_OH");
    expectBits(sumOf(obs.gHH.g), pin.gHH, "sum g_HH");
  }

  water::MdWaterObjective::Options options;
  options.simulation = benchShape(0);
  options.seed = 0x5EED;
  const water::MdWaterObjective objective(options);
  const std::vector<double> x{0.17, 3.15, 0.45};
  expectBits(objective.sample(x, {3, 1}), 0x1.9829f46af5543p+4, "MdWaterObjective::sample");
}

}  // namespace
