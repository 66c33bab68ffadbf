#include "md/forces.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <numbers>

#include "simd/dispatch.hpp"

namespace sfopt::md {

MdPerfCounters& MdPerfCounters::operator+=(const MdPerfCounters& o) noexcept {
  forceEvaluations += o.forceEvaluations;
  pairsEvaluated += o.pairsEvaluated;
  forceSeconds += o.forceSeconds;
  neighborRebuilds += o.neighborRebuilds;
  maxDriftSeen = std::max(maxDriftSeen, o.maxDriftSeen);
  cellListUsed = o.cellListUsed;
  cellsPerDim = o.cellsPerDim;
  avgCellOccupancy = o.avgCellOccupancy;
  return *this;
}

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Accumulate a pairwise force f on sites i (+f) and j (-f) into
/// sys.forces, and its virial.
struct PairAccumulator {
  std::vector<Vec3>& forces;
  double virial = 0.0;

  void apply(int i, int j, const Vec3& rij, const Vec3& f) {
    forces[static_cast<std::size_t>(i)] += f;
    forces[static_cast<std::size_t>(j)] -= f;
    virial += dot(rij, f);
  }
};

/// Intramolecular bonds and angle; identical in every force path.
void intramolecularForces(const WaterSystem& sys, PairAccumulator& acc, ForceResult& out) {
  const IntramolecularConstants& c = sys.intramolecular();
  std::vector<Vec3>& forces = acc.forces;
  for (int m = 0; m < sys.molecules(); ++m) {
    const int o = m * kSitesPerMolecule;
    const int h1 = o + 1;
    const int h2 = o + 2;
    for (int h : {h1, h2}) {
      const Vec3 d = sys.positions[static_cast<std::size_t>(h)] -
                     sys.positions[static_cast<std::size_t>(o)];
      const double r = norm(d);
      const double dr = r - c.bondR0;
      out.intramolecular += c.bondK * dr * dr;
      const double fMag = -2.0 * c.bondK * dr;  // on the H, along +d
      acc.apply(h, o, d, d * (fMag / r));
    }
    // Angle H1-O-H2.
    const Vec3 a = sys.positions[static_cast<std::size_t>(h1)] -
                   sys.positions[static_cast<std::size_t>(o)];
    const Vec3 b = sys.positions[static_cast<std::size_t>(h2)] -
                   sys.positions[static_cast<std::size_t>(o)];
    const double ra = norm(a);
    const double rb = norm(b);
    double cosT = dot(a, b) / (ra * rb);
    cosT = std::clamp(cosT, -1.0, 1.0);
    const double theta = std::acos(cosT);
    const double dTheta = theta - c.angleTheta0;
    out.intramolecular += c.angleK * dTheta * dTheta;
    const double sinT = std::sqrt(std::max(1.0 - cosT * cosT, 1e-12));
    const double coeff = 2.0 * c.angleK * dTheta / sinT;  // dV/d(cos theta)
    const Vec3 dCosDa = (b * (1.0 / (ra * rb))) - (a * (cosT / (ra * ra)));
    const Vec3 dCosDb = (a * (1.0 / (ra * rb))) - (b * (cosT / (rb * rb)));
    const Vec3 fH1 = coeff * dCosDa;
    const Vec3 fH2 = coeff * dCosDb;
    forces[static_cast<std::size_t>(h1)] += fH1;
    forces[static_cast<std::size_t>(h2)] += fH2;
    forces[static_cast<std::size_t>(o)] -= fH1 + fH2;
    acc.virial += dot(a, fH1) + dot(b, fH2);
  }
}

/// The force-shifted model's constants for this system.  The reciprocals
/// are the exact IEEE quotients of the model's terms, and qq is the
/// per-pair charge product (C q_a) q_b of each species code.
simd::ForceConstants forceConstants(const WaterSystem& sys) {
  const WaterParameters& p = sys.parameters();
  const double rc = sys.cutoff();
  const double rc2 = rc * rc;
  const double s2 = p.sigma * p.sigma;
  const double inv2 = s2 / rc2;
  const double inv6 = inv2 * inv2 * inv2;
  const double inv12 = inv6 * inv6;
  simd::ForceConstants c;
  c.boxEdge = sys.box().edge();
  c.invBoxEdge = 1.0 / sys.box().edge();
  c.rc = rc;
  c.rc2 = rc2;
  c.invRc = 1.0 / rc;
  c.invRc2 = 1.0 / rc2;
  c.s2 = s2;
  c.eps4 = 4.0 * p.epsilon;
  c.eps24 = 24.0 * p.epsilon;
  c.ljErc = 4.0 * p.epsilon * (inv12 - inv6);
  c.ljFrc = 24.0 * p.epsilon * (2.0 * inv12 - inv6) / rc2 * rc;
  // Site 0 is an oxygen and site 1 a hydrogen.
  const double q[2] = {sys.chargeOf(0), sys.chargeOf(1)};
  for (int a = 0; a < 2; ++a) {
    for (int b = 0; b < 2; ++b) c.qq[2 * a + b] = (kCoulomb * q[a]) * q[b];
  }
  return c;
}

/// Nonbonded terms of every pair of `table` through the dispatched force
/// kernel, then the intramolecular ones.  The kernel's force rows start at
/// zero and take the pairs' terms in stream order, exactly as the
/// zero-filled sys.forces would, so copying them out keeps every bit.
ForceResult evaluate(WaterSystem& sys, const PairTable& table, ForceScratch& scratch) {
  const auto start = Clock::now();
  snapshotPositions(sys.positions, scratch.xyz0);
  scratch.force0.assign(sys.positions.size(), simd::SiteRow{});
  simd::ForceSums sums;
  simd::forcePairs(forceConstants(sys), table.slice(), scratch.xyz0.data(),
                   scratch.force0.data(), sums);
  for (std::size_t s = 0; s < sys.forces.size(); ++s) {
    sys.forces[s] = {scratch.force0[s].x, scratch.force0[s].y, scratch.force0[s].z};
  }
  ForceResult out;
  out.coulomb = sums.coulomb;
  out.lennardJones = sums.lennardJones;
  out.pairsEvaluated = static_cast<std::int64_t>(table.size());
  PairAccumulator acc{sys.forces, sums.virial};
  intramolecularForces(sys, acc, out);
  out.potential = out.lennardJones + out.coulomb + out.intramolecular;
  out.virial = acc.virial;
  out.evalSeconds = secondsSince(start);
  return out;
}

}  // namespace

ForceResult computeForces(WaterSystem& sys, ForceScratch& scratch) {
  return evaluate(sys, scratch.allPairs.table(sys), scratch);
}

ForceResult computeForces(WaterSystem& sys, const NeighborList& list, ForceScratch& scratch) {
  return evaluate(sys, list.table(), scratch);
}

ForceResult computeForces(WaterSystem& sys) {
  ForceScratch scratch;
  return computeForces(sys, scratch);
}

ForceResult computeForces(WaterSystem& sys, const NeighborList& list) {
  ForceScratch scratch;
  return computeForces(sys, list, scratch);
}

TailCorrections ljTailCorrections(const WaterSystem& sys) {
  const WaterParameters& p = sys.parameters();
  const double rc = sys.cutoff();
  const double rho = static_cast<double>(sys.molecules()) / sys.box().volume();
  const double sr3 = std::pow(p.sigma / rc, 3.0);
  const double sr9 = sr3 * sr3 * sr3;
  const double s3 = p.sigma * p.sigma * p.sigma;
  TailCorrections t;
  t.energyKcalPerMol = 8.0 / 3.0 * std::numbers::pi * rho *
                       static_cast<double>(sys.molecules()) * p.epsilon * s3 *
                       (sr9 / 3.0 - sr3);
  t.pressureAtm = 16.0 / 3.0 * std::numbers::pi * rho * rho * p.epsilon * s3 *
                  (2.0 / 3.0 * sr9 - sr3) * kKcalPerMolPerA3InAtm;
  return t;
}

double pressureAtm(const WaterSystem& sys, double virialKcalPerMol) {
  const double volume = sys.box().volume();
  const double kinetic = sys.kineticEnergy();
  const double pKcal = (2.0 * kinetic + virialKcalPerMol) / (3.0 * volume);
  return pKcal * kKcalPerMolPerA3InAtm;
}

}  // namespace sfopt::md
