#include "md/forces.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <numbers>

#include "simd/dispatch.hpp"
#include "simd/force_kernel.hpp"

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

/// Structure-of-arrays snapshot of the system plus the precomputed model
/// constants, built once per force evaluation.  The reciprocal constants
/// are the exact IEEE quotients of the force-shifted model's terms.
struct SimdForceContext {
  simd::ForceConstants constants;
  std::vector<double> x, y, z, q, oxy;

  explicit SimdForceContext(const WaterSystem& sys) {
    const WaterParameters& p = sys.parameters();
    const double rc = sys.cutoff();
    const double rc2 = rc * rc;
    const double s2 = p.sigma * p.sigma;
    const double inv2 = s2 / rc2;
    const double inv6 = inv2 * inv2 * inv2;
    const double inv12 = inv6 * inv6;
    constants.boxEdge = sys.box().edge();
    constants.invBoxEdge = 1.0 / sys.box().edge();
    constants.rc = rc;
    constants.rc2 = rc2;
    constants.invRc = 1.0 / rc;
    constants.invRc2 = 1.0 / rc2;
    constants.s2 = s2;
    constants.eps4 = 4.0 * p.epsilon;
    constants.eps24 = 24.0 * p.epsilon;
    constants.ljErc = 4.0 * p.epsilon * (inv12 - inv6);
    constants.ljFrc = 24.0 * p.epsilon * (2.0 * inv12 - inv6) / rc2 * rc;
    constants.coulombScale = kCoulomb;
    const auto n = static_cast<std::size_t>(sys.sites());
    x.resize(n);
    y.resize(n);
    z.resize(n);
    q.resize(n);
    oxy.resize(n);
    for (std::size_t s = 0; s < n; ++s) {
      x[s] = sys.positions[s].x;
      y[s] = sys.positions[s].y;
      z[s] = sys.positions[s].z;
      const int site = static_cast<int>(s);
      q[s] = sys.chargeOf(site);
      oxy[s] = sys.speciesOf(site) == Species::Oxygen ? 1.0 : 0.0;
    }
  }
};

/// Streams pairs through the dispatched per-pair kernel in fixed-size
/// blocks and drains each block scalar, in pair-stream order.  The kernel
/// lanes are pure (a pair's values depend only on its own inputs) and the
/// tail group is padded so every pair runs through identical full-width
/// SIMD instructions — so the drained result depends only on the pair
/// stream, never on where block or lane boundaries fell.  Any two
/// enumerations of the same contributing pairs in the same order (the
/// all-pairs triangle vs the neighbor list) therefore stay bitwise equal.
/// Every ISA, the scalar one included, takes this path.
class SimdPairStream {
 public:
  SimdPairStream(const SimdForceContext& ctx, PairAccumulator& acc, ForceResult& out)
      : ctx_(ctx), acc_(acc), out_(out) {}

  void add(int i, int j) {
    idxI_[static_cast<std::size_t>(count_)] = i;
    idxJ_[static_cast<std::size_t>(count_)] = j;
    if (++count_ == simd::kForceBlockPairs) flush();
  }

  void finish() {
    if (count_ > 0) flush();
  }

 private:
  void flush() {
    // Pad the tail group with the last real pair; padded lanes are
    // computed and discarded.
    std::int64_t padded = count_;
    while (padded % simd::kForceLaneGroup != 0) {
      idxI_[static_cast<std::size_t>(padded)] = idxI_[static_cast<std::size_t>(count_ - 1)];
      idxJ_[static_cast<std::size_t>(padded)] = idxJ_[static_cast<std::size_t>(count_ - 1)];
      ++padded;
    }
    const simd::ForcePairBlockIn in{ctx_.x.data(), ctx_.y.data(),   ctx_.z.data(),
                                    ctx_.q.data(), ctx_.oxy.data(), idxI_.data(),
                                    idxJ_.data(),  count_};
    const simd::ForcePairBlockOut block{dx_.data(),       dy_.data(),  dz_.data(),
                                        coulombE_.data(), coulombS_.data(),
                                        ljE_.data(),      ljS_.data(),
                                        within_.data(),   coulombOn_.data(),
                                        ljOn_.data()};
    simd::forcePairBlock(ctx_.constants, in, block);
    // Only pairs inside the cutoff contribute: compact their positions,
    // branch-free and in stream order, then drain those alone (Coulomb
    // term, then LJ, per pair).
    std::int64_t hits = 0;
    for (std::int64_t k = 0; k < count_; ++k) {
      hits_[static_cast<std::size_t>(hits)] = static_cast<std::int32_t>(k);
      hits += within_[static_cast<std::size_t>(k)];
    }
    for (std::int64_t h = 0; h < hits; ++h) {
      const auto uk = static_cast<std::size_t>(hits_[static_cast<std::size_t>(h)]);
      const Vec3 rij{dx_[uk], dy_[uk], dz_[uk]};
      if (coulombOn_[uk] != 0) {
        out_.coulomb += coulombE_[uk];
        acc_.apply(idxI_[uk], idxJ_[uk], rij, rij * coulombS_[uk]);
      }
      if (ljOn_[uk] != 0) {
        out_.lennardJones += ljE_[uk];
        acc_.apply(idxI_[uk], idxJ_[uk], rij, rij * ljS_[uk]);
      }
    }
    count_ = 0;
  }

  static constexpr std::size_t kCap = static_cast<std::size_t>(simd::kForceBlockPairs);

  const SimdForceContext& ctx_;
  PairAccumulator& acc_;
  ForceResult& out_;
  std::int64_t count_ = 0;
  // Block scratch, deliberately left uninitialized: flush() writes every
  // slot it reads (the kernel fills each output up to the padded count).
  std::array<std::int32_t, kCap> idxI_;
  std::array<std::int32_t, kCap> idxJ_;
  std::array<std::int32_t, kCap> hits_;
  std::array<double, kCap> dx_, dy_, dz_;
  std::array<double, kCap> coulombE_, coulombS_, ljE_, ljS_;
  std::array<std::uint8_t, kCap> within_, coulombOn_, ljOn_;
};

}  // namespace

ForceResult computeForces(WaterSystem& sys) {
  const auto start = Clock::now();
  ForceResult out;
  for (auto& f : sys.forces) f = Vec3{};
  PairAccumulator acc{sys.forces};
  const int n = sys.sites();
  const SimdForceContext ctx(sys);
  SimdPairStream stream(ctx, acc, out);
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      if (sys.moleculeOf(i) == sys.moleculeOf(j)) continue;
      stream.add(i, j);
    }
  }
  stream.finish();
  // All intermolecular i<j pairs: the full triangle minus the 3 pairs
  // internal to each of the molecules.
  out.pairsEvaluated = static_cast<std::int64_t>(n) * (n - 1) / 2 - 3LL * sys.molecules();
  intramolecularForces(sys, acc, out);
  out.potential = out.lennardJones + out.coulomb + out.intramolecular;
  out.virial = acc.virial;
  out.evalSeconds = secondsSince(start);
  return out;
}

ForceResult computeForces(WaterSystem& sys, const NeighborList& list) {
  const auto start = Clock::now();
  ForceResult out;
  for (auto& f : sys.forces) f = Vec3{};
  PairAccumulator acc{sys.forces};
  const SimdForceContext ctx(sys);
  SimdPairStream stream(ctx, acc, out);
  for (const auto& [i, j] : list.pairs()) {
    stream.add(i, j);
  }
  stream.finish();
  out.pairsEvaluated = static_cast<std::int64_t>(list.pairs().size());
  intramolecularForces(sys, acc, out);
  out.potential = out.lennardJones + out.coulomb + out.intramolecular;
  out.virial = acc.virial;
  out.evalSeconds = secondsSince(start);
  return out;
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
