#include "md/observables.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>

namespace sfopt::md {

RdfAccumulator::RdfAccumulator(double rMax, int bins)
    : rMax_(rMax), dr_(rMax / bins), bins_(bins) {
  if (bins < 1) throw std::invalid_argument("RdfAccumulator: bins must be >= 1");
  if (!(rMax > 0.0)) throw std::invalid_argument("RdfAccumulator: rMax must be positive");
  for (auto& h : hist_) h.assign(static_cast<std::size_t>(bins) + 1, 0);
}

void RdfAccumulator::addFrame(const WaterSystem& sys) {
  // PairKind by species code: O-O, O-H, H-O, H-H.
  constexpr std::size_t kKindOf[4] = {static_cast<std::size_t>(PairKind::OO),
                                      static_cast<std::size_t>(PairKind::OH),
                                      static_cast<std::size_t>(PairKind::OH),
                                      static_cast<std::size_t>(PairKind::HH)};
  const std::span<const double> d2 = pairs_.distancesSquared(sys);
  const std::uint8_t* species = pairs_.table(sys).species();
  const auto overflow = static_cast<std::size_t>(bins_);
  for (std::size_t k = 0; k < d2.size(); ++k) {
    const double r = std::sqrt(d2[k]);
    const std::size_t bin = r < rMax_ ? static_cast<std::size_t>(r / dr_) : overflow;
    ++hist_[kKindOf[species[k]]][bin];
  }
  ++frames_;
}

RdfCurve RdfAccumulator::curve(PairKind kind, const WaterSystem& sys) const {
  if (frames_ == 0) throw std::logic_error("RdfAccumulator::curve: no frames recorded");
  const auto& hist = hist_[static_cast<std::size_t>(kind)];
  const double nMol = sys.molecules();
  // Number of distinct intermolecular pairs for the kind:
  //   OO: N(N-1)/2, OH: 2 N (N-1)  (each O pairs with 2 H on other mols,
  //   counted once per unordered site pair => 2 N (N-1)), HH: 2 N (N-1).
  double pairCount = 0.0;
  switch (kind) {
    case PairKind::OO: pairCount = nMol * (nMol - 1.0) / 2.0; break;
    case PairKind::OH: pairCount = 2.0 * nMol * (nMol - 1.0); break;
    case PairKind::HH: pairCount = 2.0 * nMol * (nMol - 1.0); break;
  }
  const double volume = sys.box().volume();
  RdfCurve out;
  out.r.resize(static_cast<std::size_t>(bins_));
  out.g.resize(static_cast<std::size_t>(bins_));
  for (int b = 0; b < bins_; ++b) {
    const double rLo = b * dr_;
    const double rHi = rLo + dr_;
    const double shell = 4.0 / 3.0 * std::numbers::pi * (rHi * rHi * rHi - rLo * rLo * rLo);
    // Ideal-gas expectation for this shell over all frames.
    const double ideal = pairCount * shell / volume * frames_;
    out.r[static_cast<std::size_t>(b)] = rLo + dr_ / 2.0;
    out.g[static_cast<std::size_t>(b)] =
        ideal > 0.0 ? static_cast<double>(hist[static_cast<std::size_t>(b)]) / ideal : 0.0;
  }
  return out;
}

MsdAccumulator::MsdAccumulator(const WaterSystem& sys) {
  start_.reserve(static_cast<std::size_t>(sys.molecules()));
  for (int m = 0; m < sys.molecules(); ++m) {
    start_.push_back(sys.positions[static_cast<std::size_t>(m * kSitesPerMolecule)]);
  }
}

void MsdAccumulator::addFrame(const WaterSystem& sys, double tPs) {
  double acc = 0.0;
  for (int m = 0; m < sys.molecules(); ++m) {
    const Vec3 d =
        sys.positions[static_cast<std::size_t>(m * kSitesPerMolecule)] -
        start_[static_cast<std::size_t>(m)];
    acc += normSquared(d);  // unwrapped positions: plain displacement
  }
  times_.push_back(tPs);
  msd_.push_back(acc / sys.molecules());
}

double MsdAccumulator::diffusionCm2PerS() const {
  if (times_.size() < 2) {
    throw std::logic_error("MsdAccumulator::diffusionCm2PerS: need at least 2 frames");
  }
  // Least-squares slope through the recorded (t, MSD) points.
  double st = 0.0;
  double sm = 0.0;
  double stt = 0.0;
  double stm = 0.0;
  const double n = static_cast<double>(times_.size());
  for (std::size_t i = 0; i < times_.size(); ++i) {
    st += times_[i];
    sm += msd_[i];
    stt += times_[i] * times_[i];
    stm += times_[i] * msd_[i];
  }
  const double denom = n * stt - st * st;
  if (denom <= 0.0) return 0.0;
  const double slope = (n * stm - st * sm) / denom;  // A^2 / ps
  // D = slope / 6; A^2/ps = 1e-16 cm^2 / 1e-12 s = 1e-4 cm^2/s.
  return slope / 6.0 * 1e-4;
}

double rdfResidual(const RdfCurve& sampled, const RdfCurve& reference, double rMin, double rMax) {
  if (sampled.r.size() != sampled.g.size() || reference.r.size() != reference.g.size()) {
    throw std::invalid_argument("rdfResidual: malformed curve");
  }
  if (!(rMin < rMax)) throw std::invalid_argument("rdfResidual: requires rMin < rMax");
  // Integrate on the sampled grid, linearly interpolating the reference.
  auto refAt = [&](double r) {
    if (reference.r.empty()) return 0.0;
    if (r <= reference.r.front()) return reference.g.front();
    if (r >= reference.r.back()) return reference.g.back();
    std::size_t hi = 1;
    while (hi < reference.r.size() && reference.r[hi] < r) ++hi;
    const double r0 = reference.r[hi - 1];
    const double r1 = reference.r[hi];
    const double w = (r - r0) / (r1 - r0);
    return reference.g[hi - 1] * (1.0 - w) + reference.g[hi] * w;
  };
  double acc = 0.0;
  double span = 0.0;
  for (std::size_t i = 0; i < sampled.r.size(); ++i) {
    const double r = sampled.r[i];
    if (r < rMin || r > rMax) continue;
    const double d = sampled.g[i] - refAt(r);
    acc += d * d;
    span += 1.0;
  }
  if (span == 0.0) return 0.0;
  return std::sqrt(acc / span);
}

}  // namespace sfopt::md
