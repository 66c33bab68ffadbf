#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "md/intermolecular_pairs.hpp"
#include "md/system.hpp"

namespace sfopt::md {

/// Which radial distribution function a curve describes.
enum class PairKind : std::uint8_t { OO = 0, OH = 1, HH = 2 };

/// A sampled g(r) curve on a uniform r grid.
struct RdfCurve {
  std::vector<double> r;  ///< bin centers, Angstrom
  std::vector<double> g;  ///< g(r)
};

/// Accumulates intermolecular pair-distance histograms over frames and
/// normalizes them into the three water radial distribution functions
/// (g_OO, g_OH, g_HH) that enter the paper's cost function (eq. 3.5).
class RdfAccumulator {
 public:
  RdfAccumulator(double rMax, int bins);

  /// Bin all intermolecular site pairs of the current frame (their
  /// distances come from the SIMD distance kernel over a cached pair
  /// table, their kinds from its species codes).
  void addFrame(const WaterSystem& sys);

  [[nodiscard]] int frames() const noexcept { return frames_; }

  /// Raw pair counts per bin for a pair kind, summed over the frames.
  [[nodiscard]] std::span<const std::uint64_t> histogram(PairKind kind) const noexcept {
    return {hist_[static_cast<std::size_t>(kind)].data(), static_cast<std::size_t>(bins_)};
  }

  /// Normalized g(r) for a pair kind.  Requires at least one frame.
  [[nodiscard]] RdfCurve curve(PairKind kind, const WaterSystem& sys) const;

 private:
  double rMax_;
  double dr_;
  int bins_;
  int frames_ = 0;
  /// Histograms indexed by PairKind; slot `bins` of each absorbs the
  /// pairs at or beyond rMax, so binning needs no branch.
  std::array<std::vector<std::uint64_t>, 3> hist_;
  IntermolecularPairs pairs_;
};

/// Accumulates oxygen mean-square displacement against the starting frame
/// and extracts the self-diffusion coefficient via the Einstein relation
/// D = MSD / (6 t), reported in cm^2/s as the paper's tables do.
class MsdAccumulator {
 public:
  explicit MsdAccumulator(const WaterSystem& sys);

  /// Record the current frame at simulated time tPs.
  void addFrame(const WaterSystem& sys, double tPs);

  /// Least-squares slope of MSD(t) over the recorded frames, converted to
  /// cm^2/s.  Requires at least 2 frames.
  [[nodiscard]] double diffusionCm2PerS() const;

  [[nodiscard]] const std::vector<double>& times() const noexcept { return times_; }
  [[nodiscard]] const std::vector<double>& msd() const noexcept { return msd_; }

 private:
  std::vector<Vec3> start_;
  std::vector<double> times_;
  std::vector<double> msd_;
};

/// Root-mean-square difference between a sampled curve and a reference
/// curve on the same grid over [rMin, rMax] — the curve-to-scalar
/// reduction of eq. 3.5.
[[nodiscard]] double rdfResidual(const RdfCurve& sampled, const RdfCurve& reference,
                                 double rMin, double rMax);

}  // namespace sfopt::md
