#pragma once

#include <cstdint>

namespace sfopt::simd {

/// Pairs per dispatched force block.  A multiple of every lane width (2,
/// 4) so a full block never needs tail padding; callers of partial blocks
/// pad the index arrays up to the next kForceLaneGroup boundary.
inline constexpr std::int64_t kForceBlockPairs = 256;

/// Index arrays handed to forcePairBlock must be padded (with any valid
/// site index, conventionally the last real pair's) to a multiple of this
/// group size, so every pair — tail included — is computed by identical
/// full-width SIMD instructions.  Covers the widest lane count (AVX2: 4)
/// with headroom for a future 8-lane level.
inline constexpr std::int64_t kForceLaneGroup = 8;

/// Precomputed per-evaluation constants of the force-shifted nonbonded
/// model (see md/forces.cpp).  All reciprocals are the exact IEEE
/// quotients the scalar kernel computes at runtime, so using them keeps
/// the SIMD math on the same values.
struct ForceConstants {
  double boxEdge = 0.0;     ///< cubic box edge L
  double invBoxEdge = 0.0;  ///< 1/L
  double rc = 0.0;          ///< cutoff radius
  double rc2 = 0.0;         ///< rc^2
  double invRc = 0.0;       ///< 1/rc
  double invRc2 = 0.0;      ///< 1/rc^2
  double s2 = 0.0;          ///< sigma^2
  double eps4 = 0.0;        ///< 4 epsilon
  double eps24 = 0.0;       ///< 24 epsilon
  double ljErc = 0.0;       ///< LJ energy at the cutoff (shift)
  double ljFrc = 0.0;       ///< LJ force magnitude at the cutoff (shift)
  double coulombScale = 0.0;  ///< Coulomb constant C in V = C q q (...)
};

/// One block of nonbonded pairs in SoA form.  `count` is the number of
/// real pairs (1..kForceBlockPairs); the index arrays must remain valid
/// (padded) up to the next kForceLaneGroup multiple of count.
struct ForcePairBlockIn {
  const double* x = nullptr;  ///< site x coordinates
  const double* y = nullptr;
  const double* z = nullptr;
  const double* q = nullptr;    ///< site charges
  const double* oxy = nullptr;  ///< 1.0 for oxygen sites, 0.0 otherwise
  const std::int32_t* i = nullptr;  ///< pair first-site indices
  const std::int32_t* j = nullptr;  ///< pair second-site indices
  std::int64_t count = 0;
};

/// Per-pair kernel outputs; every array must have room for `count` rounded
/// up to kForceLaneGroup.  Forces are returned as scales: the force on
/// site i from one term is (dx, dy, dz) * S (and -that on j), which the
/// caller applies scalar so accumulation order stays the caller's choice.
/// The displacement and the three flags are set for every pair; a term's
/// energy and scale are defined only where its flag is set (the scalar,
/// SSE4 and AVX2 kernels write 0.0 elsewhere, and never compute them).
struct ForcePairBlockOut {
  double* dx = nullptr;  ///< minimum-image displacement r_i - r_j
  double* dy = nullptr;
  double* dz = nullptr;
  double* coulombE = nullptr;  ///< shifted Coulomb pair energy
  double* coulombS = nullptr;  ///< Coulomb force scale
  double* ljE = nullptr;       ///< shifted LJ pair energy
  double* ljS = nullptr;       ///< LJ force scale
  std::uint8_t* withinCutoff = nullptr;   ///< r^2 < rc^2
  std::uint8_t* coulombActive = nullptr;  ///< within cutoff and qq != 0
  std::uint8_t* ljActive = nullptr;       ///< within cutoff and both oxygen
};

/// Site pairs for the squared-distance kernel, in the SoA form of
/// ForcePairBlockIn.  Any `count` >= 0; the index arrays must stay valid
/// (padded) up to the next kForceLaneGroup multiple of count, and so must
/// the output array's room.
struct PairDistanceIn {
  double boxEdge = 0.0;     ///< cubic box edge L
  double invBoxEdge = 0.0;  ///< 1/L
  const double* x = nullptr;
  const double* y = nullptr;
  const double* z = nullptr;
  const std::int32_t* i = nullptr;
  const std::int32_t* j = nullptr;
  std::int64_t count = 0;
};

}  // namespace sfopt::simd
