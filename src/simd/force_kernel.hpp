#pragma once

#include <cstdint>

// The MD kernels' ABI.  A pair table (md::PairTable) holds every pair as
// SoA first site, second site and species code, fixed when the table is
// built; the kernels read slices of it by pointer, positions as 32-byte
// SiteRow snapshots, and the per-evaluation ForceConstants.
// md::computeForces makes one simd::forcePairs call per evaluation, which
// is what the simd.dispatch.force_blocks gauge counts.  Hosts other than
// x86 run the scalar force and distance kernels.

namespace sfopt::simd {

/// Pairs per force-kernel block.  A kernel runs its passes over one block
/// of a slice at a time, on stack scratch of this size; a multiple of
/// every lane width (2, 4).
inline constexpr std::int64_t kForceBlockPairs = 256;

/// Pair tables are padded (with copies of their last real pair) to a
/// multiple of this group size, so every pair, tail included, is read by
/// the same full-width SIMD instructions.  Covers the widest lane count
/// (AVX2: 4) with headroom for a future 8-lane level.
inline constexpr std::int64_t kForceLaneGroup = 8;

/// Species code of a pair, fixed when its table is built:
/// 2 * species(first site) + species(second site), oxygen 0, hydrogen 1.
/// O-H and H-O stay distinct codes because their charge products
/// (C q_a) q_b may differ in the last bit.
enum PairSpecies : std::uint8_t { kPairOO = 0, kPairOH = 1, kPairHO = 2, kPairHH = 3 };

/// A run of a pair table's entries in SoA form.  The arrays must stay
/// readable up to the next kForceLaneGroup multiple of `count`; a table's
/// padding guarantees that for any slice starting on a lane-group
/// boundary.
struct PairSlice {
  const std::int32_t* i = nullptr;        ///< first sites
  const std::int32_t* j = nullptr;        ///< second sites
  const std::uint8_t* species = nullptr;  ///< PairSpecies codes
  std::int64_t count = 0;
};

/// One site's row of the kernels' position snapshot (x, y, z, 0) or force
/// accumulator: 32 bytes, so one AVX2 load reads a whole site.  No member
/// initializers, so the kernels' stack rows cost nothing to declare; a
/// value-initialized row (`SiteRow{}`, `std::vector<SiteRow>(n)`) is zero.
struct alignas(32) SiteRow {
  double x;
  double y;
  double z;
  double pad;  ///< 0 in a position snapshot; unspecified in forces
};

/// Per-evaluation constants of the force-shifted nonbonded model (see
/// md/forces.cpp).  The reciprocals are the exact IEEE quotients the
/// formulas would compute at run time.  LJ acts on O-O pairs only.
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
  /// (C q_a) q_b by PairSpecies code, C the Coulomb constant: the
  /// per-pair product of the Coulomb energy V = C q_a q_b (...).
  double qq[4] = {0.0, 0.0, 0.0, 0.0};
};

/// Running nonbonded sums of a force evaluation; the kernel adds each
/// pair's terms in stream order (Coulomb, then LJ, per pair).
struct ForceSums {
  double coulomb = 0.0;       ///< shifted Coulomb energy
  double lennardJones = 0.0;  ///< shifted LJ energy
  double virial = 0.0;        ///< sum of r_ij . F_ij
};

/// Input of the squared-distance kernel: the cubic box, a position
/// snapshot and the pairs (their species codes are not read).
struct PairDistanceIn {
  double boxEdge = 0.0;     ///< cubic box edge L
  double invBoxEdge = 0.0;  ///< 1/L
  const SiteRow* xyz0 = nullptr;
  PairSlice pairs;
};

}  // namespace sfopt::simd
