#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "md/system.hpp"
#include "simd/force_kernel.hpp"

namespace sfopt::md {

/// Species code of the site pair (i, j): simd::PairSpecies.
[[nodiscard]] inline std::uint8_t pairSpecies(const WaterSystem& sys, int i, int j) noexcept {
  return static_cast<std::uint8_t>(2 * static_cast<int>(sys.speciesOf(i)) +
                                   static_cast<int>(sys.speciesOf(j)));
}

/// Intermolecular site pairs in the SoA form the force and distance
/// kernels read: first site, second site (i < j) and the pair's species
/// code, fixed when the table is filled.  The storage is padded with
/// copies of the last pair to a multiple of simd::kForceLaneGroup.  Every
/// table here is i-major and ascending, the all-pairs scan order, so any
/// two tables of the same pairs are equal and sum identically; the force
/// kernel's drain relies on that order.
class PairTable {
 public:
  /// Set the number of pairs; entries past the old size are unspecified
  /// until set().
  void resize(std::size_t n);

  /// Write entry k < size().
  void set(std::size_t k, std::int32_t i, std::int32_t j, std::uint8_t species) noexcept {
    i_[k] = i;
    j_[k] = j;
    species_[k] = species;
  }

  /// Copy the last pair into the padding; call once the entries are set.
  void pad() noexcept;

  [[nodiscard]] std::size_t size() const noexcept { return count_; }
  [[nodiscard]] const std::int32_t* first() const noexcept { return i_.data(); }
  [[nodiscard]] const std::int32_t* second() const noexcept { return j_.data(); }
  [[nodiscard]] const std::uint8_t* species() const noexcept { return species_.data(); }
  [[nodiscard]] simd::PairSlice slice() const noexcept {
    return {i_.data(), j_.data(), species_.data(), static_cast<std::int64_t>(count_)};
  }

  /// Same pairs, species and order (the padding is not compared).
  [[nodiscard]] bool operator==(const PairTable& other) const noexcept;

 private:
  std::size_t count_ = 0;
  std::vector<std::int32_t> i_, j_;
  std::vector<std::uint8_t> species_;
};

/// The kernels' snapshot of `positions`: one (x, y, z, 0) row per site.
void snapshotPositions(const std::vector<Vec3>& positions, std::vector<simd::SiteRow>& xyz0);

/// Every intermolecular site pair of a water box (ascending (i, j)),
/// built once per site count, plus the squared minimum-image distance of
/// each pair from the dispatched simd::pairDistancesSquared kernel.  The
/// distances are bitwise those of normSquared(PeriodicBox::minimumImage(
/// r_i, r_j)) under every ISA, so a scan over them visits exactly what the
/// per-pair scalar loop did.  One table serves the all-pairs force path,
/// brute-force neighbor-list rebuilds and the RDF.
class IntermolecularPairs {
 public:
  /// The pair table of `sys`'s site count.
  [[nodiscard]] const PairTable& table(const WaterSystem& sys);

  /// Squared distances of every pair at the system's current positions;
  /// entry k belongs to table(sys) entry k.  The span stays valid until
  /// the next call.
  [[nodiscard]] std::span<const double> distancesSquared(const WaterSystem& sys);

 private:
  int sites_ = -1;
  PairTable table_;
  std::vector<simd::SiteRow> xyz0_;  ///< position snapshot, refreshed per call
  std::vector<double> r2_;
};

}  // namespace sfopt::md
