#include "md/intermolecular_pairs.hpp"

#include <algorithm>

#include "simd/dispatch.hpp"

namespace sfopt::md {

void PairTable::resize(std::size_t n) {
  constexpr auto kGroup = static_cast<std::size_t>(simd::kForceLaneGroup);
  const std::size_t padded = (n + kGroup - 1) / kGroup * kGroup;
  i_.resize(padded);
  j_.resize(padded);
  species_.resize(padded);
  count_ = n;
}

void PairTable::pad() noexcept {
  for (std::size_t k = count_; k < i_.size(); ++k) {
    set(k, i_[count_ - 1], j_[count_ - 1], species_[count_ - 1]);
  }
}

bool PairTable::operator==(const PairTable& other) const noexcept {
  const auto n = static_cast<std::ptrdiff_t>(count_);
  return count_ == other.count_ && std::equal(i_.begin(), i_.begin() + n, other.i_.begin()) &&
         std::equal(j_.begin(), j_.begin() + n, other.j_.begin()) &&
         std::equal(species_.begin(), species_.begin() + n, other.species_.begin());
}

void snapshotPositions(const std::vector<Vec3>& positions, std::vector<simd::SiteRow>& xyz0) {
  xyz0.resize(positions.size());
  for (std::size_t s = 0; s < positions.size(); ++s) {
    xyz0[s] = {positions[s].x, positions[s].y, positions[s].z, 0.0};
  }
}

const PairTable& IntermolecularPairs::table(const WaterSystem& sys) {
  const int n = sys.sites();
  if (n != sites_) {
    // n (n - 1) / 2 site pairs minus the 3 inside each molecule.
    table_.resize(static_cast<std::size_t>(n) * static_cast<std::size_t>(n - 1) / 2 -
                  3 * static_cast<std::size_t>(sys.molecules()));
    std::size_t k = 0;
    for (int i = 0; i < n; ++i) {
      for (int j = i + 1; j < n; ++j) {
        if (sys.moleculeOf(i) == sys.moleculeOf(j)) continue;
        table_.set(k++, i, j, pairSpecies(sys, i, j));
      }
    }
    table_.pad();
    sites_ = n;
  }
  return table_;
}

std::span<const double> IntermolecularPairs::distancesSquared(const WaterSystem& sys) {
  const PairTable& pairs = table(sys);
  snapshotPositions(sys.positions, xyz0_);
  r2_.resize(pairs.size() + static_cast<std::size_t>(simd::kForceLaneGroup));
  const simd::PairDistanceIn in{.boxEdge = sys.box().edge(),
                                .invBoxEdge = 1.0 / sys.box().edge(),
                                .xyz0 = xyz0_.data(),
                                .pairs = pairs.slice()};
  simd::pairDistancesSquared(in, r2_.data());
  return {r2_.data(), pairs.size()};
}

}  // namespace sfopt::md
