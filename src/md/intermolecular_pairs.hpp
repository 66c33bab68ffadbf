#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "md/system.hpp"

namespace sfopt::md {

/// Every intermolecular site pair (i < j, ascending (i, j) order) of a
/// water box, built once per site count and cached, plus the squared
/// minimum-image distance of each pair from the dispatched
/// simd::pairDistancesSquared kernel.  The distances are bitwise those of
/// normSquared(PeriodicBox::minimumImage(r_i, r_j)) under every ISA, so a
/// scan over them visits exactly what the per-pair scalar loop did.
class IntermolecularPairs {
 public:
  /// Squared distances of every pair at the system's current positions;
  /// entry k belongs to (first()[k], second()[k]).  The span stays valid
  /// until the next call.
  [[nodiscard]] std::span<const double> distancesSquared(const WaterSystem& sys);

  [[nodiscard]] const std::int32_t* first() const noexcept { return i_.data(); }
  [[nodiscard]] const std::int32_t* second() const noexcept { return j_.data(); }
  [[nodiscard]] std::size_t size() const noexcept { return count_; }

 private:
  int sites_ = -1;
  std::size_t count_ = 0;
  std::vector<std::int32_t> i_, j_;  ///< padded for the kernel's lane groups
  std::vector<double> x_, y_, z_;    ///< SoA positions, refreshed per call
  std::vector<double> r2_;
};

}  // namespace sfopt::md
