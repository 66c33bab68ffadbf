#include "md/intermolecular_pairs.hpp"

#include "simd/dispatch.hpp"
#include "simd/force_kernel.hpp"

namespace sfopt::md {

std::span<const double> IntermolecularPairs::distancesSquared(const WaterSystem& sys) {
  const int n = sys.sites();
  if (n != sites_) {
    i_.clear();
    j_.clear();
    for (int i = 0; i < n; ++i) {
      for (int j = i + 1; j < n; ++j) {
        if (sys.moleculeOf(i) == sys.moleculeOf(j)) continue;
        i_.push_back(i);
        j_.push_back(j);
      }
    }
    count_ = i_.size();
    while (!i_.empty() && i_.size() % simd::kForceLaneGroup != 0) {
      i_.push_back(i_.back());
      j_.push_back(j_.back());
    }
    r2_.resize(i_.size());
    sites_ = n;
  }
  const auto un = static_cast<std::size_t>(n);
  x_.resize(un);
  y_.resize(un);
  z_.resize(un);
  for (std::size_t s = 0; s < un; ++s) {
    x_[s] = sys.positions[s].x;
    y_[s] = sys.positions[s].y;
    z_[s] = sys.positions[s].z;
  }
  const simd::PairDistanceIn in{.boxEdge = sys.box().edge(),
                                .invBoxEdge = 1.0 / sys.box().edge(),
                                .x = x_.data(),
                                .y = y_.data(),
                                .z = z_.data(),
                                .i = i_.data(),
                                .j = j_.data(),
                                .count = static_cast<std::int64_t>(count_)};
  simd::pairDistancesSquared(in, r2_.data());
  return {r2_.data(), count_};
}

}  // namespace sfopt::md
