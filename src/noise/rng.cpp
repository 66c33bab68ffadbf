#include "noise/rng.hpp"

namespace sfopt::noise {

std::uint64_t CounterRng::bits(SampleKey key, std::uint64_t salt) const noexcept {
  return bitsAt(streamPrefix(key.stream), key.index, salt);
}

double CounterRng::uniform(SampleKey key, std::uint64_t salt) const noexcept {
  return unitInterval(bits(key, salt));
}

double CounterRng::uniform(SampleKey key, double lo, double hi, std::uint64_t salt) const noexcept {
  return lo + (hi - lo) * uniform(key, salt);
}

double CounterRng::gaussian(SampleKey key, std::uint64_t salt) const noexcept {
  return gaussianAt(streamPrefix(key.stream), key.index, salt);
}

std::uint64_t RngStream::below(std::uint64_t n) noexcept {
  if (n == 0) return 0;
  // Modulo bias is negligible for n << 2^64 (all library uses are tiny n).
  return bits() % n;
}

}  // namespace sfopt::noise
