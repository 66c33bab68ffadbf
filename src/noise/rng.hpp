#pragma once

#include <cmath>
#include <cstdint>
#include <numbers>
#include <utility>

namespace sfopt::noise {

/// SplitMix64 finalizer step: a strong 64-bit mixing function.
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Combine keys into a single 64-bit hash, order-sensitively.
[[nodiscard]] constexpr std::uint64_t hashCombine(std::uint64_t a, std::uint64_t b) noexcept {
  return splitmix64(a ^ (splitmix64(b) + 0x9e3779b97f4a7c15ULL + (a << 6) + (a >> 2)));
}

/// Raw 64 random bits for (index, salt) on the stream whose prefix is
/// `prefix` (see CounterRng::streamPrefix).  The one key hash every draw
/// goes through.
[[nodiscard]] constexpr std::uint64_t bitsAt(std::uint64_t prefix, std::uint64_t index,
                                             std::uint64_t salt) noexcept {
  return hashCombine(hashCombine(prefix, index), salt);
}

/// 53 random bits into the mantissa => uniform on [0, 1).
[[nodiscard]] constexpr double unitInterval(std::uint64_t bits) noexcept {
  return static_cast<double>(bits >> 11) * 0x1.0p-53;
}

/// Standard normal deviate for (index, salt) on the stream whose prefix is
/// `prefix`, via Box-Muller over salts `salt` and `salt + 1`.  Inline so a
/// sampling run pays only the per-index hashing: the prefix is computed
/// once per run, and with a constant salt the salt hashes fold away.
[[nodiscard]] inline double gaussianAt(std::uint64_t prefix, std::uint64_t index,
                                       std::uint64_t salt = 0) noexcept {
  // u1 is kept away from 0 so log() is finite.
  const double u1 = unitInterval(bitsAt(prefix, index, salt)) + 0x1.0p-54;
  const double u2 = unitInterval(bitsAt(prefix, index, salt + 1));
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * std::numbers::pi * u2);
}

/// Identifies one noise draw.  The pair (stream, index) maps to a unique,
/// reproducible random value regardless of the order in which draws are
/// requested — this is what makes parallel (master-worker) runs bitwise
/// reproducible: vertex k's j-th sample sees the same noise whether it is
/// computed by worker 3 or worker 7, first or last.
struct SampleKey {
  std::uint64_t stream = 0;  ///< typically a vertex id
  std::uint64_t index = 0;   ///< sample counter within the stream
};

/// Stateless counter-based random generator: every (seed, key) pair yields
/// an independent, reproducible value.  This is the philox-style discipline
/// recommended for HPC reproducibility, implemented with SplitMix64 mixing.
class CounterRng {
 public:
  explicit constexpr CounterRng(std::uint64_t seed) noexcept : seed_(seed) {}

  /// The (seed, stream) part of every key hash on `stream`: draws at any
  /// index of the stream are bitsAt/gaussianAt(streamPrefix(stream), ...).
  [[nodiscard]] constexpr std::uint64_t streamPrefix(std::uint64_t stream) const noexcept {
    return hashCombine(splitmix64(seed_), stream);
  }

  /// Raw 64 random bits for (key, salt).
  [[nodiscard]] std::uint64_t bits(SampleKey key, std::uint64_t salt = 0) const noexcept;

  /// Uniform double in [0, 1).
  [[nodiscard]] double uniform(SampleKey key, std::uint64_t salt = 0) const noexcept;

  /// Uniform double in [lo, hi).
  [[nodiscard]] double uniform(SampleKey key, double lo, double hi,
                               std::uint64_t salt = 0) const noexcept;

  /// Standard normal deviate via Box-Muller (uses salts `salt` and `salt+1`).
  [[nodiscard]] double gaussian(SampleKey key, std::uint64_t salt = 0) const noexcept;

  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }

 private:
  std::uint64_t seed_;
};

/// A small stateful convenience stream on top of CounterRng: draws advance
/// an internal counter.  Useful for setup code (initial simplex generation)
/// where replay ordering is naturally sequential.
class RngStream {
 public:
  RngStream(std::uint64_t seed, std::uint64_t stream) noexcept
      : rng_(seed), key_{stream, 0} {}

  double uniform() noexcept { return rng_.uniform(next()); }
  double uniform(double lo, double hi) noexcept { return rng_.uniform(next(), lo, hi); }
  double gaussian() noexcept { return rng_.gaussian(next()); }
  std::uint64_t bits() noexcept { return rng_.bits(next()); }

  /// Uniform integer in [0, n).
  std::uint64_t below(std::uint64_t n) noexcept;

 private:
  SampleKey next() noexcept {
    SampleKey k = key_;
    ++key_.index;
    return k;
  }
  CounterRng rng_;
  SampleKey key_;
};

}  // namespace sfopt::noise
