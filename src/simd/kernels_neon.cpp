// NEON Welford kernel (2-lane double, aarch64 baseline — no extra compile
// flags needed), with the x86 TUs' lane-order contract; compiled with
// -ffp-contract=off for the same reason.  NEON takes the scalar force and
// distance kernels.

#if defined(__aarch64__)

#include <arm_neon.h>

#include "simd/kernels.hpp"
#include "stats/welford.hpp"

namespace sfopt::simd::detail {

void welfordChunkNeon(const double* samples, std::int64_t count, std::int64_t* outN,
                      double* outMean, double* outM2) {
  const std::int64_t main = count - count % 2;
  float64x2_t cnt = vdupq_n_f64(0.0);
  float64x2_t mean = vdupq_n_f64(0.0);
  float64x2_t m2 = vdupq_n_f64(0.0);
  const float64x2_t one = vdupq_n_f64(1.0);
  for (std::int64_t k = 0; k < main; k += 2) {
    const float64x2_t x = vld1q_f64(samples + k);
    cnt = vaddq_f64(cnt, one);
    const float64x2_t delta = vsubq_f64(x, mean);
    mean = vaddq_f64(mean, vdivq_f64(delta, cnt));
    m2 = vaddq_f64(m2, vmulq_f64(delta, vsubq_f64(x, mean)));
  }
  // Canonical reduction: fold lanes 0..1 in order, then the tail samples
  // sequentially.
  stats::Welford merged;
  for (int l = 0; l < 2; ++l) {
    const double n = l == 0 ? vgetq_lane_f64(cnt, 0) : vgetq_lane_f64(cnt, 1);
    const double mu = l == 0 ? vgetq_lane_f64(mean, 0) : vgetq_lane_f64(mean, 1);
    const double ss = l == 0 ? vgetq_lane_f64(m2, 0) : vgetq_lane_f64(m2, 1);
    merged.merge(stats::Welford::fromMoments(static_cast<std::int64_t>(n), mu, ss));
  }
  for (std::int64_t k = main; k < count; ++k) merged.add(samples[k]);
  *outN = merged.count();
  *outMean = merged.mean();
  *outM2 = merged.sumSquaredDeviations();
}

}  // namespace sfopt::simd::detail

#endif  // __aarch64__
