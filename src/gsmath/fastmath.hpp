// Small fast-math helpers for the optimized raster kernel.
//
// The fast kernel's inner loop stays bit-identical to the reference
// implementation by never changing the arithmetic of a *blended* pair; it
// only skips work whose result is provably discarded. The helpers here
// encode those provably-safe shortcuts (and the batch width the kernel
// vectorizes over) so the bounds live next to their justification and can
// be unit-tested in isolation.
#pragma once

#include <cmath>
#include <limits>

namespace gaurast {

/// Pixels per row batch in the fast raster kernel: the width of its explicit
/// SIMD lanes (one AVX register or two SSE2 registers of floats) and of its
/// 8-bit lane masks. Divides every supported tile size (8/16/32/64).
inline constexpr int kRasterLaneWidth = 8;

/// Absolute slack (in Gaussian-power space, i.e. log-alpha units) subtracted
/// from the analytic cutoff below. float log/exp round to ~1 ulp (~1e-7
/// relative, so ~1e-6 absolute over the reachable power range); 1e-3 dwarfs
/// the combined rounding of the cutoff computation and the reference
/// kernel's own opacity * exp(power) evaluation.
inline constexpr float kAlphaCutoffSlack = 1e-3f;

/// Conservative lower bound on the Gaussian exponent `power`: whenever
/// power < alpha_cutoff_power(alpha_min, opacity), the reference kernel's
///   alpha = min(alpha_max, opacity * exp(power))
/// is guaranteed to land below alpha_min, i.e. the pair is discarded by the
/// blend threshold. The fast kernel uses this to skip the exp() for pairs
/// that cannot contribute, without ever skipping a pair the reference
/// kernel blends (which would break bit-identity).
///
/// Derivation: opacity * exp(power) < alpha_min  <=>
/// power < log(alpha_min / opacity); kAlphaCutoffSlack absorbs rounding.
inline float alpha_cutoff_power(float alpha_min, float opacity) {
  if (!(alpha_min > 0.0f)) {
    // alpha_min <= 0 blends every pair (even alpha == 0), so no power is
    // provably discardable: -inf is below nothing, not even power == -inf
    // (an overflowed exponent must still blend as the reference's exact
    // alpha == 0 no-op in this regime).
    return -std::numeric_limits<float>::infinity();
  }
  if (std::isnan(opacity)) {
    // No bound is provable through a NaN: never skip, so the kernel
    // evaluates the pair with the reference arithmetic (where
    // min(alpha_max, NaN) blends at alpha_max).
    return -std::numeric_limits<float>::infinity();
  }
  if (opacity <= 0.0f) {
    // alpha <= 0 < alpha_min for every power: always discardable (+inf
    // powers never reach the cutoff test — the power > 0 guard runs first).
    return std::numeric_limits<float>::infinity();
  }
  return std::log(alpha_min / opacity) - kAlphaCutoffSlack;
}

}  // namespace gaurast
