// Processing Element functional datapath (paper Fig. 7(c), Table II).
//
// Each PE supports two modes sharing one arithmetic pool:
//   Triangle mode (pre-existing): coordinate shift -> edge-function
//     intersection detection -> barycentric (UV) weight via the dedicated
//     divider -> min-depth color hold.
//   Gaussian mode (the enhancement): coordinate shift -> conic quadratic
//     form + dedicated exponentiation unit -> color weight -> front-to-back
//     accumulation.
//
// The functional arithmetic is byte-identical to the software pipelines
// (pipeline/rasterize.hpp, mesh/raster.hpp) so hardware-model images match
// the software reference exactly. Every retired operation is tallied into a
// plain OpTally using the *hardware* op inventory (incremental edge
// evaluation for triangles); the rasterizer writes the frame's tallies into
// its named sim::CounterSet once, which feeds the energy model.
#pragma once

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/half.hpp"
#include "core/config.hpp"
#include "mesh/raster.hpp"
#include "pipeline/rasterize.hpp"
#include "sim/counters.hpp"

namespace gaurast::core {

/// Static resource inventory of one PE, as synthesized (paper Sec. IV-B):
/// the triangle rasterizer contributes 9 adders, 9 multipliers and one
/// divider; Gaussian support adds 2 adders, 1 multiplier and 1 exp unit.
struct PeResources {
  int shared_adders = 9;
  int shared_multipliers = 9;
  int triangle_dividers = 1;
  int gaussian_adders = 2;
  int gaussian_multipliers = 1;
  int gaussian_exp_units = 1;

  int total_adders() const { return shared_adders + gaussian_adders; }
  int total_multipliers() const {
    return shared_multipliers + gaussian_multipliers;
  }
};

/// Result of one Gaussian pair evaluation.
struct GaussianPairResult {
  float alpha = 0.0f;    ///< post-clamp alpha (0 when the exp was skipped)
  bool blended = false;  ///< passed the 1/255 threshold and was accumulated
};

/// Datapath ops retired by the PE model, tallied as plain integers in the
/// per-pair loop (a CounterSet lookup per op would dominate the model's
/// host time).
struct OpTally {
  std::uint64_t add = 0;
  std::uint64_t mul = 0;
  std::uint64_t div = 0;
  std::uint64_t exp = 0;
  std::uint64_t cmp = 0;

  /// Adds every nonzero tally to its fp32.* counter (a zero tally leaves
  /// the counter absent, as if the op never ran).
  void add_to(sim::CounterSet& counters) const;
};

namespace detail {

/// Rounds through binary16 when the datapath is FP16; identity for FP32.
template <Precision P>
inline float q(float v) {
  if constexpr (P == Precision::kFp16) {
    return round_to_half(v);
  } else {
    return v;
  }
}

/// The Gaussian-mode datapath, specialised by precision so the FP32
/// instantiation carries no rounding branch. `exp_cutoff` is
/// alpha_cutoff_power(params.alpha_min, splat.opacity) (gsmath/fastmath.hpp):
/// in FP32 a pair whose power lies below it cannot pass the blend threshold,
/// so its exp() is skipped while its ops are tallied exactly as the
/// evaluated rejection path tallies them.
/// FP16 never skips: the bound is not proven through binary16 rounding.
/// Pass -infinity to evaluate every pair.
template <Precision P>
inline GaussianPairResult gaussian_pair(const pipeline::Splat2D& splat,
                                        float exp_cutoff, Vec2f pixel,
                                        pipeline::PixelBlendState& state,
                                        const pipeline::BlendParams& params,
                                        OpTally& ops) {
  GaussianPairResult result;

  // Subtask 1 — coordinate shift (2 adders).
  const float dx = q<P>(pixel.x - splat.mean.x);
  const float dy = q<P>(pixel.y - splat.mean.y);

  // Subtask 2 — Gaussian probability: power = -1/2 d^T Conic d.
  // 6 multipliers + 2 adders, then the dedicated exp unit.
  const float dx2 = q<P>(dx * dx);
  const float dy2 = q<P>(dy * dy);
  const float dxdy = q<P>(dx * dy);
  const float qa = q<P>(splat.conic.a * dx2);
  const float qc = q<P>(splat.conic.c * dy2);
  const float qb = q<P>(splat.conic.b * dxdy);
  const float power = q<P>(-0.5f * q<P>(qa + qc) - qb);
  ops.add += 4;  // 2 shift + 2 power sum
  ops.mul += 6;

  // Numerical guard identical to the reference kernel.
  ops.cmp += 1;
  if (power > 0.0f) return result;

  // exp, opacity * exp, alpha clamp and threshold: tallied before the
  // skip, so a skipped pair costs what an evaluated rejection costs.
  ops.exp += 1;
  ops.mul += 1;
  ops.cmp += 2;
  if constexpr (P == Precision::kFp32) {
    if (power < exp_cutoff) return result;
  }
  const float e = q<P>(std::exp(power));
  // Clamp with the reference kernel's std::min (a NaN alpha clamps to
  // alpha_max there too).
  const float alpha = std::min(params.alpha_max, q<P>(splat.opacity * e));
  result.alpha = alpha;

  // Threshold: contributions below 1/255 are skipped.
  if (alpha < params.alpha_min) return result;

  // Subtask 3 — color weight (T * alpha, then per-channel scale).
  const float w = q<P>(state.transmittance * alpha);
  const Vec3f weighted{q<P>(splat.color.x * w), q<P>(splat.color.y * w),
                       q<P>(splat.color.z * w)};

  // Subtask 4 — color accumulation and transmittance update.
  state.accumulated = {q<P>(state.accumulated.x + weighted.x),
                       q<P>(state.accumulated.y + weighted.y),
                       q<P>(state.accumulated.z + weighted.z)};
  const float one_minus = q<P>(1.0f - alpha);
  state.transmittance = q<P>(state.transmittance * one_minus);
  ops.mul += 5;  // T * alpha, 3 channels, T update
  ops.add += 4;  // 3 accumulate + (1 - alpha)

  result.blended = true;
  return result;
}

}  // namespace detail

/// The PE's Gaussian-mode per-pair operation: evaluates alpha at the pixel
/// and, if above threshold, performs the front-to-back accumulate on
/// `state`. In FP16 mode every intermediate rounds through binary16.
/// Tallies datapath ops into `ops`. Evaluates every pair (no exp skip).
inline GaussianPairResult pe_gaussian_pair(const pipeline::Splat2D& splat,
                                           Vec2f pixel,
                                           pipeline::PixelBlendState& state,
                                           const pipeline::BlendParams& params,
                                           Precision precision, OpTally& ops) {
  constexpr float kNoCutoff = -std::numeric_limits<float>::infinity();
  return precision == Precision::kFp16
             ? detail::gaussian_pair<Precision::kFp16>(splat, kNoCutoff, pixel,
                                                       state, params, ops)
             : detail::gaussian_pair<Precision::kFp32>(splat, kNoCutoff, pixel,
                                                       state, params, ops);
}

/// The PE's triangle-mode per-pair operation: coverage test, attribute
/// interpolation and min-depth color hold against (depth, color).
/// Returns true when the fragment won the depth test.
bool pe_triangle_pair(const mesh::ScreenTriangle& tri, Vec2f pixel,
                      float& depth_state, Vec3f& color_state,
                      Precision precision, OpTally& ops);

/// Per-primitive triangle setup cost (the divider use); call once per
/// triangle entering a PE block.
void pe_triangle_setup(OpTally& ops);

/// Op tallies charged per *fully blended* Gaussian pair, exposed for
/// Table II reproduction and energy-model unit tests.
struct GaussianPairOps {
  std::uint64_t adds = 8;  ///< 2 shift + 2 power sum + 3 accumulate + (1-a)
  std::uint64_t muls = 12; ///< 6 quadratic form + o*exp + T*a + 3 color + T update
  std::uint64_t exps = 1;
  std::uint64_t cmps = 2;  ///< alpha clamp + threshold
};

/// Op tallies charged per covered triangle pair (incremental edge form).
struct TrianglePairOps {
  std::uint64_t adds = 9;  ///< 3 edge increments + depth/attr accumulation
  std::uint64_t muls = 9;  ///< barycentric scale + attribute interpolation
  std::uint64_t cmps = 4;  ///< 3 inside tests + depth compare
};

}  // namespace gaurast::core
