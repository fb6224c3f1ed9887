// The optimized Step-3 host kernel (RasterKernel::kFast).
//
// Same arithmetic as the reference kernel, restructured for host-CPU
// throughput:
//
//  * Per-tile SoA staging: each tile's splats are gathered once through the
//    instances[i].splat_index indirection into flat scratch arrays, so the
//    pixel loops stream contiguous floats instead of re-chasing a 48-byte
//    AoS record per (pixel, splat) pair.
//  * 8-lane row batches: pixels are processed kRasterLaneWidth at a time.
//    For each splat, one vector step over the batch builds three lane masks:
//      - termination: !(T < transmittance_min) marks the live lanes, as the
//        reference checks T before every pair; a batch with no live lane
//        abandons its remaining splats;
//      - power: -0.5f * (a*dx2 + c*dy2) - b*(dx*dy), the reference
//        association (gsmath::gaussian_power), so every lane's power is
//        bit-equal to the reference's;
//      - candidate: a live lane that passes the numerical guard and the
//        exp() cutoff, !(power > 0) && !(power < cutoff), or a guarded lane
//        (power > 0) when alpha_min <= 0, where alpha == 0 still blends.
//    Most pairs end here (on the canonical scene only ~7% of evaluated
//    pairs blend), so a splat that has no candidate lane costs one vector
//    step and no exp().
//  * Survivor loop: only candidate lanes, walked lowest bit first, run the
//    scalar reference tail — alpha = min(alpha_max, opacity * exp(power)),
//    the alpha_min test and the blend. libm exp has no bit-identical vector
//    form, so it never runs in lanes.
//  * exp() cutoff: alpha_cutoff_power() gives a conservative power bound
//    below which the reference kernel provably discards the pair
//    (alpha < alpha_min); such lanes are never candidates.
//
// Dispatch: the kernel body is written once over a tiny 8-lane adapter
// (lane-wise operators, comparison masks, lane_bits) and force-inlined into
// one entry point per instruction set, so each copy is compiled for its
// entry's target:
//   - sse2: Sse2Lanes, two __m128 halves, the x86-64 baseline;
//   - avx:  VecLanes, a GCC/Clang 8 x float vector type, in the entry built
//           with __attribute__((target("avx"))), where it lowers to one
//           __m256 (an AVX intrinsic adapter could not share the body: code
//           compiled without AVX may not inline AVX intrinsics);
//   - portable: VecLanes on non-x86 builds, lowered to whatever the target
//           has (plain per-lane code at worst).
// The entry is picked once per process with __builtin_cpu_supports, and the
// raster_fast_test golden matrix runs every path the host supports.
//
// The FMA trap: with FMA enabled, compilers contract a*b + c into one fused
// operation, which rounds once instead of twice and changes the bits of
// power. The AVX entry therefore targets "avx" (no FMA), and this file is
// built with -ffp-contract=off so no target or flag can contract it.
//
// Bit-identity with the reference kernel is a hard contract (the fast
// kernel must remain a drop-in for the oracle the hardware model is
// validated against): blended pairs execute the exact reference operation
// sequence — acc += color * (alpha * T); T *= (1 - alpha) — and the masks
// only ever drop pairs the reference discards. Stats totals
// (pairs_evaluated, pairs_blended, pixels_terminated, pairs_per_tile) also
// match exactly; the stats-off instantiation carries no accounting at all.

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>

#if defined(__x86_64__)
#include <emmintrin.h>
#endif

#include "common/error.hpp"
#include "gsmath/fastmath.hpp"
#include "pipeline/rasterize.hpp"

namespace gaurast::pipeline {

void RasterScratch::ensure(std::size_t n) {
  if (mean_x.size() >= n) return;
  mean_x.resize(n);
  mean_y.resize(n);
  conic_a.resize(n);
  conic_b.resize(n);
  conic_c.resize(n);
  opacity.resize(n);
  cutoff.resize(n);
  color_r.resize(n);
  color_g.resize(n);
  color_b.resize(n);
}

RasterScratch& thread_raster_scratch() {
  thread_local RasterScratch scratch;
  return scratch;
}

namespace {

constexpr int kW = kRasterLaneWidth;
static_assert(kW == 8, "lane masks are one 8-bit mask per row batch");

/// Set lanes per lane mask, by table: the x86-64 baseline has no POPCNT, so
/// std::popcount there is a libgcc call per use.
constexpr auto kLaneCount = [] {
  std::array<std::uint8_t, 1u << kW> n{};
  for (unsigned m = 1; m < n.size(); ++m) n[m] = (m & 1u) + n[m >> 1];
  return n;
}();

// The 8-lane adapters. The kernel body is written once with lane-wise
// operators (lanes op lanes, lanes op scalar, comparisons giving a mask that
// ~, & and | combine) plus lane_bits(); each adapter supplies those.

/// GCC/Clang vector of kW floats; its comparisons give a vector of int32
/// lanes (-1 true, 0 false). Used by the AVX entry, where the compiler lowers
/// it to one __m256, and by non-x86 builds, where it lowers to whatever the
/// target has (plain per-lane code at worst).
using VecLanes = float __attribute__((vector_size(kW * sizeof(float))));
using VecMask = std::int32_t __attribute__((vector_size(kW * sizeof(float))));

/// Bit j set when lane j of `m` is true. (Vector operands go by reference:
/// by value they would change the call ABI between the SSE2 and AVX code.)
[[gnu::always_inline]] inline unsigned lane_bits(const VecMask& m) {
#if defined(__x86_64__)
  // movmskps on each half: one vextractf128 away in the AVX entry.
  __m128 half[2];
  std::memcpy(half, &m, sizeof half);
  return static_cast<unsigned>(_mm_movemask_ps(half[0])) |
         (static_cast<unsigned>(_mm_movemask_ps(half[1])) << 4);
#else
  unsigned bits = 0;
  for (int j = 0; j < kW; ++j) bits |= (m[j] != 0 ? 1u : 0u) << j;
  return bits;
#endif
}

#if defined(__x86_64__)
/// The x86-64 SSE2 baseline's kW lanes: two __m128 halves. Masks are the
/// same type, all-ones or all-zeros per lane. (GCC lowers VecLanes
/// comparisons without AVX to scalar code, hence this explicit form.)
struct Sse2Lanes {
  __m128 lo, hi;
};

#define GAURAST_SSE2_LANEWISE(op, a, b) \
  Sse2Lanes { op(a.lo, b.lo), op(a.hi, b.hi) }

[[gnu::always_inline]] inline Sse2Lanes splat(float v) {
  const __m128 x = _mm_set1_ps(v);
  return {x, x};
}
[[gnu::always_inline]] inline Sse2Lanes operator+(Sse2Lanes a, float b) {
  return GAURAST_SSE2_LANEWISE(_mm_add_ps, a, splat(b));
}
[[gnu::always_inline]] inline Sse2Lanes operator-(Sse2Lanes a, Sse2Lanes b) {
  return GAURAST_SSE2_LANEWISE(_mm_sub_ps, a, b);
}
[[gnu::always_inline]] inline Sse2Lanes operator-(Sse2Lanes a, float b) {
  return a - splat(b);
}
[[gnu::always_inline]] inline Sse2Lanes operator*(Sse2Lanes a, Sse2Lanes b) {
  return GAURAST_SSE2_LANEWISE(_mm_mul_ps, a, b);
}
[[gnu::always_inline]] inline Sse2Lanes operator*(Sse2Lanes a, float b) {
  return a * splat(b);
}
[[gnu::always_inline]] inline Sse2Lanes operator*(float a, Sse2Lanes b) {
  return splat(a) * b;
}
[[gnu::always_inline]] inline Sse2Lanes operator<(Sse2Lanes a, float b) {
  return GAURAST_SSE2_LANEWISE(_mm_cmplt_ps, a, splat(b));
}
[[gnu::always_inline]] inline Sse2Lanes operator>(Sse2Lanes a, float b) {
  return GAURAST_SSE2_LANEWISE(_mm_cmpgt_ps, a, splat(b));
}
[[gnu::always_inline]] inline Sse2Lanes operator&(Sse2Lanes a, Sse2Lanes b) {
  return GAURAST_SSE2_LANEWISE(_mm_and_ps, a, b);
}
[[gnu::always_inline]] inline Sse2Lanes operator|(Sse2Lanes a, Sse2Lanes b) {
  return GAURAST_SSE2_LANEWISE(_mm_or_ps, a, b);
}
[[gnu::always_inline]] inline Sse2Lanes operator~(Sse2Lanes a) {
  const __m128 ones = _mm_castsi128_ps(_mm_set1_epi32(-1));
  return {_mm_xor_ps(a.lo, ones), _mm_xor_ps(a.hi, ones)};
}

#undef GAURAST_SSE2_LANEWISE

[[gnu::always_inline]] inline unsigned lane_bits(const Sse2Lanes& m) {
  return static_cast<unsigned>(_mm_movemask_ps(m.lo)) |
         (static_cast<unsigned>(_mm_movemask_ps(m.hi)) << 4);
}
#endif

template <class Lanes, bool kCollectStats>
[[gnu::always_inline]] inline void raster_tile_lanes(
    const std::vector<Splat2D>& splats, const TileWorkload& work,
    const BlendParams& params, const float* splat_cutoffs,
    std::uint32_t tile_id, Image& image, RasterStats* stats,
    RasterScratch& scratch) {
  const TileGrid& grid = work.grid;
  const TileRange range = work.ranges[tile_id];
  const std::size_t count = range.size();
  if (count == 0) return;

  // Stage the tile's splats once: after this, the pixel loops never touch
  // the instance list or the AoS splat records again.
  scratch.ensure(count);
  float* const mx = scratch.mean_x.data();
  float* const my = scratch.mean_y.data();
  float* const ca = scratch.conic_a.data();
  float* const cb = scratch.conic_b.data();
  float* const cc = scratch.conic_c.data();
  float* const op = scratch.opacity.data();
  float* const cut = scratch.cutoff.data();
  float* const cr = scratch.color_r.data();
  float* const cg = scratch.color_g.data();
  float* const cbl = scratch.color_b.data();
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint32_t index = work.instances[range.begin + i].splat_index;
    const Splat2D& sp = splats[index];
    mx[i] = sp.mean.x;
    my[i] = sp.mean.y;
    ca[i] = sp.conic.a;
    cb[i] = sp.conic.b;
    cc[i] = sp.conic.c;
    op[i] = sp.opacity;
    cut[i] = splat_cutoffs[index];
    cr[i] = sp.color.x;
    cg[i] = sp.color.y;
    cbl[i] = sp.color.z;
  }

  const int tiles_x = grid.tiles_x();
  const int tx = static_cast<int>(tile_id) % tiles_x;
  const int ty = static_cast<int>(tile_id) / tiles_x;
  const int px0 = tx * grid.tile_size;
  const int py0 = ty * grid.tile_size;
  const int px1 = std::min(px0 + grid.tile_size, grid.width);
  const int py1 = std::min(py0 + grid.tile_size, grid.height);

  const float alpha_min = params.alpha_min;
  const float alpha_max = params.alpha_max;
  const float t_min = params.transmittance_min;
  // alpha_min <= 0 changes the discard semantics: a guarded (power > 0)
  // pair has alpha == 0, which then still *blends* (0 < alpha_min is
  // false), so guarded lanes are candidates too.
  using Mask = decltype(Lanes{} < 0.0f);
  const Mask blend_guarded = alpha_min > 0.0f ? Mask{} : ~Mask{};

  std::uint64_t evaluated = 0;
  std::uint64_t blended = 0;
  std::uint64_t terminated = 0;
  for (int py = py0; py < py1; ++py) {
    const float pyc = static_cast<float>(py) + 0.5f;
    for (int bx = px0; bx < px1; bx += kW) {
      const int lanes = std::min(kW, px1 - bx);
      const unsigned lane_mask = (1u << lanes) - 1u;
      float tr[kW];
      float pxc[kW];
      float power[kW];
      float acc_r[kW] = {};
      float acc_g[kW] = {};
      float acc_b[kW] = {};
      for (int j = 0; j < kW; ++j) {
        tr[j] = 1.0f;
        pxc[j] = static_cast<float>(bx + j) + 0.5f;
      }
      Lanes px_lanes;
      std::memcpy(&px_lanes, pxc, sizeof px_lanes);
      unsigned counted = 0;  // lanes already in pixels_terminated

      for (std::size_t i = 0; i < count; ++i) {
        // Termination mask first, exactly as the reference kernel checks
        // transmittance before evaluating each pair. A lane that crossed
        // the threshold with splats still pending counts as terminated
        // (once); when no lane is live the batch abandons the remaining
        // splats.
        Lanes t;
        std::memcpy(&t, tr, sizeof t);
        const unsigned live = lane_bits(~(t < t_min)) & lane_mask;
        if constexpr (kCollectStats) {
          const unsigned newly = lane_mask & ~live & ~counted;
          counted |= newly;
          terminated += kLaneCount[newly];
          evaluated += kLaneCount[live];
        }
        if (live == 0) break;

        const float dy = pyc - my[i];
        // Scalar operands splat across the lanes.
        const Lanes dx = px_lanes - mx[i];
        const Lanes pw =
            -0.5f * (ca[i] * (dx * dx) + cc[i] * (dy * dy)) - cb[i] * (dx * dy);
        const Mask guarded = pw > 0.0f;
        const Mask candidate =
            (~guarded & ~(pw < cut[i])) | (guarded & blend_guarded);
        unsigned survivors = lane_bits(candidate) & live;
        if (survivors == 0) continue;

        std::memcpy(power, &pw, sizeof power);
        for (; survivors != 0; survivors &= survivors - 1u) {
          const int j = std::countr_zero(survivors);
          const float t = tr[j];
          // Reference numerical guard: a positive power has alpha == 0.
          const float alpha =
              power[j] > 0.0f ? 0.0f
                              : std::min(alpha_max, op[i] * std::exp(power[j]));
          if (alpha < alpha_min) continue;
          const float w = alpha * t;
          acc_r[j] += cr[i] * w;
          acc_g[j] += cg[i] * w;
          acc_b[j] += cbl[i] * w;
          tr[j] = t * (1.0f - alpha);
          if constexpr (kCollectStats) ++blended;
        }
      }

      for (int j = 0; j < lanes; ++j) {
        Vec3f& out = image.at(bx + j, py);
        out.x = acc_r[j] + params.background.x * tr[j];
        out.y = acc_g[j] + params.background.y * tr[j];
        out.z = acc_b[j] + params.background.z * tr[j];
      }
    }
  }
  if constexpr (kCollectStats) {
    stats->pairs_evaluated += evaluated;
    stats->pairs_per_tile[tile_id] += evaluated;
    stats->pairs_blended += blended;
    stats->pixels_terminated += terminated;
  }
}

/// Tiles [tile_begin, tile_end) through the kernel body on `Lanes`.
/// Force-inlined into each entry point below, so the body is compiled for
/// that entry's target.
template <class Lanes>
[[gnu::always_inline]] inline void raster_span_lanes(
    const std::vector<Splat2D>& splats, const TileWorkload& work,
    const BlendParams& params, const float* splat_cutoffs,
    std::uint32_t tile_begin, std::uint32_t tile_end, Image& image,
    RasterStats* stats) {
  RasterScratch& scratch = thread_raster_scratch();
  if (stats) {
    for (std::uint32_t t = tile_begin; t < tile_end; ++t) {
      raster_tile_lanes<Lanes, true>(splats, work, params, splat_cutoffs, t,
                                     image, stats, scratch);
    }
  } else {
    for (std::uint32_t t = tile_begin; t < tile_end; ++t) {
      raster_tile_lanes<Lanes, false>(splats, work, params, splat_cutoffs, t,
                                      image, nullptr, scratch);
    }
  }
}

using SpanFn = void (*)(const std::vector<Splat2D>&, const TileWorkload&,
                        const BlendParams&, const float*, std::uint32_t,
                        std::uint32_t, Image&, RasterStats*);

#if defined(__x86_64__)
void raster_span_sse2(const std::vector<Splat2D>& splats,
                      const TileWorkload& work, const BlendParams& params,
                      const float* splat_cutoffs, std::uint32_t tile_begin,
                      std::uint32_t tile_end, Image& image,
                      RasterStats* stats) {
  raster_span_lanes<Sse2Lanes>(splats, work, params, splat_cutoffs,
                               tile_begin, tile_end, image, stats);
}

// "avx", not "avx2,fma": with FMA the compiler may fuse a*b + c.
__attribute__((target("avx"))) void raster_span_avx(
    const std::vector<Splat2D>& splats, const TileWorkload& work,
    const BlendParams& params, const float* splat_cutoffs,
    std::uint32_t tile_begin, std::uint32_t tile_end, Image& image,
    RasterStats* stats) {
  raster_span_lanes<VecLanes>(splats, work, params, splat_cutoffs,
                              tile_begin, tile_end, image, stats);
}

bool host_supports_avx() {
  static const bool supported = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx") != 0;
  }();
  return supported;
}
#else
void raster_span_portable(const std::vector<Splat2D>& splats,
                          const TileWorkload& work, const BlendParams& params,
                          const float* splat_cutoffs, std::uint32_t tile_begin,
                          std::uint32_t tile_end, Image& image,
                          RasterStats* stats) {
  raster_span_lanes<VecLanes>(splats, work, params, splat_cutoffs,
                              tile_begin, tile_end, image, stats);
}
#endif

/// The entry point for `path`, or nullptr when this host cannot run it.
SpanFn span_for(detail::FastRasterPath path) {
  using detail::FastRasterPath;
#if defined(__x86_64__)
  if (path == FastRasterPath::kSse2) return raster_span_sse2;
  if (path == FastRasterPath::kAvx && host_supports_avx()) {
    return raster_span_avx;
  }
#else
  if (path == FastRasterPath::kPortable) return raster_span_portable;
#endif
  return nullptr;
}

}  // namespace

namespace detail {

const char* to_string(FastRasterPath path) {
  switch (path) {
    case FastRasterPath::kSse2:
      return "sse2";
    case FastRasterPath::kAvx:
      return "avx";
    case FastRasterPath::kPortable:
      break;
  }
  return "portable";
}

std::vector<FastRasterPath> supported_fast_raster_paths() {
  std::vector<FastRasterPath> paths;
  for (const FastRasterPath path :
       {FastRasterPath::kPortable, FastRasterPath::kSse2,
        FastRasterPath::kAvx}) {
    if (span_for(path) != nullptr) paths.push_back(path);
  }
  return paths;
}

FastRasterPath dispatched_fast_raster_path() {
  static const FastRasterPath path = supported_fast_raster_paths().back();
  return path;
}

void raster_span_fast(FastRasterPath path, const std::vector<Splat2D>& splats,
                      const TileWorkload& work, const BlendParams& params,
                      const float* splat_cutoffs, std::uint32_t tile_begin,
                      std::uint32_t tile_end, Image& image,
                      RasterStats* stats) {
  const SpanFn span = span_for(path);
  GAURAST_CHECK_MSG(span != nullptr, "raster path '"
                                         << to_string(path)
                                         << "' is not supported on this host");
  span(splats, work, params, splat_cutoffs, tile_begin, tile_end, image,
       stats);
}

}  // namespace detail

}  // namespace gaurast::pipeline
